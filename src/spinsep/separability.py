"""Separability certificates for multipartite densities.

Three checks are offered: a Cauchy-Schwarz necessary condition on the
computational-basis entries, the partial-transpose necessary condition,
and a sufficient condition with a constructive separable decomposition
whenever the spin L1 norm does not exceed one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from typing import Optional

import numpy as np

from .composite import digit_table, strides
from .decompositions import (
    ProductTerm,
    SeparableDecomposition,
    VerificationError,
    verify_decomposition,
)
from .linalg import (
    DEFAULT_TOLERANCE,
    DensityMatrix,
    Tolerance,
    hermitian_eigenvalues,
    partial_transpose,
)
from .projections import ProjectionSpec, subgroup_projection
from .spin import RootOfUnity, SpinLabel
from .transform import spin_l1_norm, to_spin

SEPARABLE = "separable-certified"
INSEPARABLE = "inseparable-certified"
INCONCLUSIVE = "inconclusive"

# Accept spin norms up to 1 + this slack so exact-threshold cases survive
# double rounding; the sufficiency bound is closed.
NORM_SLACK = 1e-12

# Decomposition terms below this weight are dropped and the rest renormalised.
WEIGHT_FLOOR = 1e-14


@dataclass(frozen=True)
class NecessaryViolation:
    """A violated diagonal-majorisation inequality, in digit tuples."""

    j: tuple[int, ...]
    k: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...]
    bound: float
    magnitude: float


@dataclass(frozen=True)
class NegativeEigenvalue:
    subsystem: int
    value: float


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a certificate: verdict plus supporting detail.

    A separable verdict always carries a decomposition witness; an
    inseparable verdict carries the concrete violated necessary condition.
    """

    verdict: str
    l1_norm: Optional[float] = None
    witness: object = None


def necessary_check(
    rho: DensityMatrix, tol: Tolerance = DEFAULT_TOLERANCE
) -> CertificateReport:
    """Scan sqrt(rho_jj rho_kk) >= |rho_uv| over all full recombinations.

    The indices j, k run over pairs differing in every component and u, v
    over all ways of redistributing the digits {j_a, k_a}.  Any violation
    beyond the tolerance excludes full separability.
    """
    dims = rho.dims
    b = len(dims)
    if b < 2:
        raise ValueError("the necessary condition needs at least two subsystems")
    m = rho.matrix
    n = dims.size
    digits = digit_table(dims)
    stride = np.asarray(strides(dims), dtype=np.int64)
    diag = np.clip(np.real(np.diagonal(m)), 0.0, None)
    worst: NecessaryViolation | None = None
    for jf in range(n):
        jd = digits[jf]
        for kf in range(jf + 1, n):
            kd = digits[kf]
            if np.any(jd == kd):
                continue
            bound = math.sqrt(diag[jf] * diag[kf])
            for pattern in iter_product((0, 1), repeat=b - 1):
                ud, vd = [jd[0]], [kd[0]]
                for a, p in enumerate(pattern, start=1):
                    if p == 0:
                        ud.append(jd[a])
                        vd.append(kd[a])
                    else:
                        ud.append(kd[a])
                        vd.append(jd[a])
                uf = int(np.dot(ud, stride))
                vf = int(np.dot(vd, stride))
                magnitude = abs(m[uf, vf])
                excess = magnitude - bound
                if excess > tol.abs_eps and (
                    worst is None or excess > worst.magnitude - worst.bound
                ):
                    worst = NecessaryViolation(
                        tuple(int(x) for x in jd),
                        tuple(int(x) for x in kd),
                        tuple(int(x) for x in ud),
                        tuple(int(x) for x in vd),
                        bound,
                        magnitude,
                    )
    if worst is not None:
        return CertificateReport(INSEPARABLE, witness=worst)
    return CertificateReport(INCONCLUSIVE)


def peres_check(
    rho: DensityMatrix, subsystem: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> CertificateReport:
    """Partial-transpose test on one subsystem (1-based)."""
    pt = partial_transpose(rho, subsystem)
    lo = float(hermitian_eigenvalues(pt)[0])
    if lo < -tol.abs_eps:
        return CertificateReport(INSEPARABLE, witness=NegativeEigenvalue(subsystem, lo))
    return CertificateReport(INCONCLUSIVE)


def _reduced_generator(d: int, j: int, k: int) -> tuple[SpinLabel, int, complex]:
    """Rewrite S_{j,k} as beta * (gamma S_u)^t with a valid generator u.

    For (j,k) = (0,0) the generator is (0,1) with t = 0.  Otherwise
    u = (j/g, k/g) with g = gcd(j,k), t = g, and
    beta = eta^(-(u_j u_k) g(g-1)/2) gamma^(-g) where gamma is the
    half-step correction of u when required.
    """
    if (j, k) == (0, 0):
        return SpinLabel(0, 1), 0, 1.0 + 0.0j
    g = math.gcd(j, k)
    u = SpinLabel(j // g, k // g)
    beta = RootOfUnity(d, (-(u.j * u.k) * (g * (g - 1) // 2)) % d).value()
    if d % 2 == 0 and (u.j * u.k) % 2 == 1:
        beta *= RootOfUnity(d, -g, half_step=True).value()
    return u, g, beta


@lru_cache(maxsize=None)
def _projection(d: int, j: int, k: int, r: int) -> tuple[bytes, ProjectionSpec]:
    """Content key and spec of P_(j,k)(r).

    Generators of the same subgroup, such as (1, 2) and (2, 1) for d = 3,
    give equal projections, so certificate terms are merged on content.
    """
    spec = ProjectionSpec(d, SpinLabel(j, k), r)
    return subgroup_projection(spec).tobytes(), spec


def sufficient_certificate(
    rho: DensityMatrix, tol: Tolerance = DEFAULT_TOLERANCE
) -> CertificateReport:
    """Certify separability constructively when the spin L1 norm is at most one.

    Each non-identity coefficient is grouped with its conjugate partner,
    every factor spin matrix is rewritten as a phase times a power of a
    reduced generator, and the pair expands over product projections with
    weights |s| (1 + cos(theta - arg eta(l))).  The leftover norm budget
    becomes a uniform-mixture residual term.  Above the bound the verdict
    is inconclusive with the norm attached.

    Label groups are independent and processed in lexicographic order, so
    the decomposition is bit-stable run to run.  Expansions that land on the
    same product of projections are merged into one term, so the witness
    holds each product once.  The witness is verified before it is
    returned and VerificationError reports a failure, for example under a
    tolerance too tight for double rounding.
    """
    dims = rho.dims
    n = dims.size
    coeffs = to_spin(rho)
    norm = spin_l1_norm(coeffs)
    if norm > 1.0 + NORM_SLACK:
        return CertificateReport(INCONCLUSIVE, l1_norm=norm)

    table = coeffs.table
    digits = digit_table(dims)
    # neg[f] is the flat index of the componentwise negation of f's digits.
    neg = (((-digits) % np.asarray(dims.dims)) @ np.asarray(strides(dims))).tolist()
    digit_rows = digits.tolist()
    # [weight, specs] per distinct product of projections, in first-seen order.
    merged: dict[tuple[bytes, ...], list] = {}
    for jf in range(n):
        for kf in range(n):
            partner = (neg[jf], neg[kf])
            # A pair is expanded together with its conjugate partner, at
            # whichever of the two comes first.
            if (jf, kf) == (0, 0) or partner < (jf, kf):
                continue
            jd, kd = digit_rows[jf], digit_rows[kf]
            s = complex(table[jf, kf])
            if abs(s) < WEIGHT_FLOOR:
                continue
            mult = 1.0 if partner == (jf, kf) else 2.0

            gens: list[tuple[SpinLabel, int]] = []
            beta = 1.0 + 0.0j
            for d_i, j_i, k_i in zip(dims, jd, kd):
                u, t, b_i = _reduced_generator(d_i, j_i, k_i)
                gens.append((u, t))
                beta *= b_i
            theta = cmath.phase(beta * s)

            for offsets in iter_product(*[range(d_i) for d_i in dims]):
                arg_omega = -2.0 * math.pi * sum(
                    l * t / d_i for l, (_, t), d_i in zip(offsets, gens, dims)
                )
                weight = mult * abs(s) * (1.0 + math.cos(theta + arg_omega)) / n
                if weight < WEIGHT_FLOOR:
                    continue
                parts = [
                    _projection(d_i, u.j, u.k, l)
                    for d_i, (u, _), l in zip(dims, gens, offsets)
                ]
                key = tuple(content for content, _ in parts)
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [weight, tuple(spec for _, spec in parts)]
                else:
                    entry[0] += weight

    terms = [
        ProductTerm(weight, tuple(subgroup_projection(sp) for sp in specs), specs)
        for weight, specs in merged.values()
    ]
    residual = 1.0 - norm
    if residual > WEIGHT_FLOOR:
        terms.append(
            ProductTerm(
                residual,
                tuple(np.eye(d, dtype=complex) / d for d in dims),
                None,
            )
        )
    total = math.fsum(term.weight for term in terms)
    terms = [
        ProductTerm(t.weight / total, t.factors, t.factor_specs) for t in terms
    ]
    dec = SeparableDecomposition(dims, tuple(terms))
    result = verify_decomposition(dec, rho, tol)
    if not result:
        raise VerificationError(f"internal decomposition failed verification: {result.failure}")
    return CertificateReport(SEPARABLE, l1_norm=norm, witness=dec)
