"""Separability certificates for multipartite densities.

Three checks are offered: a Cauchy-Schwarz necessary condition on the
computational-basis entries, the partial-transpose necessary condition,
and a sufficient condition with a constructive separable decomposition
whenever the spin L1 norm does not exceed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .composite import DimVector, digit_table, strides
from .decompositions import (
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
from .projections import ProjectionSpec, expand_spin_power, subgroup_projection
from .spin import RootOfUnity, SpinLabel, spin_power
from .transform import spin_l1_norm, to_spin

SEPARABLE = "separable-certified"
INSEPARABLE = "inseparable-certified"
INCONCLUSIVE = "inconclusive"

# Accept spin norms up to 1 + this slack, and Werner s up to s* + it, so
# exact-threshold cases survive double rounding; both bounds are closed.
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


@lru_cache(maxsize=None)
def _necessary_table(dims: DimVector) -> tuple:
    """Flat pair indices jf, kf and redistributions uf, vf of ``necessary_check``, read-only."""
    b = len(dims)
    digits = digit_table(dims)
    stride = np.asarray(strides(dims), dtype=np.int64)
    differ = (digits[:, None, :] != digits[None, :, :]).all(axis=2)
    jf, kf = np.nonzero(np.triu(differ, 1))
    jd, kd = digits[jf][:, None, :], digits[kf][:, None, :]
    # swap[r, a]: redistribution r takes digit a of u from k; digit 0 stays with j.
    swap = np.zeros((2 ** (b - 1), b), dtype=bool)
    swap[:, 1:] = digit_table(DimVector((2,) * (b - 1)))
    tables = jf, kf, np.where(swap, kd, jd) @ stride, np.where(swap, jd, kd) @ stride
    for a in tables:
        a.setflags(write=False)
    return tables


def necessary_check(
    rho: DensityMatrix, tol: Tolerance = DEFAULT_TOLERANCE
) -> CertificateReport:
    """Scan sqrt(rho_jj rho_kk) >= |rho_uv| over all full recombinations.

    The indices j < k run over pairs differing in every component and u, v
    over all ways of redistributing the digits {j_a, k_a}.  Any violation
    beyond the tolerance excludes full separability; the witness is the
    first largest violation in (j, k, redistribution) order.
    """
    dims = rho.dims
    if len(dims) < 2:
        raise ValueError("the necessary condition needs at least two subsystems")
    m = rho.matrix
    jf, kf, uf, vf = _necessary_table(dims)
    diag = np.clip(np.real(np.diagonal(m)), 0.0, None)
    entries = m[uf, vf]
    # hypot rounds as abs() of one entry does; np.abs on arrays may differ in the last bit.
    magnitude = np.hypot(entries.real, entries.imag)
    bound = np.sqrt(diag[jf] * diag[kf])
    excess = magnitude - bound[:, None]
    p, r = np.unravel_index(np.argmax(excess), excess.shape)
    if not excess[p, r] > tol.abs_eps:
        return CertificateReport(INCONCLUSIVE)
    digits = digit_table(dims)
    witness = NecessaryViolation(
        *(tuple(digits[f].tolist()) for f in (jf[p], kf[p], uf[p, r], vf[p, r])),
        float(bound[p]),
        float(magnitude[p, r]),
    )
    return CertificateReport(INSEPARABLE, witness=witness)


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
    u = (j/g, k/g) with g = gcd(j,k), t = g, and beta = gamma^(-g) over
    the phase of ``spin_power(d, u, g)``, where gamma is the half-step
    correction of u when required.
    """
    if (j, k) == (0, 0):
        return SpinLabel(0, 1), 0, 1.0 + 0.0j
    g = math.gcd(j, k)
    u = SpinLabel(j // g, k // g)
    beta = RootOfUnity(d, -spin_power(d, u, g)[0].exponent).value()
    if ProjectionSpec(d, u).alpha_applied:
        beta *= RootOfUnity(d, -g, half_step=True).value()
    return u, g, beta


@lru_cache(maxsize=None)
def _label_table(d: int) -> tuple:
    """Expansion map of every label j*d + k of a d-level factor, read-only.

    S_{j,k} = sum_l beta omega_l P_u(l) over d projections of distinct
    content.  Contents are numbered in first-seen (label, offset) order:
    (1, 2) and (2, 1) for d = 3 reach equal projections.  Returns the
    (d^2, K) map E[L, c] = beta omega_l, of modulus one, where offset l of
    label L has content c and 0 elsewhere, and the K projections.
    """
    content: dict[bytes, tuple[int, np.ndarray]] = {}
    entries = []
    for label in range(d * d):
        u, t, beta = _reduced_generator(d, *divmod(label, d))
        for w, r in expand_spin_power(ProjectionSpec(d, u), t):
            p = subgroup_projection(ProjectionSpec(d, u, r))
            c, _ = content.setdefault(p.tobytes(), (len(content), p))
            entries.append((label, c, beta * w))
    rows, cols, values = zip(*entries)
    phases = np.zeros((d * d, len(content)), dtype=complex)
    phases[rows, cols] = values
    phases.setflags(write=False)
    return phases, tuple(p for _, p in content.values())


def sufficient_certificate(
    rho: DensityMatrix, tol: Tolerance = DEFAULT_TOLERANCE
) -> CertificateReport:
    """Certify separability constructively when the spin L1 norm is at most one.

    Each non-identity coefficient s of modulus at least WEIGHT_FLOOR is
    taken with mult 2 at the first label of its conjugate pair, or mult 1
    when the label is its own partner.  Writing every factor spin matrix
    as beta_a (gamma S_u)^t expands it over the product projections of
    every offset vector l with weight
    mult * (|s| + Re(s prod_a beta_a omega_a(l_a))) / N.  That weight
    factorises over the slots, so the merged weight of each product of
    projection contents is one contraction of the spin table per slot with
    the maps of ``_label_table``.  Each slot's grid axis gains I/d_a as a
    last entry; the corner holds the residual 1 - l1 if above WEIGHT_FLOOR,
    else 0.  The witness holds, once each and in C order, every grid point
    of weight at least WEIGHT_FLOOR (a content that several generators
    reach is one entry), so the residual is last.  Above the bound the
    verdict is inconclusive.  The witness is verified; VerificationError
    reports a failure, as under a tolerance too tight for double rounding.
    """
    dims = rho.dims
    n, b = dims.size, len(dims)
    coeffs = to_spin(rho)
    norm = spin_l1_norm(coeffs)
    if norm > 1.0 + NORM_SLACK:
        return CertificateReport(INCONCLUSIVE, l1_norm=norm)

    # neg[f] is the flat index of the componentwise negation of f's digits.
    neg = ((-digit_table(dims)) % np.asarray(dims)) @ np.asarray(strides(dims))
    # mult is 2, 1 or 0 as the partner label comes later, is the label or comes first.
    mult = 1 + np.sign(np.add.outer(neg * n, neg) - np.arange(n * n).reshape(n, n))
    mult[0, 0] = 0
    s = np.where(np.abs(coeffs.table) >= WEIGHT_FLOOR, mult * coeffs.table, 0.0)
    # One axis per slot, indexed by the slot's label j_a * d_a + k_a.
    s = s.reshape(dims * 2).transpose(np.arange(2 * b).reshape(2, b).T.ravel())
    s = s.reshape([d * d for d in dims])
    tables = [_label_table(d) for d in dims]
    phased, modulus = s, np.abs(s)
    for phases, _ in tables:
        phased = np.tensordot(phased, phases, axes=(0, 0))
        modulus = np.tensordot(modulus, phases != 0, axes=(0, 0))
    merged = np.pad((modulus + phased.real) / n, (0, 1))
    merged[(-1,) * b] = 1.0 - norm if 1.0 - norm > WEIGHT_FLOOR else 0.0
    index = np.argwhere(merged >= WEIGHT_FLOOR)
    parts = merged[tuple(index.T)]
    factors = [(*p, np.eye(d, dtype=complex) / d) for d, (_, p) in zip(dims, tables)]
    weights = parts / math.fsum(parts.tolist())
    dec = SeparableDecomposition(dims, weights, index, factors)
    result = verify_decomposition(dec, rho, tol)
    if not result:
        raise VerificationError(f"internal decomposition failed verification: {result.failure}")
    return CertificateReport(SEPARABLE, l1_norm=norm, witness=dec)
