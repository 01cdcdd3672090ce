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
def _label_table(d: int) -> tuple:
    """Expansion data of every label j*d + k of a d-level factor.

    Per label: the phase beta of S_{j,k} = beta (gamma S_u)^t, and per
    offset l the weight omega_l of P_u(l) in the expansion of that power,
    the index of P_u(l) among the distinct projections and the index of
    its spec among the distinct specs; then those specs and their
    projections.  Generators of one subgroup, such as (1, 2) and (2, 1)
    for d = 3, give equal projections under different specs, so the
    first index is by content and the second by spec.
    """
    beta = np.empty(d * d, dtype=complex)
    omega = np.empty((d * d, d), dtype=complex)
    ids = np.empty((d * d, d), dtype=np.int64)
    entry = np.empty((d * d, d), dtype=np.int64)
    content: dict[bytes, int] = {}
    specs: dict[ProjectionSpec, int] = {}
    for label in range(d * d):
        u, t, beta[label] = _reduced_generator(d, *divmod(label, d))
        for l, (w, r) in enumerate(expand_spin_power(ProjectionSpec(d, u), t)):
            spec = ProjectionSpec(d, u, r)
            omega[label, l] = w
            entry[label, l] = specs.setdefault(spec, len(specs))
            ids[label, l] = content.setdefault(subgroup_projection(spec).tobytes(), len(content))
    for a in (beta, omega, ids, entry):
        a.setflags(write=False)
    return beta, omega, ids, entry, tuple(specs), tuple(subgroup_projection(s) for s in specs)


def sufficient_certificate(
    rho: DensityMatrix, tol: Tolerance = DEFAULT_TOLERANCE
) -> CertificateReport:
    """Certify separability constructively when the spin L1 norm is at most one.

    Each non-identity coefficient s is grouped with its conjugate partner,
    every factor spin matrix is rewritten as a phase beta_a times a power
    of a reduced generator, and the pair expands over the product
    projections of every offset vector l with weight
    mult * (|s| + Re(beta s prod_a omega_a(l_a))) / N, where mult is 2 for
    a pair and 1 for a self-partnered label and omega_a(l_a) are the
    expansion weights of ``expand_spin_power``.  The leftover norm budget
    becomes a uniform-mixture residual term.  Above the bound the verdict
    is inconclusive with the norm attached.

    Label pairs are taken in lexicographic order and offsets in
    lexicographic order within each pair, so the decomposition is
    bit-stable run to run.  Expansions that land on the same product of
    projections are merged into one term at the first, so the witness
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
    radix = np.asarray(dims.dims)
    # neg[f] is the flat index of the componentwise negation of f's digits.
    neg = ((-digits) % radix) @ np.asarray(strides(dims))
    jf, kf = np.nonzero(np.abs(table) >= WEIGHT_FLOOR)
    pj, pk = neg[jf], neg[kf]
    # A pair is expanded together with its conjugate partner, at whichever
    # of the two comes first; the identity label is left to the residual.
    keep = ((pj > jf) | ((pj == jf) & (pk >= kf))) & ((jf > 0) | (kf > 0))
    jf, kf, pj, pk = jf[keep], kf[keep], pj[keep], pk[keep]
    s = table[jf, kf]
    mult = np.where((pj == jf) & (pk == kf), 1.0, 2.0)
    labels = digits[jf] * radix + digits[kf]

    # Rows are the kept pairs, columns the offset vectors in digit_table order.
    tables = [_label_table(d) for d in dims]
    beta = np.ones(len(s), dtype=complex)
    omega = np.ones((len(s), n), dtype=complex)
    # product[p, o] encodes the distinct projection of every slot, mixed-radix.
    product = np.zeros((len(s), n), dtype=np.int64)
    for a, (beta_d, omega_d, ids_d, *_) in enumerate(tables):
        lab = labels[:, a]
        beta = beta * beta_d[lab]
        omega = omega * omega_d[lab][:, digits[:, a]]
        product = product * (ids_d.max() + 1) + ids_d[lab][:, digits[:, a]]
    weights = mult[:, None] * (np.abs(s)[:, None] + ((beta * s)[:, None] * omega).real) / n
    flat = np.flatnonzero(weights >= WEIGHT_FLOOR)
    keys = product.reshape(-1)[flat]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    merged = np.bincount(inverse, weights=weights.reshape(-1)[flat])[order]

    # Each merged term keeps the specs and factors of its first expansion;
    # the uniform residual, if any, is the last term.
    pair, offset = np.divmod(flat[first[order]], n)
    residual = int(1.0 - norm > WEIGHT_FLOOR)
    parts = np.append(merged, [1.0 - norm] * residual)
    index, factors, specs = [], [], []
    for a, (d, (*_, entry, spec_d, factor_d)) in enumerate(zip(dims, tables)):
        index.append(np.append(entry[labels[pair, a], digits[offset, a]], [len(spec_d)] * residual))
        specs.append(spec_d + (None,) * residual)
        factors.append(factor_d + (np.eye(d, dtype=complex) / d,) * residual)
    weights = parts / math.fsum(parts.tolist())
    dec = SeparableDecomposition.from_columns(dims, weights, np.column_stack(index), factors, specs)
    result = verify_decomposition(dec, rho, tol)
    if not result:
        raise VerificationError(f"internal decomposition failed verification: {result.failure}")
    return CertificateReport(SEPARABLE, l1_norm=norm, witness=dec)
