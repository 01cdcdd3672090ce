"""Subgroup projections generated by phased spin matrices, their product
and cyclic-family combinations, and the phase parametrisation of trace-one
projections for d = 2 and d = 3.

A valid generator index u = (j, k) together with an integer offset r
defines P_u(r) = (1/d) sum_m (gamma eta^r S_u)^m, the average of the
cyclic group generated by the phased spin matrix.  The correction
gamma = alpha = exp(pi*i/d) is required exactly when d is even and j*k
is odd; otherwise gamma = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .composite import DimVector, digit_table, kron_all
from .decompositions import SeparableDecomposition
from .linalg import DensityMatrix, check_density
from .spin import RootOfUnity, SpinLabel, fourier_matrix, spin_matrix, spin_power
from .transform import SpinCoefficients, spin_table


def valid_generator(d: int, j: int, k: int) -> bool:
    """Whether (j, k) generates a cyclic group of order d under powers.

    The powers of S_{j,k} return to a multiple of the identity after
    exactly d/gcd(d, j, k) steps, so the index is a generator precisely
    when gcd(d, j, k) = 1.  For prime d that is every non-zero index.
    """
    if not (0 <= j < d and 0 <= k < d):
        return False
    if (j, k) == (0, 0):
        return False
    return math.gcd(d, math.gcd(j, k)) == 1


@dataclass(frozen=True)
class ProjectionSpec:
    """Names the subgroup projection P_u(r) on a d-level system."""

    d: int
    u: SpinLabel
    r: int = 0
    alpha_applied: bool = field(init=False)

    def __post_init__(self):
        u = SpinLabel(*self.u)
        if not valid_generator(self.d, u.j, u.k):
            raise ValueError(
                f"index {tuple(u)} does not generate an order-{self.d} subgroup: "
                f"gcd(d, j, k) must be 1 (any non-zero index when d is prime)"
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "alpha_applied", self.d % 2 == 0 and (u.j * u.k) % 2 == 1)


def _generator_power(spec: ProjectionSpec, m: int) -> np.ndarray:
    """(gamma eta^r S_u)^m as an explicit matrix, phases from reduced exponents."""
    power, label = spin_power(spec.d, spec.u, m)
    phase = RootOfUnity(spec.d, spec.r * m + power.exponent).value()
    if spec.alpha_applied:
        phase *= RootOfUnity(spec.d, m, half_step=True).value()
    return phase * spin_matrix(spec.d, *label)


@lru_cache(maxsize=None)
def subgroup_projection(spec: ProjectionSpec) -> np.ndarray:
    """The trace-one projection P_u(r), read-only; Hermitian and idempotent."""
    acc = sum(_generator_power(spec, m) for m in range(spec.d)) / spec.d
    acc.setflags(write=False)
    return acc


def expand_spin_power(spec: ProjectionSpec, t: int) -> list[tuple[complex, int]]:
    """Weights and offsets expanding (gamma eta^r S_u)^t over the projection family.

    Returns the d pairs (eta^(-m*t), m + r) with
    (gamma eta^r S_u)^t = sum_m eta^(-m*t) P_u(m + r); t = 0 gives the
    resolution of the identity.
    """
    if t < 0:
        raise ValueError(f"power must be non-negative, got {t}")
    d = spec.d
    return [(RootOfUnity(d, (-m * t) % d).value(), m + spec.r) for m in range(d)]


@dataclass(frozen=True)
class ProductProjectionSpec:
    """One subgroup projection per tensor factor."""

    dims: DimVector
    specs: tuple[ProjectionSpec, ...]

    def __post_init__(self):
        specs = tuple(self.specs)
        if len(specs) != len(self.dims):
            raise ValueError(
                f"{len(specs)} projection specs for {len(self.dims)} subsystems"
            )
        for spec, d in zip(specs, self.dims):
            if spec.d != d:
                raise ValueError(f"factor dimension {spec.d} does not match {d}")
        object.__setattr__(self, "specs", specs)


def product_projection(spec: ProductProjectionSpec) -> np.ndarray:
    """Tensor product of the factor projections; again trace-one."""
    return kron_all(subgroup_projection(s) for s in spec.specs)


def cyclic_family_decomposition(d: int, n: int, u_vec, r_vec) -> SeparableDecomposition:
    """Separable decomposition of the cyclic-family density, without the density.

    The uniform mixture of products P_{u_1}(r_1+l_1) (x) ... (x) P_{u_n}(r_n+l_n)
    over all offset vectors with l_1 + ... + l_n = 0 mod d, in lexicographic
    order of (l_1, ..., l_{n-1}); the first term has every l_i = 0.
    """
    u_vec = [SpinLabel(*u) for u in u_vec]
    r_vec = [int(r) for r in r_vec]
    if len(u_vec) != n or len(r_vec) != n:
        raise ValueError("u_vec and r_vec must each have n entries")
    # Entry l of slot i is P_{u_i}(r_i + l); term rows are the offset vectors.
    specs = [[ProjectionSpec(d, u, r + l) for l in range(d)] for u, r in zip(u_vec, r_vec)]
    factors = [[subgroup_projection(s) for s in slot] for slot in specs]
    dims = DimVector((d,) * n)
    offsets = digit_table(dims)
    offsets = offsets[offsets.sum(axis=1) % d == 0]
    weights = np.full(len(offsets), 1.0 / d ** (n - 1))
    return SeparableDecomposition(dims, weights, offsets, factors)


def cyclic_family_density(
    d: int, n: int, u_vec, r_vec
) -> tuple[DensityMatrix, SeparableDecomposition]:
    """Fully separable density from a cyclic family of phased spin matrices.

    rho = (1/d^n) sum_{m=0}^{d-1} (x)_i (gamma_i eta^{r_i} S_{u_i})^m, built
    from the generator powers and validated, returned together with
    ``cyclic_family_decomposition(d, n, u_vec, r_vec)``.
    """
    dec = cyclic_family_decomposition(d, n, u_vec, r_vec)
    gens = [ProjectionSpec(d, u, r) for u, r in zip(u_vec, r_vec)]
    acc = sum(kron_all(_generator_power(g, m) for g in gens) for m in range(d))
    return check_density(acc / dec.dims.size, dec.dims), dec


def _diag_phase_map(d: int, phases) -> np.ndarray:
    f = fourier_matrix(d)
    return f.conj() @ np.diag(np.exp(1j * np.asarray(phases, dtype=float))) @ f / d


def m2_map(theta: float) -> np.ndarray:
    """Phase-mixing map for d = 2: cos(theta) I + i sin(theta) sigma_x."""
    return _diag_phase_map(2, (theta, -theta))


def m3_map(theta) -> np.ndarray:
    """Phase-mixing map for d = 3: (1/3) F^* diag(e^{i theta}) F.

    The family is an Abelian group under componentwise angle addition and
    acts on the off-diagonal spin coefficients of trace-one projections
    with a prescribed diagonal.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (3,):
        raise ValueError(f"need exactly 3 angles, got shape {theta.shape}")
    return _diag_phase_map(3, theta)


def projection_from_diagonal(
    d: int, amplitudes, theta
) -> tuple[DensityMatrix, SpinCoefficients]:
    """Rank-one projection with prescribed diagonal and phase differences.

    ``amplitudes`` are the non-negative moduli b_k with sum b_k^2 = 1, so
    the diagonal of the result is b_k^2.  ``theta`` holds the cyclic phase
    differences theta_k = phi_k - phi_{k+1}, d of them summing to 0 mod
    2*pi; at d = 2 a scalar theta stands for (theta, -theta).  When exactly one
    b_k vanishes the same theta describes a one-parameter family, which
    needs no special casing here.
    """
    if d not in (2, 3):
        raise ValueError(f"only d = 2 and d = 3 are parametrised, got {d}")
    b = np.asarray(amplitudes, dtype=float)
    if b.shape != (d,):
        raise ValueError(f"need {d} amplitudes, got shape {b.shape}")
    if not b.min() >= 0:
        raise ValueError("amplitudes must be non-negative")
    if not abs(float((b**2).sum()) - 1.0) <= 1e-9:
        raise ValueError(f"amplitudes must satisfy sum b^2 = 1, got {(b**2).sum()!r}")
    if np.ndim(theta) == 0:
        if d != 2:
            raise ValueError("a scalar phase is only meaningful for d = 2")
        theta = (theta, -theta)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (d,):
        raise ValueError(f"need {d} phase differences, got shape {theta.shape}")
    if not np.isfinite(theta).all():
        raise ValueError(f"phase differences must be finite, got {theta.tolist()!r}")
    s = float(theta.sum()) % (2.0 * math.pi)
    if not min(s, 2.0 * math.pi - s) <= 1e-9:
        raise ValueError("phase differences must sum to 0 mod 2*pi")
    phi = np.zeros(d)
    for k in range(d - 1):
        phi[k + 1] = phi[k] - theta[k]
    u = b * np.exp(1j * phi)
    rho = np.outer(u, u.conj())
    dims = DimVector((d,))
    return check_density(rho, dims), spin_table(rho, dims)
