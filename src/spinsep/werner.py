"""Generalised Werner family on n d-level systems: construction, closed-form
spin coefficients, the exact full-separability threshold for prime d, and
the explicit decomposition attaining it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .composite import DimVector, digit_table, encode
from .decompositions import ProductTerm, SeparableDecomposition
from .linalg import DensityMatrix, check_density
from .projections import ProjectionSpec, cyclic_family_decomposition, is_prime, subgroup_projection
# Not called here: perfbench/layers.py wraps this name for its traced run.
from .projections import cyclic_family_density  # noqa: F401
from .spin import SpinLabel
from .transform import SpinCoefficients


@dataclass(frozen=True)
class WernerSpec:
    """Mixture of the maximally mixed state with the diagonal GHZ projection.

    W(s) = (1-s)/d^n I + s |psi><psi| on n copies of a d-level system,
    with psi the uniform superposition of the repeated-index kets.
    """

    d: int
    n: int
    s: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"need d >= 2, got {self.d}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not (0.0 <= self.s <= 1.0):
            raise ValueError(f"mixing parameter must lie in [0, 1], got {self.s}")

    @property
    def dims(self) -> DimVector:
        return DimVector((self.d,) * self.n)


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"threshold and decomposition need a prime dimension, got {p}")


def werner_density(spec: WernerSpec) -> DensityMatrix:
    """The Werner matrix itself; defined for any d >= 2."""
    dims = spec.dims
    n = dims.size
    psi = np.zeros(n)
    for k in range(spec.d):
        psi[encode(dims, (k,) * spec.n)] = 1.0
    psi /= math.sqrt(spec.d)
    m = (1.0 - spec.s) / n * np.eye(n, dtype=complex) + spec.s * np.outer(psi, psi)
    return check_density(m, dims)


def ind_set(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All digit tuples over n p-ary digits summing to 0 mod p; p^(n-1) of them."""
    _require_prime(p)
    digits = digit_table(DimVector((p,) * n))
    return tuple(tuple(row) for row in digits[digits.sum(axis=1) % p == 0].tolist())


def werner_spin_coeffs(spec: WernerSpec) -> SpinCoefficients:
    """Closed-form spin table: s at (j, repeated k) for j with zero digit sum.

    The identity label carries 1; every other label with j in the zero-sum
    set and a repeated column index carries s; everything else vanishes.
    """
    _require_prime(spec.d)
    dims = spec.dims
    n = dims.size
    table = np.zeros((n, n), dtype=complex)
    rows = [encode(dims, j) for j in ind_set(spec.d, spec.n)]
    cols = [encode(dims, (k,) * spec.n) for k in range(spec.d)]
    table[np.ix_(rows, cols)] = spec.s
    table[0, 0] = 1.0
    return SpinCoefficients(dims, table)


def werner_threshold(p: int, n: int) -> float:
    """Exact full-separability threshold 1/(1 + p^(n-1)) for prime p."""
    _require_prime(p)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 1.0 / (1.0 + p ** (n - 1))


def _block_offsets(p: int, j_digits: tuple[int, ...]) -> tuple[int, ...]:
    """Phase offsets making the cyclic-family density match the Werner block.

    The product of the half-step corrections over the factors must cancel:
    for p = 2 the generators (j_i, 1) with j_i odd come in pairs (the digit
    sum is even), and one unit offset per pair flips the sign back.  Odd p
    needs no correction.
    """
    if p != 2:
        return (0,) * len(j_digits)
    pairs = sum(j_digits) // 2
    return (pairs % 2,) + (0,) * (len(j_digits) - 1)


def werner_separable_decomposition(
    p: int, n: int, s: float | None = None
) -> SeparableDecomposition:
    """Explicit separable decomposition of W(s) for prime p and s <= threshold.

    At the threshold the mixture splits into the uniform diagonal
    repeated-index part (products of diagonal projections) and one cyclic
    family per zero-digit-sum index; below it the threshold decomposition
    is mixed convexly with the maximally mixed state.
    """
    s_star = werner_threshold(p, n)
    if s is None:
        s = s_star
    if not (0.0 <= s <= s_star + 1e-12):
        raise ValueError(f"no decomposition for s = {s} above the threshold {s_star}")
    mu = min(s / s_star, 1.0)
    dims = DimVector((p,) * n)

    terms: list[ProductTerm] = []
    diag_weight = mu / (p * (1 + p ** (n - 1)))
    for j in range(p):
        specs = tuple(ProjectionSpec(p, SpinLabel(1, 0), (-j) % p) for _ in range(n))
        factors = tuple(subgroup_projection(sp) for sp in specs)
        terms.append(ProductTerm(diag_weight, factors, specs))

    block_weight = mu / (1 + p ** (n - 1))
    for j_digits in ind_set(p, n):
        u_vec = tuple(SpinLabel(ji, 1) for ji in j_digits)
        r_vec = _block_offsets(p, j_digits)
        for term in cyclic_family_decomposition(p, n, u_vec, r_vec).terms:
            terms.append(
                ProductTerm(block_weight * term.weight, term.factors, term.factor_specs)
            )

    if 1.0 - mu > 1e-15:
        terms.append(
            ProductTerm(
                1.0 - mu,
                tuple(np.eye(p, dtype=complex) / p for _ in range(n)),
                None,
            )
        )
    return SeparableDecomposition(dims, tuple(terms))
