"""Generalised Werner family on n d-level systems: construction, closed-form
spin coefficients, the exact full-separability threshold for prime d, and
the explicit decomposition attaining it."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .composite import DimVector, digit_table, encode
from .decompositions import SeparableDecomposition
from .linalg import DensityMatrix, check_density
from .projections import ProjectionSpec, subgroup_projection
from .separability import NORM_SLACK, WEIGHT_FLOOR
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
        if operator.index(self.d) < 2:
            raise ValueError(f"need d >= 2, got {self.d}")
        if operator.index(self.n) < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not (0.0 <= self.s <= 1.0):
            raise ValueError(f"mixing parameter must lie in [0, 1], got {self.s}")

    @property
    def dims(self) -> DimVector:
        return DimVector((self.d,) * self.n)


PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981  # psi_13 (Sorenson and Webster)


def is_prime(n: int) -> bool:
    """Miller-Rabin on PRIME_BASES, exact below PRIME_LIMIT.  At or above it a
    base that witnesses compositeness still decides; otherwise ValueError."""
    n = operator.index(n)
    if n < 42:
        return n in PRIME_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^r d with d odd
    for b in PRIME_BASES:
        x = pow(b, (n - 1) >> r, n)  # b is a witness unless x is 1 or squares to n - 1
        if x != 1 and n - 1 not in [x] + [x := x * x % n for _ in range(r - 1)]:
            return False
    if n >= PRIME_LIMIT:
        raise ValueError(f"cannot tell if {n} is prime: the test is exact only below {PRIME_LIMIT}")
    return True


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
    dims = spec.dims
    n = dims.size
    table = np.zeros((n, n), dtype=complex)
    rows = [encode(dims, j) for j in ind_set(spec.d, spec.n)]
    cols = [encode(dims, (k,) * spec.n) for k in range(spec.d)]
    table[np.ix_(rows, cols)] = spec.s
    table[0, 0] = 1.0
    return SpinCoefficients(dims, table)


def werner_bound(p: int, n: int) -> float:
    """1/(1 + p^(n-1)): the threshold for prime p, a necessary-condition
    bound otherwise.  ValueError when p^(n-1) overflows a double; the lower
    bound 2^((p.bit_length() - 1)(n - 1)) finds most cases before the power.
    TypeError if p or n is not an integer; numpy integers are converted, an int p used as is."""
    n, p = operator.index(n), p if isinstance(p, int) else operator.index(p)
    try:
        if (p.bit_length() - 1) * (n - 1) >= 1024:
            raise OverflowError
        return 1.0 / (1.0 + p ** (n - 1))
    except OverflowError:
        raise ValueError(
            f"--p {p} --n {n}: p^(n-1) overflows a double, so 1/(1 + p^(n-1)) cannot be computed"
        ) from None


def werner_threshold(p: int, n: int) -> float:
    """Exact full-separability threshold 1/(1 + p^(n-1)) for prime p."""
    _require_prime(p)
    bound = werner_bound(p, n)  # first, so a float n is refused by its type
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return bound


@lru_cache(maxsize=None)
def _werner_factors(p: int) -> np.ndarray:
    specs = [ProjectionSpec(p, SpinLabel(1, 0), (-j) % p) for j in range(p)]
    specs += [ProjectionSpec(p, SpinLabel(j, 1), o) for j in range(p) for o in range(p)]
    factors = np.array([subgroup_projection(sp) for sp in specs] + [np.eye(p) / p])
    factors.flags.writeable = False
    return factors


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
    if not s >= 0.0:
        raise ValueError(f"no decomposition for s = {s}: the mixing parameter must be non-negative")
    if not s <= s_star + NORM_SLACK:
        raise ValueError(f"no decomposition for s = {s} above the threshold {s_star}")
    mu = min(s / s_star, 1.0)
    dims = DimVector((p,) * n)

    # Block j, a zero-digit-sum row, is the cyclic family with factors
    # P_{(j_a, 1)}(r_a + l_a) over the same rows l.  For p = 2 the odd j_a
    # pair up, and one unit offset per pair on the first factor cancels the
    # product of the half-step corrections; odd p needs no correction.
    rows = np.array(ind_set(p, n))
    r = np.zeros_like(rows)
    if p == 2:
        r[:, 0] = rows.sum(axis=1) // 2 % 2
    # Every slot is offered one read-only table per p and keeps the entries in use:
    # the diagonal projections, P_{(j, 1)}(o) at p + j*p + o for o < p, and I/p.
    blocks = (p + rows[:, None] * p + (r[:, None] + rows[None]) % p).reshape(-1, n)
    residual = int(1.0 - mu > WEIGHT_FLOOR)
    block = mu / (1 + p ** (n - 1)) * (1.0 / p ** (n - 1))
    weights = [mu / (p * (1 + p ** (n - 1)))] * p + [block] * len(blocks) + [1.0 - mu] * residual
    diagonal = np.repeat(np.arange(p)[:, None], n, axis=1)
    index = np.vstack([diagonal, blocks, np.full((residual, n), p + p * p)])
    return SeparableDecomposition(dims, weights, index, [_werner_factors(p)] * n)
