"""Single-subsystem spin basis built from the finite Fourier transform.

The matrices S_{j,k} generalise the Pauli basis to d levels: apply the
d-point Fourier matrix row-wise to the cyclically adjusted matrix units.
The result is a trace-orthogonal basis of unitary, generally non-Hermitian
matrices whose algebra is governed by integer phase arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# exp(i*pi/2 * q) for q = 0,1,2,3; emitted exactly so that d = 2 and d = 4
# results match the Pauli matrices bit for bit.
_QUARTER_TURNS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


@dataclass(frozen=True)
class RootOfUnity:
    """An integer power of eta = exp(2*pi*i/d).

    With ``half_step`` set the lattice is refined to powers of
    alpha = exp(pi*i/d), the extra phase needed by even-d projections.
    The exponent is stored reduced modulo the period (d, or 2d with the
    half-step flag) and the complex value comes from a single cos/sin
    evaluation, never from repeated multiplication.
    """

    d: int
    exponent: int
    half_step: bool = False

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"root of unity needs d >= 2, got {self.d}")
        object.__setattr__(self, "exponent", self.exponent % self.period)

    @property
    def period(self) -> int:
        return 2 * self.d if self.half_step else self.d

    def value(self) -> complex:
        quad, rem = divmod(4 * self.exponent, self.period)
        if rem == 0:
            return _QUARTER_TURNS[quad % 4]
        angle = 2.0 * math.pi * self.exponent / self.period
        return complex(math.cos(angle), math.sin(angle))


def eta(d: int, exponent: int = 1) -> complex:
    """exp(2*pi*i*exponent/d) as a complex number."""
    return RootOfUnity(d, exponent).value()


def alpha(d: int, exponent: int = 1) -> complex:
    """exp(pi*i*exponent/d), the half-step phase for even d."""
    return RootOfUnity(d, exponent, half_step=True).value()


class SpinLabel(NamedTuple):
    """Index pair (j, k) of a spin matrix, each in [0, d)."""

    j: int
    k: int


def _check_dim(d: int) -> None:
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")


def _check_label(d: int, j: int, k: int) -> None:
    _check_dim(d)
    if not (0 <= j < d and 0 <= k < d):
        raise ValueError(f"label ({j},{k}) out of range for d={d}")


@lru_cache(maxsize=None)
def fourier_table(d: int) -> np.ndarray:
    """Read-only unnormalised Fourier matrix F(j,k) = eta^(j*k), built once per d."""
    _check_dim(d)
    out = np.empty((d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            out[j, k] = eta(d, (j * k) % d)
    out.setflags(write=False)
    return out


def fourier_matrix(d: int) -> np.ndarray:
    """Unnormalised Fourier matrix F(j,k) = eta^(j*k); F F^dag = d*I."""
    return fourier_table(d).copy()


def computational_basis(d: int, j: int, k: int) -> np.ndarray:
    """Matrix unit E_{j,k}: a single 1 at row j, column k."""
    _check_label(d, j, k)
    out = np.zeros((d, d), dtype=complex)
    out[j, k] = 1.0
    return out


def adjusted_basis(d: int, j: int, k: int) -> np.ndarray:
    """Cyclically adjusted unit A_{j,k} = E_{j,(j+k) mod d}."""
    _check_label(d, j, k)
    return computational_basis(d, j, (j + k) % d)


def spin_matrix(d: int, j: int, k: int) -> np.ndarray:
    """Spin matrix S_{j,k} = sum_r F(j,r) A_{r,k}.

    Entry eta^(j*r) sits at (r, (r+k) mod d); S_{0,1} is the cyclic shift
    and S_{1,0} the clock matrix diag(1, eta, ..., eta^(d-1)).
    """
    _check_label(d, j, k)
    out = np.zeros((d, d), dtype=complex)
    for r in range(d):
        out[r, (r + k) % d] = eta(d, (j * r) % d)
    return out


def spin_power(d: int, label: SpinLabel, m: int) -> tuple[RootOfUnity, SpinLabel]:
    """Reduce the m-th matrix power of a spin matrix to phase * spin matrix.

    S_{j,k}^m = eta^(j*k*m*(m-1)/2) S_{mj mod d, mk mod d} for m >= 1;
    m = 0 returns (1, S_{0,0}).
    """
    j, k = label
    _check_label(d, j, k)
    if m < 0:
        raise ValueError(f"power must be non-negative, got {m}")
    if m == 0:
        return RootOfUnity(d, 0), SpinLabel(0, 0)
    exponent = (j * k * (m * (m - 1) // 2)) % d
    return RootOfUnity(d, exponent), SpinLabel((m * j) % d, (m * k) % d)


def spin_dagger(d: int, label: SpinLabel) -> tuple[RootOfUnity, SpinLabel]:
    """Conjugate transpose as phase * spin matrix: S_{j,k}^dag = eta^(jk) S_{d-j,d-k}."""
    j, k = label
    _check_label(d, j, k)
    return RootOfUnity(d, (j * k) % d), SpinLabel((d - j) % d, (d - k) % d)
