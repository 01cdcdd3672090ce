"""Single-subsystem spin basis built from the finite Fourier transform.

The matrices S_{j,k} generalise the Pauli basis to d levels: apply the
d-point Fourier matrix row-wise to the cyclically adjusted matrix units.
The result is a trace-orthogonal basis of unitary, generally non-Hermitian
matrices whose algebra is governed by integer phase arithmetic.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# exp(i*pi/2 * q) for q = 0,1,2,3; emitted exactly so that d = 2 and d = 4
# results match the Pauli matrices bit for bit.
_QUARTER_TURNS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _check_dim(d: int) -> None:
    if operator.index(d) < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")


def eta(d: int, exponent: int = 1) -> complex:
    """exp(2*pi*i*exponent/d): one cos/sin of the exponent reduced modulo d,
    exact at quarter turns, never a product of repeated multiplications."""
    _check_dim(d)
    exponent = operator.index(exponent) % d
    quad, rem = divmod(4 * exponent, d)
    if rem == 0:
        return _QUARTER_TURNS[quad]
    angle = 2.0 * math.pi * exponent / d
    return complex(math.cos(angle), math.sin(angle))


def alpha(d: int, exponent: int = 1) -> complex:
    """exp(pi*i*exponent/d) = eta(2d, exponent), the half-step phase for even d."""
    _check_dim(d)
    return eta(2 * d, exponent)


class SpinLabel(NamedTuple):
    """Index pair (j, k) of a spin matrix, each in [0, d)."""

    j: int
    k: int


def _check_label(d: int, j: int, k: int) -> None:
    _check_dim(d)
    if not (0 <= operator.index(j) < d and 0 <= operator.index(k) < d):
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
    return np.roll(np.diag(fourier_table(d)[j]), k, axis=1)


def spin_power(d: int, label: SpinLabel, m: int) -> tuple[int, SpinLabel]:
    """Reduce the m-th matrix power of a spin matrix to phase * spin matrix.

    S_{j,k}^m = eta^(j*k*m*(m-1)/2) S_{mj mod d, mk mod d}.  Returns the
    eta exponent, reduced modulo d, beside the label: (0, (0, 0)) at m = 0.
    """
    j, k = label
    _check_label(d, j, k)
    if operator.index(m) < 0:
        raise ValueError(f"power must be non-negative, got {m}")
    exponent = (j * k * (m * (m - 1) // 2)) % d
    return exponent, SpinLabel((m * j) % d, (m * k) % d)


def spin_dagger(d: int, label: SpinLabel) -> tuple[int, SpinLabel]:
    """S_{j,k}^dag = eta^(jk) S_{d-j,d-k}, as the eta exponent jk mod d and the label."""
    j, k = label
    _check_label(d, j, k)
    return (j * k) % d, SpinLabel((d - j) % d, (d - k) % d)
