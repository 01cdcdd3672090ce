"""Multipartite index arithmetic and composite spin bases.

Flat indices are numpy's C order, the one rule for them throughout: for
dims (d1, ..., db) the tuple (j1, ..., jb) is
``numpy.ravel_multi_index((j1, ..., jb), dims)`` =
j1*(d2*...*db) + j2*(d3*...*db) + ... + jb, so the first factor is the
most significant digit, as in ``numpy.kron``.

Permutations are image lists (sigma(1), ..., sigma(b)) applied to
subsystem slots.  Worked example on dims (2, 3) with sigma = (2, 1):
``permute_dims`` gives (3, 2); ``reorder_subsystems(A kron B)`` returns
B kron A on the swapped dims (slot i of the output holds factor
sigma(i) of the input); ``conjugate_by_permutation`` is its inverse,
carrying a matrix written on the swapped dims back to (2, 3).
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .spin import spin_matrix


class DimVector(tuple):
    """Ordered subsystem dimensions defining a tensor decomposition."""

    __slots__ = ()

    def __new__(cls, dims):
        dims = tuple(operator.index(d) for d in dims)
        if len(dims) < 1:
            raise ValueError("need at least one subsystem")
        if any(d < 2 for d in dims):
            raise ValueError(f"every dimension must be at least 2, got {dims}")
        return super().__new__(cls, dims)

    @property
    def size(self) -> int:
        """Total dimension, the product of the factors."""
        return math.prod(self)


def encode(dims: DimVector, digits) -> int:
    """Flat index of a digit tuple."""
    digits = tuple(map(operator.index, digits))
    if len(digits) != len(dims):
        raise ValueError(f"expected {len(dims)} digits, got {len(digits)}")
    for d, x in zip(dims, digits):
        if not (0 <= x < d):
            raise ValueError(f"digit {x} out of range for dimension {d}")
    return int(np.ravel_multi_index(digits, dims))


def decode(dims: DimVector, index: int) -> tuple[int, ...]:
    """Digit tuple of a flat index."""
    if not (0 <= operator.index(index) < dims.size):
        raise ValueError(f"index {index} out of range for size {dims.size}")
    return tuple(map(int, np.unravel_index(index, dims)))


@lru_cache(maxsize=None)
def digit_table(dims: DimVector) -> np.ndarray:
    """Array of shape (size, b) holding the digits of every flat index."""
    out = np.indices(dims, dtype=np.int64).reshape(len(dims), -1).T.copy()
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def flat_add_table(dims: DimVector) -> np.ndarray:
    """table[r, m] = flat index of decode(r) (+) decode(m), componentwise mod."""
    digits = digit_table(dims).T
    table = np.ravel_multi_index(digits[:, :, None] + digits[:, None, :], dims, mode="wrap")
    table.setflags(write=False)
    return table


def kron_all(factors) -> np.ndarray:
    """Complex tensor product of ``factors`` in order, folded from [[1]]."""
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def composite_spin(dims: DimVector, j_digits, k_digits) -> np.ndarray:
    """Composite spin matrix, the tensor product of the factor spin matrices."""
    j_digits, k_digits = tuple(j_digits), tuple(k_digits)
    if len(j_digits) != len(dims) or len(k_digits) != len(dims):
        raise ValueError("labels must have one digit per subsystem")
    return kron_all(spin_matrix(d, j, k) for d, j, k in zip(dims, j_digits, k_digits))


def _check_sigma(dims: DimVector, sigma) -> tuple[int, ...]:
    sigma = tuple(map(operator.index, sigma))
    b = len(dims)
    if sorted(sigma) != list(range(1, b + 1)):
        raise ValueError(f"sigma must be a permutation of 1..{b}, got {sigma}")
    return sigma


def permute_dims(dims: DimVector, sigma) -> DimVector:
    """Dimension vector (d_sigma(1), ..., d_sigma(b))."""
    sigma = _check_sigma(dims, sigma)
    return DimVector(dims[s - 1] for s in sigma)


def _index_permutation(dims: DimVector, sigma) -> np.ndarray:
    """idx[s] = flat index over ``dims`` whose sigma-reordered digits encode to s."""
    axes = [s - 1 for s in _check_sigma(dims, sigma)]
    return np.arange(dims.size).reshape(dims).transpose(axes).reshape(-1)


def as_square(m: np.ndarray, dims: DimVector) -> np.ndarray:
    """``m`` as a complex array, checked to be square over ``dims``."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (dims.size, dims.size):
        raise ValueError(f"matrix shape {m.shape} does not match size {dims.size}")
    return m


def permutation_matrix(dims: DimVector, sigma) -> np.ndarray:
    """0/1 matrix Q with Q(j, s) = 1 iff s encodes the sigma-reordered digits of j.

    Rows are indexed over ``dims``, columns over ``permute_dims(dims, sigma)``;
    Q is orthogonal, so its inverse is its transpose.
    """
    return np.eye(dims.size)[:, _index_permutation(dims, sigma)]


def conjugate_by_permutation(m: np.ndarray, dims: DimVector, sigma) -> np.ndarray:
    """Q m Q^-1: maps a matrix built on the sigma-reordered factors back to ``dims``.

    For product matrices this undoes a reordering of the tensor factors:
    with sigma = (2, 1) and m = B (x) A on the swapped dimensions, the
    result is A (x) B.  The entries are permuted, never combined.
    """
    m = as_square(m, dims)
    inv = np.argsort(_index_permutation(dims, sigma))
    return m[np.ix_(inv, inv)]


def reorder_subsystems(m: np.ndarray, dims: DimVector, sigma) -> np.ndarray:
    """Forward reorder: factor i of the result is factor sigma(i) of the input.

    The input lives on ``dims``; the result lives on ``permute_dims(dims, sigma)``.
    The entries are permuted, never combined.
    """
    m = as_square(m, dims)
    idx = _index_permutation(dims, sigma)
    return m[np.ix_(idx, idx)]
