"""Multipartite index arithmetic and composite spin bases.

Flat indices use the big-endian mixed-radix convention: for dims
(d1, ..., db) the tuple (j1, ..., jb) encodes to
j1*(d2*...*db) + j2*(d3*...*db) + ... + jb, so the first factor is the
most significant digit.  This keeps ``numpy.kron`` and the flat encoding
consistent throughout.

Permutations are image lists (sigma(1), ..., sigma(b)) applied to
subsystem slots.  Worked example on dims (2, 3) with sigma = (2, 1):
``permute_dims`` gives (3, 2); ``reorder_subsystems(A kron B)`` returns
B kron A on the swapped dims (slot i of the output holds factor
sigma(i) of the input); ``conjugate_by_permutation`` is its inverse,
carrying a matrix written on the swapped dims back to (2, 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin import spin_matrix


@dataclass(frozen=True)
class DimVector:
    """Ordered subsystem dimensions defining a tensor decomposition."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1:
            raise ValueError("need at least one subsystem")
        if any(d < 2 for d in dims):
            raise ValueError(f"every dimension must be at least 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def size(self) -> int:
        """Total dimension, the product of the factors."""
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i):
        return self.dims[i]


def strides(dims: DimVector) -> tuple[int, ...]:
    """Place value of each digit under the big-endian encoding."""
    return tuple(math.prod(dims.dims[i + 1 :]) for i in range(len(dims)))


def encode(dims: DimVector, digits) -> int:
    """Flat index of a digit tuple."""
    digits = tuple(digits)
    if len(digits) != len(dims):
        raise ValueError(f"expected {len(dims)} digits, got {len(digits)}")
    flat = 0
    for d, x in zip(dims, digits):
        if not (0 <= x < d):
            raise ValueError(f"digit {x} out of range for dimension {d}")
        flat = flat * d + x
    return flat


def decode(dims: DimVector, index: int) -> tuple[int, ...]:
    """Digit tuple of a flat index."""
    if not (0 <= index < dims.size):
        raise ValueError(f"index {index} out of range for size {dims.size}")
    out = []
    for d in reversed(dims.dims):
        index, rem = divmod(index, d)
        out.append(rem)
    return tuple(reversed(out))


def multi_add(dims: DimVector, j, k) -> tuple[int, ...]:
    """Componentwise modular sum of two digit tuples."""
    j, k = tuple(j), tuple(k)
    if len(j) != len(dims) or len(k) != len(dims):
        raise ValueError("digit tuples must match the dimension vector")
    return tuple((a + b) % d for a, b, d in zip(j, k, dims))


@lru_cache(maxsize=None)
def digit_table(dims: DimVector) -> np.ndarray:
    """Array of shape (size, b) holding the digits of every flat index."""
    out = np.indices(dims.dims, dtype=np.int64).reshape(len(dims), -1).T.copy()
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def flat_add_table(dims: DimVector) -> np.ndarray:
    """table[r, m] = flat index of decode(r) (+) decode(m), componentwise mod."""
    digits = digit_table(dims)
    n = dims.size
    table = np.zeros((n, n), dtype=np.int64)
    for i, (d, s) in enumerate(zip(dims, strides(dims))):
        col = digits[:, i]
        table += ((col[:, None] + col[None, :]) % d) * s
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
    sigma = tuple(int(s) for s in sigma)
    b = len(dims)
    if sorted(sigma) != list(range(1, b + 1)):
        raise ValueError(f"sigma must be a permutation of 1..{b}, got {sigma}")
    return sigma


def permute_dims(dims: DimVector, sigma) -> DimVector:
    """Dimension vector (d_sigma(1), ..., d_sigma(b))."""
    sigma = _check_sigma(dims, sigma)
    return DimVector(tuple(dims[s - 1] for s in sigma))


def _index_permutation(dims: DimVector, sigma) -> np.ndarray:
    """idx[s] = flat index over ``dims`` whose sigma-reordered digits encode to s."""
    axes = [s - 1 for s in _check_sigma(dims, sigma)]
    return np.arange(dims.size).reshape(dims.dims).transpose(axes).reshape(-1)


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
