"""Bidirectional transforms between the computational and spin pictures.

For a density on dims (d1, ..., db) the coefficient table s satisfies
rho = (1/N) sum_{j,k} s[j,k] S_{j,k} with N the total dimension, and is
obtained from the reindexed entries a[j,k] = rho[j, j (+) k] by the
conjugated factored Fourier transform s = F^* a (applied to the row
index, one factor at a time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composite import DimVector, as_square, flat_add_table
from .linalg import DensityMatrix
from .spin import fourier_table


@dataclass(frozen=True)
class SpinCoefficients:
    """Dense table of spin coefficients, indexed by flat labels (j, k)."""

    dims: DimVector
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", DimVector(self.dims))
        object.__setattr__(self, "table", as_square(self.table, self.dims))


def _apply_factored(mats, table: np.ndarray, dims: DimVector) -> np.ndarray:
    """Apply (x)_i mats[i] to the row index of an (N, M) table, factor by factor."""
    n = dims.size
    x = table.reshape(dims + (-1,))
    for axis, f in enumerate(mats):
        x = np.moveaxis(np.tensordot(f, x, axes=(1, axis)), 0, axis)
    return x.reshape(n, -1)


# Entries near the float range overflow to inf and nan, which the writers
# refuse; numpy's overflow warnings would only repeat that on stderr.
@np.errstate(over="ignore", invalid="ignore")
def spin_table(matrix: np.ndarray, dims: DimVector) -> SpinCoefficients:
    """Spin coefficients of an arbitrary matrix (no density validation)."""
    a = as_square(matrix, dims)[np.arange(dims.size)[:, None], flat_add_table(dims)]
    mats = [fourier_table(d).conj() for d in dims]
    return SpinCoefficients(dims, _apply_factored(mats, a, dims))


def to_spin(rho: DensityMatrix) -> SpinCoefficients:
    """Spin coefficients of a density matrix; s[0,0] = 1."""
    return spin_table(rho.matrix, rho.dims)


@np.errstate(over="ignore", invalid="ignore")
def from_spin(coeffs: SpinCoefficients) -> np.ndarray:
    """Reassemble the matrix (1/N) sum s[j,k] S_{j,k} from its table."""
    dims = coeffs.dims
    n = dims.size
    mats = [fourier_table(d) for d in dims]
    a = _apply_factored(mats, coeffs.table, dims) / n
    add = flat_add_table(dims)
    out = np.zeros((n, n), dtype=complex)
    out[np.arange(n)[:, None], add] = a
    return out


def spin_l1_norm(coeffs: SpinCoefficients) -> float:
    """Sum of coefficient moduli over every label except (0, 0)."""
    total = float(np.abs(coeffs.table).sum())
    return total - float(abs(coeffs.table[0, 0]))
