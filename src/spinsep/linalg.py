"""Dense complex-matrix substrate: tensor products, trace pairing,
density-matrix validation, and the partial transpose."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composite import DimVector


@dataclass(frozen=True)
class Tolerance:
    """Absolute comparison tolerances used across the library.

    All matrices handled here have entries of magnitude at most one, so a
    single absolute scale is adequate.
    """

    abs_eps: float = 1e-9
    reconstruction_eps: float = 1e-8

    def __post_init__(self):
        if self.abs_eps <= 0 or self.reconstruction_eps <= 0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOLERANCE = Tolerance()


class InvalidDensityError(ValueError):
    """A matrix failed one of the density-matrix invariants."""

    def __init__(self, message: str, worst: float):
        super().__init__(message)
        self.worst = worst


class NotHermitianError(InvalidDensityError):
    pass


class TraceError(InvalidDensityError):
    pass


class NegativeEigenvalueError(InvalidDensityError):
    pass


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix together with its tensor decomposition."""

    matrix: np.ndarray
    dims: DimVector

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] != self.dims.size:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match dims product {self.dims.size}"
            )
        bad = np.argwhere(~np.isfinite(m))
        if len(bad):
            i, j = bad[0]
            raise InvalidDensityError(
                f"non-finite entry {m[i, j]} at ({i}, {j})", float(abs(m[i, j]))
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product under the big-endian index encoding."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def trace_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Trace inner product Tr(a^dag b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetrised matrix (m + m^dag)/2.

    Symmetrising first keeps the solve robust to 1e-12-scale asymmetry
    from accumulated rounding.
    """
    m = np.asarray(m, dtype=complex)
    return np.linalg.eigvalsh((m + m.conj().T) / 2.0)


def check_density(
    m: np.ndarray, dims: DimVector, tol: Tolerance = DEFAULT_TOLERANCE
) -> DensityMatrix:
    """Validate a matrix as a density and return it wrapped with its dims.

    Raises a distinct error per violated invariant, carrying the worst
    offending value: NotHermitianError, TraceError, NegativeEigenvalueError,
    and InvalidDensityError itself for a NaN or infinite entry.
    """
    rho = DensityMatrix(np.array(m, dtype=complex), dims)
    m = rho.matrix
    asym = np.abs(m - m.conj().T).max()
    if asym > tol.abs_eps:
        raise NotHermitianError(
            f"not Hermitian: worst |m - m^dag| entry is {asym:.3e}", float(asym)
        )
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > tol.abs_eps:
        raise TraceError(f"trace is {tr:.17g}, expected 1", abs(tr - 1.0))
    lo = float(hermitian_eigenvalues(m)[0])
    if lo < -tol.abs_eps:
        raise NegativeEigenvalueError(f"negative eigenvalue {lo:.3e}", lo)
    return rho


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose the indices of one subsystem (1-based index)."""
    b = len(rho.dims)
    if not (1 <= subsystem <= b):
        raise ValueError(f"subsystem must be in 1..{b}, got {subsystem}")
    shape = tuple(rho.dims) + tuple(rho.dims)
    t = rho.matrix.reshape(shape)
    ax = subsystem - 1
    t = np.swapaxes(t, ax, b + ax)
    n = rho.dims.size
    return t.reshape(n, n)


def random_density(dims: DimVector, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random density G G^dag / Tr(G G^dag), G complex Gaussian."""
    n = dims.size
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)
