"""Dense complex-matrix substrate: tolerances, density validation (a stacked
eigvalsh screen, after a Cholesky factorisation of H + tau I for one matrix,
tau = abs_eps - 2n(n+1)u (2 nu + abs_eps)), partial transpose, random densities."""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .composite import DimVector, as_square


@dataclass(frozen=True)
class Tolerance:
    """Absolute comparison tolerances used across the library.

    All matrices handled here have entries of magnitude at most one, so a
    single absolute scale is adequate.  ``abs_eps`` is the one setting; the
    reconstruction bound of a decomposition is derived as 10 * abs_eps, for
    the CLI's ``--tol`` and for library callers alike.
    """

    abs_eps: float = 1e-9
    reconstruction_eps: float = field(init=False)

    def __post_init__(self):
        if not (0 < self.abs_eps < math.inf):
            raise ValueError("tolerances must be finite and strictly positive")
        object.__setattr__(self, "reconstruction_eps", 10 * self.abs_eps)


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
    """A complex matrix square over its tensor decomposition, with finite
    entries; ``check_density`` is what validates it as a density."""

    matrix: np.ndarray
    dims: DimVector

    def __post_init__(self):
        m = as_square(self.matrix, self.dims)
        if not np.isfinite(m).all():
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise InvalidDensityError(
                f"non-finite entry {m[i, j]} at ({i}, {j})", float(abs(m[i, j]))
            )
        object.__setattr__(self, "matrix", m)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of (m + m^dag)/2, for a matrix or each of a stack.

    Symmetrising first keeps the solve robust to 1e-12-scale asymmetry
    from accumulated rounding.
    """
    m = np.asarray(m, dtype=complex)
    return np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2.0)


def density_screen(stack: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE):
    """Per matrix of a (K, d, d) array, (K,) arrays ``ok, asym, trace, lo``:
    the worst |m - m^dag| entry, NaN or infinite for a matrix with a NaN or
    infinite entry, the trace, and the lowest eigenvalue of (m + m^dag)/2,
    solved at once for the matrices Hermitian and of trace one within tol.
    lo is NaN for the rest, where the solve fails, and for all on a
    LinAlgError.  ok is lo >= -tol.abs_eps.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        asym = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
        trace = stack.trace(axis1=1, axis2=2)
        solve = (asym <= tol.abs_eps) & (abs(trace - 1.0) <= tol.abs_eps)
        lo = np.full(len(stack), np.nan)
        with suppress(np.linalg.LinAlgError):
            lo[solve] = hermitian_eigenvalues(stack[solve])[:, 0]
    return lo >= -tol.abs_eps, asym, trace, lo


def check_density(
    m: np.ndarray, dims: DimVector, tol: Tolerance = DEFAULT_TOLERANCE
) -> DensityMatrix:
    """Validate a matrix as a density and return it wrapped with its dims.

    Its verdict is ``density_screen`` on a stack of one: the lowest eigenvalue
    lo of H = (m + m^dag)/2 passes at -abs_eps.  A matrix that passes the
    Hermitian and trace gates returns at once if 2(H + tau I) factorises
    (doubling is exact), since then lo >= -abs_eps.  With c = 2n(n+1)u,
    nu = 1.5 n max(|Re m_ij|, |Im m_ij|) >= n max|h_ij| >= ||H||_2 and
    tau = abs_eps - c (2 nu + abs_eps), the rounded shift and the
    factorisation's backward error (Higham, Accuracy and Stability of
    Numerical Algorithms, 10.1) total at most c (nu + tau), and lo errs by
    at most c nu, generously.  The trace gate makes nu >= ~1.5, so tau > 0
    keeps n(n+1)u < ~abs_eps / 6: these first-order bounds hold.  Else the
    spectrum decides.  A violation raises NotHermitianError, TraceError,
    NegativeEigenvalueError, or, for a NaN or infinite entry or a failed
    solve, InvalidDensityError, each carrying the worst offending value.
    """
    rho = DensityMatrix(np.array(m, dtype=complex), dims)
    m, eps, n = rho.matrix, tol.abs_eps, len(rho.matrix)
    parts, mh = m.view(float), np.conj(m.T, order="C")
    tau = eps - n * (n + 1) * math.ulp(1.0) * (3 * n * float(max(parts.max(), -parts.min())) + eps)
    if tau > 0 and np.abs(m - mh).max() <= eps and abs(m.trace() - 1.0) <= eps:
        twice = np.add(m, mh, out=mh)  # 2H: H halves it exactly, but for subnormals
        twice.flat[:: n + 1] += 2 * tau
        with suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(twice.T)  # conj(twice), same spectrum, read in column order
            return rho
    ok, asym, tr, lo = (x.item() for x in density_screen(m[None], tol))
    if ok:
        return rho
    if not asym <= eps:
        raise NotHermitianError(f"not Hermitian: worst |m - m^dag| entry is {asym:.3e}", asym)
    if not abs(tr - 1.0) <= eps:
        raise TraceError(f"trace is {tr:.17g}, expected 1", abs(tr - 1.0))
    if not math.isfinite(lo):
        big = float(np.abs(m).max())
        message = f"eigenvalue solve failed; largest entry magnitude is {big:.3e}"
        raise InvalidDensityError(message, big)
    raise NegativeEigenvalueError(f"negative eigenvalue {lo:.3e}", lo)


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose the indices of one subsystem (1-based index)."""
    b = len(rho.dims)
    if not (1 <= subsystem <= b):
        raise ValueError(f"subsystem must be in 1..{b}, got {subsystem}")
    t = rho.matrix.reshape(rho.dims * 2)
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
