"""Reference oracles: the original one-matrix density check, which decides
positivity from the lowest eigenvalue that ``eigvalsh`` returns and never
factorises.  ``check_density`` must match it byte for byte: the same
return or exception type, message and worst value.  And the Werner matrix
as ``werner_density`` built it when ``check_density`` validated it."""

import math

import numpy as np

from spinsep import (
    DEFAULT_TOLERANCE,
    DensityMatrix,
    InvalidDensityError,
    NegativeEigenvalueError,
    NotHermitianError,
    TraceError,
    check_density,
    encode,
)


def reference_check_density(m, dims, tol=DEFAULT_TOLERANCE):
    """The original one-matrix density check, invariant by invariant."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            lo = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
        except np.linalg.LinAlgError:
            lo = math.nan
        if not math.isfinite(lo):
            big = float(np.abs(m).max())
            raise InvalidDensityError(
                f"eigenvalue solve failed; largest entry magnitude is {big:.3e}", big
            )
    if lo < -tol.abs_eps:
        raise NegativeEigenvalueError(f"negative eigenvalue {lo:.3e}", lo)
    return rho


def outcome(check, m, dims, tol=DEFAULT_TOLERANCE):
    """None when ``check`` returns, else its exception's type, message and
    worst value."""
    try:
        check(m, dims, tol)
    except (InvalidDensityError, ValueError) as err:
        return type(err), str(err), repr(getattr(err, "worst", None))
    return None


def reference_werner_density(spec):
    """W(s) built as ``werner_density`` builds it, then passed through ``check_density``."""
    dims = spec.dims
    n = dims.size
    psi = np.zeros(n)
    for k in range(spec.d):
        psi[encode(dims, (k,) * spec.n)] = 1.0
    psi /= math.sqrt(spec.d)
    m = (1.0 - spec.s) / n * np.eye(n, dtype=complex) + spec.s * np.outer(psi, psi)
    return check_density(m, dims)
