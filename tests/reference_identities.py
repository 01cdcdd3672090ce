"""Reference helpers: the spin-picture identities, one label at a time.

No builder, check or CLI command calls these.  The acceptance suite and
the property tests check the library's transforms against them: the
coefficient table by N^2 trace inner products, the conjugation partner of
a label, both sides of the Parseval identity, the trace pairing and the
componentwise digit sum.
"""

import numpy as np

from spinsep import (
    DimVector,
    SpinCoefficients,
    SpinLabel,
    composite_spin,
    decode,
    encode,
    eta,
    spin_dagger,
    to_spin,
)


def multi_add(dims: DimVector, j, k) -> tuple[int, ...]:
    """Componentwise modular sum of two digit tuples."""
    j, k = tuple(j), tuple(k)
    if len(j) != len(dims) or len(k) != len(dims):
        raise ValueError("digit tuples must match the dimension vector")
    return tuple((a + b) % d for a, b, d in zip(j, k, dims))


def trace_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Trace inner product Tr(a^dag b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def spin_table_by_trace(matrix: np.ndarray, dims: DimVector) -> SpinCoefficients:
    """Coefficients via N^2 trace inner products Tr(S_{j,k}^dag rho).

    Quartic-cost cross-check for the factored transform; intended for
    small dimensions.
    """
    matrix = np.asarray(matrix, dtype=complex)
    n = dims.size
    table = np.empty((n, n), dtype=complex)
    for j in range(n):
        jd = decode(dims, j)
        for k in range(n):
            kd = decode(dims, k)
            s = composite_spin(dims, jd, kd)
            table[j, k] = np.vdot(s, matrix)
    return SpinCoefficients(dims, table)


def l2_identity_check(rho) -> tuple[float, float]:
    """Both sides of the Parseval-type identity sum|s|^2 = N sum|rho|^2."""
    coeffs = to_spin(rho)
    lhs = float((np.abs(coeffs.table) ** 2).sum())
    rhs = rho.dims.size * float((np.abs(rho.matrix) ** 2).sum())
    return lhs, rhs


def conjugate_label(dims: DimVector, j: int, k: int) -> tuple[int, int, complex]:
    """Partner label of (j, k) under conjugation symmetry.

    Returns (j', k', phase) with s[j', k'] = phase * conj(s[j, k]) for the
    table of any density; the phase is the product of the factor phases
    eta_i^(j_i * k_i).
    """
    jd = decode(dims, j)
    kd = decode(dims, k)
    phase = 1.0 + 0.0j
    cj, ck = [], []
    for d, ji, ki in zip(dims, jd, kd):
        ph, lab = spin_dagger(d, SpinLabel(ji, ki))
        phase *= eta(d, ph)
        cj.append(lab.j)
        ck.append(lab.k)
    return encode(dims, cj), encode(dims, ck), phase
