"""Reference oracle: the original per-term decomposition verifier.

It validates every factor of every term and rebuilds each term with a
Kronecker loop, with no deduplication and no batching.  The property tests
compare the library's verifier against it.  It keeps the original's
comparisons, so it does not reject NaN; feed it finite inputs only.
"""

import numpy as np

from spinsep import DimVector, InvalidDensityError, VerificationResult, check_density


def reference_product(term) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for f in term.factors:
        out = np.kron(out, f)
    return out


def reference_assemble(dec) -> np.ndarray:
    n = dec.dims.size
    out = np.zeros((n, n), dtype=complex)
    for term in dec.terms:
        out += term.weight * reference_product(term)
    return out


def reference_verify(dec, target, tol) -> VerificationResult:
    if dec.dims != target.dims:
        raise ValueError(f"dims mismatch: {dec.dims.dims} vs {target.dims.dims}")
    total = 0.0
    for i, term in enumerate(dec.terms):
        if term.weight < -tol.abs_eps:
            return VerificationResult(False, f"term {i}: negative weight {term.weight:.3e}")
        total += term.weight
        if len(term.factors) != len(dec.dims):
            return VerificationResult(
                False, f"term {i}: {len(term.factors)} factors for {len(dec.dims)} subsystems"
            )
        for a, (factor, d) in enumerate(zip(term.factors, dec.dims)):
            try:
                check_density(factor, DimVector((d,)), tol)
            except (InvalidDensityError, ValueError) as err:
                return VerificationResult(False, f"term {i}, factor {a}: {err}")
    if abs(total - 1.0) > tol.abs_eps:
        return VerificationResult(False, f"weights sum to {total:.12g}, expected 1")
    defect = float(np.abs(reference_assemble(dec) - target.matrix).max())
    if defect > tol.reconstruction_eps:
        return VerificationResult(False, f"reconstruction defect {defect:.3e}")
    return VerificationResult(True)
