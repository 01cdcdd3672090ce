"""Convex decompositions into products of subsystem densities, and their
verification against a target density.

Decompositions built from subgroup projections reuse a handful of local
factors across thousands of terms, so both assembly and verification work
on the distinct factors (compared by content, not identity) and on the
distinct factor tuples, with the weights of repeated tuples summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .composite import DimVector
from .linalg import (
    DEFAULT_TOLERANCE,
    DensityMatrix,
    InvalidDensityError,
    Tolerance,
    check_density,
)

if TYPE_CHECKING:
    from .projections import ProjectionSpec

# Assembly processes terms in chunks of max(1, CHUNK_ENTRIES // N^2), which
# keeps its scratch space well under CHUNK_ENTRIES complex numbers (4 MB).
CHUNK_ENTRIES = 2**18


@dataclass(frozen=True)
class ProductTerm:
    """One weighted product state: weight * factor_1 (x) ... (x) factor_b.

    ``factor_specs`` optionally records, per factor, which subgroup
    projection produced it (None for factors that are not subgroup
    projections, e.g. local maximally mixed states).
    """

    weight: float
    factors: tuple[np.ndarray, ...]
    factor_specs: Optional[tuple[Optional["ProjectionSpec"], ...]] = None


@dataclass(frozen=True)
class SeparableDecomposition:
    """Weighted mixture of product states over a fixed tensor decomposition."""

    dims: DimVector
    terms: tuple[ProductTerm, ...]

    def assemble(self) -> np.ndarray:
        """Sum of weight * tensor-product over all terms."""
        factors, _, rows = _factor_table(self.dims, self.terms)
        return _assemble(self.dims, factors, rows, [t.weight for t in self.terms])


class VerificationError(RuntimeError):
    """A decomposition built by this library failed its own verification."""


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _factor_table(
    dims: DimVector, terms
) -> tuple[list[np.ndarray], list[tuple[int, int]], list[tuple[int, ...]]]:
    """Distinct factors by content, the (term, slot) where each first
    appears, and every term's factors as indices into the distinct list.

    Factors are keyed on the slot dimension, shape and bytes, so equal
    matrices parsed separately from a file are recognised as one.
    """
    index: dict[tuple, int] = {}
    factors: list[np.ndarray] = []
    first: list[tuple[int, int]] = []
    rows = []
    for i, term in enumerate(terms):
        row = []
        for a, (f, d) in enumerate(zip(term.factors, dims)):
            f = np.asarray(f, dtype=complex)
            key = (d, f.shape, f.tobytes())
            k = index.get(key)
            if k is None:
                k = index[key] = len(factors)
                factors.append(f)
                first.append((i, a))
            row.append(k)
        rows.append(tuple(row))
    return factors, first, rows


def _batched_kron(blocks, weights: np.ndarray) -> np.ndarray:
    """weights[t] * blocks[0][t] (x) blocks[1][t] (x) ... for every t."""
    out = weights.astype(complex).reshape(-1, 1, 1)
    for f in blocks:
        t, m, _ = out.shape
        d = f.shape[1]
        out = (out[:, :, None, :, None] * f[:, None, :, None, :]).reshape(t, m * d, m * d)
    return out


def _assemble(dims: DimVector, factors, rows, weights) -> np.ndarray:
    """Sum of weight * (x)_a factors[row[a]], over terms merged by row.

    The subsystems split into a left and a right block.  Per chunk of
    merged terms the weighted left products and the right products are
    built batch-wise, and one tensordot over the term axis adds
    sum_t L_t (x) R_t into the result as a matrix product.
    """
    merged: dict[tuple[int, ...], float] = {}
    for row, w in zip(rows, weights):
        merged[row] = merged.get(row, 0.0) + w
    b, h = len(dims), len(dims) // 2
    n_left, n_right = math.prod(dims[:h]), math.prod(dims[h:])
    n = n_left * n_right
    if not merged:
        return np.zeros((n, n), dtype=complex)
    idx = np.array(list(merged), dtype=np.intp)
    w = np.fromiter(merged.values(), dtype=float, count=len(merged))
    tables = []
    for a in range(b):
        used, idx[:, a] = np.unique(idx[:, a], return_inverse=True)
        tables.append(np.stack([factors[k] for k in used]))
    acc = np.zeros((n_left, n_left, n_right, n_right), dtype=complex)
    chunk = max(1, CHUNK_ENTRIES // n**2)
    for s in range(0, len(w), chunk):
        part = slice(s, s + chunk)
        left = _batched_kron([tables[a][idx[part, a]] for a in range(h)], w[part])
        right = _batched_kron([tables[a][idx[part, a]] for a in range(h, b)], np.ones(len(left)))
        acc += np.tensordot(left, right, axes=(0, 0))
    return acc.transpose(0, 2, 1, 3).reshape(n, n)


def verify_decomposition(
    dec: SeparableDecomposition,
    target: DensityMatrix,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> VerificationResult:
    """Check every decomposition invariant against the target.

    Weights finite, non-negative and summing to one, every factor a valid
    local density, and the reassembled mixture matching the target
    entrywise within the reconstruction tolerance.  Each distinct factor
    is validated once, at its first appearance.  Every comparison fails on
    NaN.  A failure is named in the result.
    """
    if dec.dims != target.dims:
        raise ValueError(f"dims mismatch: {dec.dims.dims} vs {target.dims.dims}")
    for i, term in enumerate(dec.terms):
        if not math.isfinite(term.weight):
            return VerificationResult(False, f"term {i}: non-finite weight {term.weight!r}")
        if not (term.weight >= -tol.abs_eps):
            return VerificationResult(False, f"term {i}: negative weight {term.weight:.3e}")
        if len(term.factors) != len(dec.dims):
            return VerificationResult(
                False, f"term {i}: {len(term.factors)} factors for {len(dec.dims)} subsystems"
            )
    factors, first, rows = _factor_table(dec.dims, dec.terms)
    for factor, (i, a) in zip(factors, first):
        try:
            check_density(factor, DimVector((dec.dims[a],)), tol)
        except (InvalidDensityError, ValueError) as err:
            return VerificationResult(False, f"term {i}, factor {a}: {err}")
    weights = [term.weight for term in dec.terms]
    total = math.fsum(weights)
    if not (abs(total - 1.0) <= tol.abs_eps):
        return VerificationResult(False, f"weights sum to {total:.17g}, expected 1")
    defect = float(np.abs(_assemble(dec.dims, factors, rows, weights) - target.matrix).max())
    if not (defect <= tol.reconstruction_eps):
        return VerificationResult(False, f"reconstruction defect {defect:.3e}")
    return VerificationResult(True)
