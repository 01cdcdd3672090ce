"""Convex decompositions into products of subsystem densities, and their
verification against a target density.

Decompositions built from subgroup projections reuse a handful of local
factors across thousands of terms, so a decomposition is held by columns:

- ``weights``, shape (T,): the weight of each term;
- ``index``, shape (T, b): the entry of each slot that each term uses;
- ``factors[a]``, a (K_a, d_a, d_a) complex stack: the entries of slot a
  that its terms use.

Builders pass the columns to ``SeparableDecomposition(dims, weights, index, factors)``,
the only constructor, which refuses a misshapen factor or column and an index entry
outside its slot's stack.  Equal slots (by shape and bytes) share one read-only stack.
``assemble`` sorts the rows by one packed int64 key each.  Verification screens each
distinct stack at once, and checks one at a time only the factors it rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .composite import DimVector
from .linalg import (
    DEFAULT_TOLERANCE,
    DensityMatrix,
    InvalidDensityError,
    Tolerance,
    check_density,
    density_screen,
)


@dataclass(frozen=True)
class ProductTerm:
    """One weighted product state: weight * factor_1 (x) ... (x) factor_b."""

    weight: float
    factors: tuple[np.ndarray, ...]


class SeparableDecomposition:
    """Weighted mixture of product states over a fixed tensor decomposition,
    held by columns (see the module docstring)."""

    dims: DimVector
    weights: np.ndarray
    index: np.ndarray
    factors: tuple[np.ndarray, ...]

    def __init__(self, dims: DimVector, weights, index, factors):
        """From the columns; each slot keeps the entries that some term uses, in
        their order, as one read-only (K_a, d_a, d_a) complex stack, shared by equal
        slots.  ValueError if dims fails DimVector's checks, a column has not len(dims)
        slots, a non-empty index has no integer dtype, weights are not 1-D with one per
        index row, an entry of slot a is outside 0..K_a - 1, or a factor is not d_a x
        d_a, by shape for a stack."""
        self.dims = dims = DimVector(dims)
        self.weights, index = np.asarray(weights, dtype=float), np.asarray(index)
        for name, n in (("index", np.shape(index)[-1]), ("factors", len(factors))):
            if n != len(dims):
                raise ValueError(f"{name} has {n} slot{'s' * (n != 1)}, dims has {len(dims)}")
        if (w := self.weights).ndim != 1 or index.size != w.size * len(dims):
            raise ValueError(f"weights {w.shape}: need one per row of index {index.shape}")
        if index.size and index.dtype.kind not in "iu":
            raise ValueError(f"slot 0: index entries are {index.dtype}, not integers")
        index = index.reshape(len(self.weights), len(dims))
        self.index, self.factors, shared = index.astype(np.intp, order="C"), (), {}
        # Each slot's range is read from the given column: no copy, no wrap.
        for a, (d, given, f) in enumerate(zip(dims, index.T, factors)):
            stacked = isinstance(f, np.ndarray) and f.ndim == 3
            if not ({f.shape[1:]} if stacked else set(map(np.shape, f))) <= {(d, d)}:
                raise ValueError(f"slot {a}: a factor is not {d} x {d}")
            for v in (given.min(), given.max()) if len(given) else ():
                if not 0 <= v < len(f):
                    raise ValueError(f"slot {a}: index entry {v} is outside 0..{len(f) - 1}")
            used = np.bincount(self.index[:, a], minlength=len(f)) > 0
            self.index[:, a] = (np.cumsum(used) - 1)[self.index[:, a]]
            stack = np.asarray(f, dtype=complex).reshape(-1, d, d)[used]
            stack.flags.writeable = False
            self.factors += (shared.setdefault((stack.shape, stack.tobytes()), stack),)

    @cached_property
    def terms(self) -> tuple[ProductTerm, ...]:
        """The terms as ProductTerms, built on first use from the columns."""
        cols = self.index.T.tolist()
        factors = zip(*[[slot[k] for k in col] for slot, col in zip(self.factors, cols)])
        return tuple(map(ProductTerm, self.weights.tolist(), factors))

    def assemble(self) -> np.ndarray:
        """Sum of weights[t] * (x)_a factors[a][index[t, a]] over all terms.

        Rows are sorted by one key each, their C-order rank over the K_a, an int64 while
        prod K_a < 2^63: a stable argsort of it is lexsort's order, and rows in order skip
        it.  Larger products are lexsorted.  Sorted index rows sharing their first a entries
        form a run at depth a; a run at depth b has its summed weights as value.  For a = b - 1
        down to h, the values of a run's sub-runs, which differ in slot a, go to a zero (runs,
        value size, K_a) block at (run, :, slot-a entry), whose product, as K_a columns, with
        slot a's (K_a, d_a^2) stack appends its axes.  A depth with fewer sub-runs than runs *
        K_a / d_a^2 instead multiplies each sub-run's value by its own factor and sums per run.
        One matrix product meets the values at depth h with each run's product of its first h
        factors.  h minimises the entries held at once, counted from the runs: it is 0 unless
        the runs stay many toward depth 0, as when terms do not share factors.
        """
        dims, b, n = self.dims, len(self.dims), self.dims.size
        if not len(self.weights):
            return np.zeros((n, n), dtype=complex)
        tables = [f.reshape(len(f), -1) for f in self.factors]
        if math.prod(shape := [len(f) for f in self.factors]) < 2**63:
            key = np.ravel_multi_index(self.index.T, shape)
            order = slice(None) if (key[1:] >= key[:-1]).all() else np.argsort(key, kind="stable")
            del key  # 8 bytes a term that nothing reads once sorted
        else:
            order = np.lexsort(self.index.T[::-1])
        idx = self.index[order]
        # new[t, a]: row t is the first of a run of equal idx[:, :a]
        new = np.ones((len(idx), b + 1), dtype=bool)
        new[1:, 0] = False
        new[1:, 1:] = np.logical_or.accumulate(idx[1:] != idx[:-1], axis=1)
        # Meeting at depth a holds the largest value on the way down to a, then
        # a's values, its runs' products of their first a factors, and the output.
        count, before = np.count_nonzero(new, axis=0), np.cumprod([1.0] + [d * d for d in dims])
        held, prefix = count * before[-1] / before, count * before
        below = np.maximum.accumulate(held[::-1])[::-1]
        h = int(np.argmin(np.maximum(below, prefix + held + n * n)))
        starts = np.flatnonzero(new[:, -1])
        value = np.add.reduceat(self.weights[order], starts).reshape(-1, 1)
        for a in range(b - 1, h - 1, -1):
            outer = new[starts, a]
            runs = np.count_nonzero(outer)
            if runs * tables[a].shape[0] <= len(outer) * tables[a].shape[1]:
                block = np.zeros((runs, value.shape[1], len(tables[a])), value.dtype)
                block[np.cumsum(outer) - 1, :, idx[starts, a]] = value
                del value  # each stage's input goes before the next allocation
                value = np.dot(block.reshape(-1, len(tables[a])), tables[a])
                del block
            else:
                value = value[:, :, None] * tables[a][idx[starts, a], None, :]
                if runs < len(outer):
                    value = np.add.reduceat(value, np.flatnonzero(outer))
            value = value.reshape(runs, -1)
            starts = starts[outer]
        heads, rows = np.ones((len(starts), 1)), idx[starts]
        for a in range(h):
            heads = (heads[:, :, None] * tables[a][rows[:, a], None, :]).reshape(len(rows), -1)
        # Axes (i_0, j_0, ..., i_{h-1}, j_{h-1}, i_{b-1}, j_{b-1}, ..., i_h, j_h)
        slots = [*range(h), *range(b - 1, h - 1, -1)]
        value = np.dot(heads.T, value)
        value = value.reshape([dims[a] for a in slots for _ in range(2)])
        at = 2 * np.argsort(slots)
        return value.transpose([*at, *(at + 1)]).reshape(n, n)


class VerificationError(RuntimeError):
    """A decomposition built by this library failed its own verification."""


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failure: str | None = None
    min_factor_eigenvalue: float | None = None  # on success, the lowest over all factors

    def __bool__(self) -> bool:
        return self.ok


def verify_decomposition(
    dec: SeparableDecomposition,
    target: DensityMatrix,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> VerificationResult:
    """Check every decomposition invariant against the target.

    Weights finite, non-negative and summing to one, every factor a valid
    local density, and the reassembled mixture matching the target
    entrywise within the reconstruction tolerance.  One ``density_screen``
    per distinct (K_a, d_a, d_a) stack checks all its slots, ``check_density`` once each
    entry it rejects, named by (first term, slot, entry).  Every comparison fails on NaN.
    """
    if dec.dims != target.dims:
        raise ValueError(f"dims mismatch: {dec.dims} vs {target.dims}")
    w = dec.weights
    bad = np.flatnonzero(~np.isfinite(w) | ~(w >= -tol.abs_eps))
    if len(bad):
        i, weight = bad[0], float(w[bad[0]])
        if not math.isfinite(weight):
            return VerificationResult(False, f"term {i}: non-finite weight {weight!r}")
        return VerificationResult(False, f"term {i}: negative weight {weight:.3e}")
    stacks, rejected = {id(slot): slot for slot in dec.factors}, {}
    screens = {key: density_screen(slot, tol) for key, slot in stacks.items()}
    for a, slot in enumerate(dec.factors):
        ok = screens[id(slot)][0]
        if not ok.all():
            at = np.unique(dec.index[:, a], return_index=True)[1]
            for k in np.flatnonzero(~ok):  # an entry of a shared stack is checked once
                rejected.setdefault((id(slot), k), []).append((int(at[k]), a, int(k)))
    for i, a, k in sorted(min(uses) for uses in rejected.values()):
        try:
            check_density(dec.factors[a][k], DimVector((dec.dims[a],)), tol)
        except InvalidDensityError as err:
            return VerificationResult(False, f"term {i}, factor {a}: {err}")
        screens[id(dec.factors[a])][3][k] = density_screen(dec.factors[a][k][None], tol)[3][0]
    total = math.fsum(w.tolist())
    if not (abs(total - 1.0) <= tol.abs_eps):
        return VerificationResult(False, f"weights sum to {total:.17g}, expected 1")
    defect = float(np.abs(dec.assemble() - target.matrix).max())
    if not (defect <= tol.reconstruction_eps):
        return VerificationResult(False, f"reconstruction defect {defect:.3e}")
    lows = [screen[3].min() for screen in screens.values()]
    return VerificationResult(True, min_factor_eigenvalue=float(min(lows)))
