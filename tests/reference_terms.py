"""Reference builder: a decomposition from a list of product terms.

``from_terms`` derives the columns that ``SeparableDecomposition`` takes
from ``ProductTerm``s, one slot at a time: each term points at the first
term whose factor has the same shape and bytes.  The column tests
rebuild every builder's terms through it and compare the columns; the
other tests use it to write decompositions term by term.  The result's
``.terms`` are the given terms, not a rebuild from the columns, so an
oracle that reads them checks the columns against an independent source.
"""

import numpy as np

from spinsep import SeparableDecomposition


def from_terms(dims, terms) -> SeparableDecomposition:
    """The decomposition of ``terms``; each slot keeps one entry per distinct
    (shape, bytes).  ValueError if a term does not hold one factor
    per subsystem."""
    b = len(dims)
    for i, term in enumerate(terms):
        if len(term.factors) != b:
            raise ValueError(f"term {i}: {len(term.factors)} factors for {b} subsystems")
    factors = [[np.asarray(t.factors[a], dtype=complex) for t in terms] for a in range(b)]
    firsts: list[dict] = [{} for _ in range(b)]
    index = [
        [first.setdefault((f.shape, f.tobytes()), t) for t, f in enumerate(fs)]
        for fs, first in zip(factors, firsts)
    ]
    index = np.array(index, dtype=np.intp).T
    dec = SeparableDecomposition(dims, [t.weight for t in terms], index, factors)
    dec.__dict__["terms"] = tuple(terms)
    return dec
