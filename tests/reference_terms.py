"""Reference builder: a decomposition from a list of product terms.

``from_terms`` derives the columns that ``SeparableDecomposition`` takes
from ``ProductTerm``s, one slot at a time: each term points at the first
term whose factor has the same (shape, bytes, spec).  The column tests
rebuild every builder's terms through it and compare the columns; the
other tests use it to write decompositions term by term.  The result's
``.terms`` are the given terms, not a rebuild from the columns, so an
oracle that reads them checks the columns against an independent source.
"""

import numpy as np

from spinsep import SeparableDecomposition


def from_terms(dims, terms) -> SeparableDecomposition:
    """The decomposition of ``terms``; each slot keeps one entry per distinct
    (shape, bytes, spec).  ValueError if a term does not hold one factor
    per subsystem."""
    b = len(dims)
    for i, term in enumerate(terms):
        if len(term.factors) != b:
            raise ValueError(f"term {i}: {len(term.factors)} factors for {b} subsystems")
    factors = [[np.asarray(t.factors[a], dtype=complex) for t in terms] for a in range(b)]
    specs = [[t.factor_specs[a] if t.factor_specs else None for t in terms] for a in range(b)]
    firsts: list[dict] = [{} for _ in range(b)]
    index = [
        [first.setdefault((f.shape, f.tobytes(), s), t) for t, (f, s) in enumerate(zip(fs, ss))]
        for fs, ss, first in zip(factors, specs, firsts)
    ]
    index = np.array(index, dtype=np.intp).T
    dec = SeparableDecomposition(dims, [t.weight for t in terms], index, factors, specs)
    dec.__dict__["terms"] = tuple(terms)
    return dec
