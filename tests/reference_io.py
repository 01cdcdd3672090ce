"""Reference renderers: every document built as nested lists, for json.dumps.

``matrix_entries`` converts a matrix to its [real, imaginary] pairs by
``float``, so ``document_text`` of a document built from it is the one-pass
indented encoding.  The density, coefficients and basis documents wrap it,
and ``reference_document`` builds the decomposition document term by term:
each of ``dec.terms`` becomes one {"weight", "factors"} entry.  The writer
tests compare the library's rendered bytes against these, and the parser
tests mutate their documents.  ``reference_document`` reads ``.terms``,
which ``from_terms`` sets to the given terms, so it does not share the
writer's path from the columns.
"""

import numpy as np

from spinsep.io import document


def matrix_entries(m) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def density_document(matrix, dims) -> dict:
    return document(dims, "matrix", matrix_entries(matrix))


def coefficients_document(coeffs) -> dict:
    return document(coeffs.dims, "coefficients", matrix_entries(coeffs.table))


def basis_document(dims, labels, matrices) -> dict:
    """The basis document of the flat ``labels`` (j, k) and their ``matrices``."""
    entries = [{"j": j, "k": k, "matrix": matrix_entries(m)} for (j, k), m in zip(labels, matrices)]
    return document(dims, "matrices", entries)


def reference_document(dec) -> dict:
    terms = [
        {"weight": float(t.weight), "factors": [matrix_entries(f) for f in t.factors]}
        for t in dec.terms
    ]
    return document(dec.dims, "terms", terms)
