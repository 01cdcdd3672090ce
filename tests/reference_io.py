"""Reference renderer: the decomposition document built term by term.

Each of ``dec.terms`` becomes one {"weight", "factors"} entry, with every
factor converted by ``matrix_entries``, so ``document_text`` of the result
is the one-pass indented encoding.  The writer tests compare the chunked
writer's bytes against it, and the parser tests mutate its documents.  It
reads ``.terms``, which ``from_terms`` sets to the given terms, so it does
not share the writer's path from the columns.
"""

from spinsep.io import document, matrix_entries


def reference_document(dec) -> dict:
    terms = [
        {"weight": float(t.weight), "factors": [matrix_entries(f) for f in t.factors]}
        for t in dec.terms
    ]
    return document(dec.dims, "terms", terms)
