"""Reference renderers: every document built as nested lists, for json.dumps.

``matrix_entries`` converts a matrix to its [real, imaginary] pairs by
``float``, so ``document_text`` of a document built from it is the one-pass
indented encoding.  The density, coefficients and basis documents wrap it,
and ``reference_document`` builds the decomposition document term by term:
each of ``dec.terms`` becomes one {"weight", "factors"} entry.  The writer
tests compare the library's rendered bytes against these, and the parser
tests mutate their documents.  ``reference_document`` reads ``.terms``,
which ``from_terms`` sets to the given terms, so it does not share the
writer's path from the columns.  ``report_document`` builds the
``certify --json`` report as a tree, which the CLI's frame renderer
matches byte for byte through json.dumps.
"""

import numpy as np

from spinsep import NecessaryViolation, NegativeEigenvalue
from spinsep.io import document

# A witness reports as its kind, then its fields in dataclass order.
KINDS = {NecessaryViolation: "necessary-violation", NegativeEigenvalue: "negative-eigenvalue"}


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


def report_document(dims, norm, reports, overall) -> dict:
    """The certify report of ``reports``, check name ("necessary", "peres[r]",
    "sufficient") -> report in CLI order: each check's verdict and witness, a
    witness of unknown kind (such as a decomposition) as None."""
    checks: dict = {}
    for name, report in reports.items():
        kind = KINDS.get(type(report.witness))
        witness = None if kind is None else {"kind": kind, **vars(report.witness)}
        entry = {"verdict": report.verdict, "witness": witness}
        check, _, r = name.rstrip("]").partition("[")  # "peres[2]": checks["peres"]["2"]
        if r:
            checks.setdefault(check, {})[r] = entry
        else:
            checks[check] = entry
    return {"dims": list(dims), "l1_norm": norm, "checks": checks, "verdict": overall}
