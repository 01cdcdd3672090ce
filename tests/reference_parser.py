"""Reference oracle: the original per-entry document parsers.

Every entry of every factor is checked and converted on its own, and each
decomposition term becomes a ``ProductTerm``, deduplicated by
``from_terms``.  The property tests compare the library's stacked parsers
against it, on valid documents and on the exception type and message of
malformed ones.  Its header check is the current one: ``format_version``
must be the integer 1, not a bool or a float equal to it.
"""

import numpy as np

from spinsep import DimVector, ProductTerm, SpinCoefficients
from spinsep.io import FileFormatError

from reference_terms import from_terms


def reference_entries(rows, n: int, what: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != n:
        raise FileFormatError(f"{what}: expected {n} rows")
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"{what}: row {i} must have {n} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise FileFormatError(f"{what}: entry ({i},{j}) must be a [real, imaginary] pair")
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise FileFormatError(f"{what}: entry ({i},{j}) does not fit a double") from None
    return out


def reference_header(doc, expected_key: str):
    if not isinstance(doc, dict):
        raise FileFormatError("document must be a key/value tree")
    version = doc.get("format_version")
    if not isinstance(version, int) or isinstance(version, bool) or version != 1:
        raise FileFormatError(f"unsupported format version {version!r}")
    dims_raw = doc.get("dims")
    if (
        not isinstance(dims_raw, list)
        or not dims_raw
        or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims_raw)
    ):
        raise FileFormatError("dims must be a non-empty list of integers")
    if expected_key not in doc:
        raise FileFormatError(f"missing {expected_key!r} key")
    dims = DimVector(tuple(dims_raw))
    return dims, dims.size


def reference_density(doc):
    dims, n = reference_header(doc, "matrix")
    rows = doc["matrix"]
    if isinstance(rows, list) and len(rows) != n:
        raise ValueError(f"dims product {n} does not match matrix dimension {len(rows)}")
    return reference_entries(rows, n, "matrix"), dims


def reference_coefficients(doc):
    dims, n = reference_header(doc, "coefficients")
    rows = doc["coefficients"]
    if isinstance(rows, list) and len(rows) != n:
        raise ValueError(f"dims product {n} does not match table dimension {len(rows)}")
    return SpinCoefficients(dims, reference_entries(rows, n, "coefficients"))


def reference_decomposition(doc):
    dims, _ = reference_header(doc, "terms")
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list):
        raise FileFormatError("terms must be a list")
    terms = []
    for i, raw in enumerate(raw_terms):
        if not isinstance(raw, dict) or "weight" not in raw or "factors" not in raw:
            raise FileFormatError(f"term {i}: need weight and factors")
        weight = raw["weight"]
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise FileFormatError(f"term {i}: weight must be a number")
        try:
            weight = float(weight)
        except OverflowError:
            raise FileFormatError(f"term {i}: weight does not fit a double") from None
        raw_factors = raw["factors"]
        if not isinstance(raw_factors, list) or len(raw_factors) != len(dims):
            got = len(raw_factors) if isinstance(raw_factors, list) else type(raw_factors).__name__
            raise ValueError(f"term {i}: expected {len(dims)} factors, got {got}")
        factors = tuple(
            reference_entries(rows, d, f"term {i}, factor {a}")
            for a, (rows, d) in enumerate(zip(raw_factors, dims))
        )
        terms.append(ProductTerm(weight, factors))
    return from_terms(dims, tuple(terms))
