"""Structured-text (JSON) file formats for matrices, coefficient tables,
and separable decompositions.

Every complex entry is serialised as a [real, imaginary] pair of decimal
numbers; Python's shortest-repr float writing makes parse -> serialize ->
parse the identity on the numeric content.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .composite import DimVector
from .decompositions import ProductTerm, SeparableDecomposition
from .transform import SpinCoefficients

FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """The document is structurally malformed (distinct from semantic errors)."""


def _matrix_entries(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _parse_entries(rows, n: int, what: str) -> np.ndarray:
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
            out[i, j] = complex(entry[0], entry[1])
    return out


def _parse_header(doc, expected_key: str) -> tuple[DimVector, int]:
    if not isinstance(doc, dict):
        raise FileFormatError("document must be a key/value tree")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
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


def density_document(matrix: np.ndarray, dims: DimVector) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "dims": list(dims),
        "matrix": _matrix_entries(matrix),
    }


def parse_density_document(doc) -> tuple[np.ndarray, DimVector]:
    dims, n = _parse_header(doc, "matrix")
    rows = doc["matrix"]
    if isinstance(rows, list) and len(rows) != n:
        raise ValueError(
            f"dims product {n} does not match matrix dimension {len(rows)}"
        )
    return _parse_entries(rows, n, "matrix"), dims


def coefficients_document(coeffs: SpinCoefficients) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "dims": list(coeffs.dims),
        "coefficients": _matrix_entries(coeffs.table),
    }


def parse_coefficients_document(doc) -> SpinCoefficients:
    dims, n = _parse_header(doc, "coefficients")
    rows = doc["coefficients"]
    if isinstance(rows, list) and len(rows) != n:
        raise ValueError(
            f"dims product {n} does not match table dimension {len(rows)}"
        )
    return SpinCoefficients(dims, _parse_entries(rows, n, "coefficients"))


def decomposition_document(dec: SeparableDecomposition) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "dims": list(dec.dims),
        "terms": [
            {
                "weight": float(term.weight),
                "factors": [_matrix_entries(f) for f in term.factors],
            }
            for term in dec.terms
        ],
    }


def parse_decomposition_document(doc) -> SeparableDecomposition:
    dims, _ = _parse_header(doc, "terms")
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
        raw_factors = raw["factors"]
        if not isinstance(raw_factors, list) or len(raw_factors) != len(dims):
            raise ValueError(
                f"term {i}: expected {len(dims)} factors, got "
                f"{len(raw_factors) if isinstance(raw_factors, list) else type(raw_factors).__name__}"
            )
        factors = tuple(
            _parse_entries(rows, d, f"term {i}, factor {a}")
            for a, (rows, d) in enumerate(zip(raw_factors, dims))
        )
        terms.append(ProductTerm(float(weight), factors))
    return SeparableDecomposition(dims, tuple(terms))


def _load(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path}: {err}") from err


def document_text(doc: dict) -> str:
    """``doc`` as indented JSON; ValueError on NaN or infinity, which JSON lacks."""
    return json.dumps(doc, indent=2, allow_nan=False)


def _dump(path, doc: dict) -> None:
    Path(path).write_text(document_text(doc) + "\n", encoding="utf-8")


def read_density_file(path) -> tuple[np.ndarray, DimVector]:
    return parse_density_document(_load(path))


def write_density_file(path, matrix: np.ndarray, dims: DimVector) -> None:
    _dump(path, density_document(matrix, dims))


def read_coefficients_file(path) -> SpinCoefficients:
    return parse_coefficients_document(_load(path))


def write_coefficients_file(path, coeffs: SpinCoefficients) -> None:
    _dump(path, coefficients_document(coeffs))


def read_decomposition_file(path) -> SeparableDecomposition:
    return parse_decomposition_document(_load(path))


def write_decomposition_file(path, dec: SeparableDecomposition) -> None:
    _dump(path, decomposition_document(dec))
