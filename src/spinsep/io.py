"""Structured-text (JSON) file formats for matrices, coefficient tables,
and separable decompositions.

Every complex entry is serialised as a [real, imaginary] pair of decimal
numbers; Python's shortest-repr float writing makes parse -> serialize ->
parse the identity on the numeric content.  Every file is exactly
``json.dumps(document, indent=2)`` and a newline, so its bytes are
reproducible.  Decomposition files render each distinct float once, with
no per-term encoder work, to the same bytes, and are written
``CHUNK_TERMS`` terms at a time (see ``decomposition_chunks``), so their
whole text never exists.  Every reader parses with the cyclic garbage
collector paused (see ``_read``); a decomposition read also converts each
distinct number text once per file (see ``_Floats``), from the same bytes.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np

from .composite import DimVector
from .decompositions import SeparableDecomposition
from .transform import SpinCoefficients

FORMAT_VERSION = 1
# Terms per write of a decomposition file (about 0.45 MB of a 2^5 witness).
CHUNK_TERMS = 256


class FileFormatError(ValueError):
    """The document is structurally malformed (distinct from semantic errors)."""


def matrix_entries(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _parse_entries(rows, n: int, what: str) -> np.ndarray:
    """One n x n matrix, entry by entry; FileFormatError naming ``what`` and
    the first malformed entry.  Runs only when ``_stack`` refuses a slot."""
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


def _stack(mats, d: int) -> np.ndarray | None:
    """The (T, d, d) complex stack of T raw d x d matrices, or None if one
    is malformed or holds an integer too large for a double.

    Each nesting level is checked in one pass over exact types and lengths:
    np.array would silently turn bools and numeric strings into numbers.
    """
    level = mats
    for n in (d, d, 2):
        if not (set(map(type, level)) <= {list} and set(map(len, level)) <= {n}):
            return None
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= {float, int}:
        return None
    try:
        return np.array(level, dtype=float).view(complex).reshape(len(mats), d, d)
    except OverflowError:
        return None


def _parse_stacks(slots, dims, what: str) -> list[np.ndarray]:
    """Per slot a, the (T, d_a, d_a) complex stack of its T raw matrices.

    If ``_stack`` refuses a slot, every slot is parsed entry by entry in
    document order, term by term, so the FileFormatError names the first
    malformed matrix as ``what.format(t=term, a=slot)``.
    """
    stacks = [_stack(mats, d) for mats, d in zip(slots, dims)]
    if any(s is None for s in stacks):
        parsed = [
            [_parse_entries(m, d, what.format(t=t, a=a)) for a, (m, d) in enumerate(zip(ms, dims))]
            for t, ms in enumerate(zip(*slots))
        ]
        stacks = [np.array(col).reshape(-1, d, d) for col, d in zip(zip(*parsed), dims)]
    return stacks


def _parse_header(doc, expected_key: str) -> tuple[DimVector, int]:
    if not isinstance(doc, dict):
        raise FileFormatError("document must be a key/value tree")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
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
    dims = DimVector(dims_raw)
    return dims, dims.size


def document(dims, key: str, value) -> dict:
    """The versioned document holding ``value`` under ``key`` on ``dims``."""
    return {"format_version": FORMAT_VERSION, "dims": list(dims), key: value}


def density_document(matrix: np.ndarray, dims: DimVector) -> dict:
    return document(dims, "matrix", matrix_entries(matrix))


def _parse_square(doc, key: str, what: str) -> tuple[np.ndarray, DimVector]:
    """The N x N matrix under ``key`` and the dims; ValueError if the row
    count is not the dims product N."""
    dims, n = _parse_header(doc, key)
    rows = doc[key]
    if isinstance(rows, list) and len(rows) != n:
        raise ValueError(f"dims product {n} does not match {what} dimension {len(rows)}")
    return _parse_stacks([[rows]], [n], key)[0][0], dims


def parse_density_document(doc) -> tuple[np.ndarray, DimVector]:
    return _parse_square(doc, "matrix", "matrix")


def coefficients_document(coeffs: SpinCoefficients) -> dict:
    return document(coeffs.dims, "coefficients", matrix_entries(coeffs.table))


def parse_coefficients_document(doc) -> SpinCoefficients:
    table, dims = _parse_square(doc, "coefficients", "table")
    return SpinCoefficients(dims, table)


def decomposition_document(dec: SeparableDecomposition) -> dict:
    terms = [
        {"weight": float(t.weight), "factors": [matrix_entries(f) for f in t.factors]}
        for t in dec.terms
    ]
    return document(dec.dims, "terms", terms)


def _term_weight(raw, i: int, b: int) -> float:
    """Term i's weight, once its keys, weight and b factors are checked."""
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
    if not isinstance(raw_factors, list) or len(raw_factors) != b:
        raise ValueError(
            f"term {i}: expected {b} factors, got "
            f"{len(raw_factors) if isinstance(raw_factors, list) else type(raw_factors).__name__}"
        )
    return weight


def parse_decomposition_document(doc) -> SeparableDecomposition:
    """The decomposition in columns: each slot's factors are converted as
    one stack, and each slot keeps its distinct factors (by bytes) in the
    order of first use."""
    dims, _ = _parse_header(doc, "terms")
    raw_terms, b = doc["terms"], len(dims)
    if not isinstance(raw_terms, list):
        raise FileFormatError("terms must be a list")
    weights, term_factors, error = [], [], None
    for i, raw in enumerate(raw_terms):
        try:
            weights.append(_term_weight(raw, i, b))
        except ValueError as err:
            error = err
            break
        term_factors.append(raw["factors"])
    # A malformed factor of an earlier term is named before a bad term.
    slots = list(zip(*term_factors)) or [()] * b
    stacks = _parse_stacks(slots, dims, "term {t}, factor {a}")
    if error is not None:
        raise error
    # Each term points at its factor's first use; the constructor keeps those.
    index = []
    for stack, d in zip(stacks, dims):
        keys = stack.reshape(-1).view(np.dtype((np.void, 16 * d * d)))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        index.append(first[inverse])
    return SeparableDecomposition(dims, weights, np.array(index).T, stacks)


class _Floats(dict):
    """Number text -> its float, converted at first sight, for one read."""

    def __missing__(self, text: str) -> float:
        self[text] = value = float(text)
        return value


def _load(path, parse_float=None) -> dict:
    """The parsed document; FileFormatError naming ``path`` if the file is
    not UTF-8, not JSON, or nested too deeply to parse."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_float=parse_float)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise FileFormatError(f"{path}: {err}") from err


def _read(path, parse, parse_float=None):
    """``parse`` of ``_load(path, parse_float)``, with the cyclic collector
    paused, then restored as it was: a parsed JSON tree has no cycles, but
    each of its lists counts towards a collection, which would free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse(_load(path, parse_float))
    finally:
        if enabled:
            gc.enable()


def document_text(doc: dict) -> str:
    """``doc`` as indented JSON; ValueError on NaN or infinity, which JSON lacks."""
    return json.dumps(doc, indent=2, allow_nan=False)


def write_text_file(path, chunks: Iterable[str]) -> None:
    """Write the rendered ``chunks`` in order, then a newline.

    Callers check every value before calling, so a ValueError on NaN or
    infinity leaves no file behind.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.write("\n")


@cache
def _factor_template(shape: tuple[int, ...]) -> np.ndarray:
    """A ``shape`` factor as it sits in a decomposition document, 8 spaces
    deep: its literal text at the even places, a free odd place per float."""
    placeholders = np.full((*shape, 2), "{}").tolist()
    text = json.dumps(placeholders, indent=2).replace("\n", "\n        ").replace('"', "")
    template = np.empty(2 * text.count("{}") + 1, dtype=object)
    template[::2] = text.split("{}")
    return template


def decomposition_chunks(dec: SeparableDecomposition) -> Iterator[str]:
    """``document_text(decomposition_document(dec))`` in consecutive pieces.

    Each distinct float, told apart by its bits so that -0.0 and 0.0 stay
    apart, is rendered once by ``float.__repr__``, the number ``json.dumps``
    writes.  Each slot's factors fill a tiled d_a x d_a template with their
    entries' strings.  A (T, b + 4) array holds the pieces: per term its
    opener, weight, "factors" opener, one block per slot and closer, with
    the document's header and tail folded into the first and last rows.
    Each chunk joins ``CHUNK_TERMS`` of its rows.  ValueError on NaN or
    infinity, which JSON lacks, raised by this call, before any chunk.
    """
    head = document_text(document(dec.dims, "terms", []))
    if not len(dec.weights):
        return iter((head,))
    if not np.isfinite(dec.weights).all():
        raise ValueError("a weight is NaN or infinite, which JSON cannot hold")
    entries = [f.ravel().view(float) for f in dec.factors]
    values = np.concatenate([dec.weights, *entries])
    if not np.isfinite(values).all():
        raise ValueError("a factor entry is NaN or infinite, which JSON cannot hold")
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    strings = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)[inverse]
    chunks = iter(np.split(strings, np.cumsum([len(v) for v in (dec.weights, *entries)])))
    pieces = np.empty((len(dec.weights), len(dec.dims) + 4), dtype=object)
    pieces[:, 0] = '    {\n      "weight": '
    pieces[0, 0] = head.removesuffix("[]\n}") + "[\n" + pieces[0, 0]
    pieces[:, 1] = next(chunks)
    pieces[:, 2] = ',\n      "factors": [\n        '
    for a, slot in enumerate(dec.factors):
        rows = np.tile(_factor_template(slot.shape[1:]), (len(slot), 1))
        rows[:, 1::2] = next(chunks).reshape(len(slot), -1)
        # Slots after the first carry the separator from the block before.
        rows[:, 0] = ",\n        " * (a > 0) + rows[0, 0]
        blocks = np.array(list(map("".join, rows.tolist())), dtype=object)
        pieces[:, 3 + a] = blocks[dec.index[:, a]]
    pieces[:, -1] = "\n      ]\n    },\n"
    pieces[-1, -1] = "\n      ]\n    }\n  ]\n}"
    return (
        "".join(pieces[i : i + CHUNK_TERMS].ravel().tolist())
        for i in range(0, len(pieces), CHUNK_TERMS)
    )


def read_density_file(path) -> tuple[np.ndarray, DimVector]:
    return _read(path, parse_density_document)


def write_density_file(path, matrix: np.ndarray, dims: DimVector) -> None:
    write_text_file(path, [document_text(density_document(matrix, dims))])


def read_coefficients_file(path) -> SpinCoefficients:
    return _read(path, parse_coefficients_document)


def read_decomposition_file(path) -> SeparableDecomposition:
    return _read(path, parse_decomposition_document, _Floats().__getitem__)


def write_decomposition_file(path, dec: SeparableDecomposition) -> None:
    write_text_file(path, decomposition_chunks(dec))
