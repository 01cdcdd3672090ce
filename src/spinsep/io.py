"""Structured-text (JSON) file formats for matrices, coefficient tables,
spin bases and separable decompositions.

Every complex entry is serialised as a [real, imaginary] pair of decimal
numbers; Python's shortest-repr float writing makes parse -> serialize ->
parse the identity on the numeric content.  Every file is exactly
``json.dumps(document, indent=2)`` and a newline, as ASCII bytes, so its
bytes are reproducible.  One renderer writes all four kinds of document: it
renders each distinct float once and fills matrices into layout texts cut
from frames that ``document_text`` renders (see ``_texts``); a decomposition
renders each distinct stack once, a chunk of terms at a time (see
``decomposition_chunks``).  A file as written is read by its distinct factor
blocks, found by bracket rank, kept if it re-renders to its bytes
(``_read_canonical``); any other is parsed with the cyclic collector paused
(``_read``), each distinct number text converted once (``_Floats``).
Matrices have one converter, a slot of them at a time (see ``_parse_stacks``);
a walk entry by entry only names the first malformed one.
"""

from __future__ import annotations

import gc
import json
import os
from collections.abc import Iterable, Iterator
from contextlib import suppress
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np

from .composite import DimVector
from .decompositions import SeparableDecomposition
from .transform import SpinCoefficients

FORMAT_VERSION = 1
# Decomposition files are written in whole terms, at most CHUNK_TERMS and about
# CHUNK_BYTES at a time: a chunk and the pieces joined into it stay in cache.
CHUNK_TERMS, CHUNK_BYTES = 256, 1 << 19


class FileFormatError(ValueError):
    """The document is structurally malformed (distinct from semantic errors)."""


def _check_entries(rows, n: int, what: str) -> None:
    """FileFormatError naming ``what`` and the first malformed entry of one
    raw n x n matrix, walked entry by entry; nothing if ``_stack`` takes it."""
    if not isinstance(rows, list) or len(rows) != n:
        raise FileFormatError(f"{what}: expected {n} rows")
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
                complex(entry[0], entry[1])
            except OverflowError:
                raise FileFormatError(f"{what}: entry ({i},{j}) does not fit a double") from None


def _stack(mats, d: int) -> np.ndarray | None:
    """The (T, d, d) complex stack of T raw d x d matrices, or None if one
    is malformed or holds an integer too large for a double.  Each level is
    checked in one pass over its types and lengths, as ``_check_entries``
    checks it: np.array would silently turn bools and strings into numbers."""
    level = mats
    for n in (d, d, 2):
        lists = all(issubclass(t, list) for t in set(map(type, level)))
        if not (lists and set(map(len, level)) <= {n}):
            return None
        level = list(chain.from_iterable(level))
    if not all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, level))):
        return None
    try:
        return np.array(level, dtype=float).view(complex).reshape(len(mats), d, d)
    except OverflowError:
        return None


def _parse_stacks(slots, dims, what: str) -> list[np.ndarray]:
    """Per slot a, the (T, d_a, d_a) complex stack of its T raw matrices
    from ``_stack``, the one converter.  If it refuses a slot, every matrix
    is walked in document order, term by term, only to raise the
    FileFormatError naming the first malformed one as ``what.format(t=term, a=slot)``."""
    stacks = [_stack(mats, d) for mats, d in zip(slots, dims)]
    if any(s is None for s in stacks):
        for t, ms in enumerate(zip(*slots)):
            for a, (m, d) in enumerate(zip(ms, dims)):
                _check_entries(m, d, what.format(t=t, a=a))
    return stacks


def _parse_header(doc, expected_key: str) -> DimVector:
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
    return DimVector(dims_raw)


def document(dims, key: str, value) -> dict:
    """The versioned document holding ``value`` under ``key`` on ``dims``."""
    return {"format_version": FORMAT_VERSION, "dims": list(dims), key: value}


def _parse_square(doc, key: str, what: str) -> tuple[np.ndarray, DimVector]:
    """The N x N matrix under ``key`` and the dims; ValueError if the row
    count is not the dims product N."""
    dims = _parse_header(doc, key)
    rows, n = doc[key], dims.size
    if isinstance(rows, list) and len(rows) != n:
        raise ValueError(f"dims product {n} does not match {what} dimension {len(rows)}")
    return _parse_stacks([[rows]], [n], key)[0][0], dims


def parse_density_document(doc) -> tuple[np.ndarray, DimVector]:
    return _parse_square(doc, "matrix", "matrix")


def parse_coefficients_document(doc) -> SpinCoefficients:
    table, dims = _parse_square(doc, "coefficients", "table")
    return SpinCoefficients(dims, table)


def decomposition_document(dec: SeparableDecomposition) -> dict:
    """The document ``write_decomposition_file`` writes for ``dec``, read back."""
    return json.loads(b"".join(decomposition_chunks(dec)))


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
    dims = _parse_header(doc, "terms")
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


def _read(path, parse, parse_float=None):
    """``parse`` of the document at ``path``, parsed with the cyclic collector
    paused, then restored as it was: a parsed JSON tree has no cycles, but
    each of its lists counts towards a collection, which would free nothing.
    FileFormatError naming ``path`` if the file is not UTF-8, not JSON, or
    nested too deeply to parse."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(os.fspath(path), encoding="utf-8") as fh:  # fspath: an int is not a file
            doc = json.load(fh, parse_float=parse_float)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise FileFormatError(f"{path}: {err}") from err
    else:
        return parse(doc)
    finally:
        if enabled:
            gc.enable()


def document_text(doc: dict) -> str:
    """``doc`` as indented JSON; ValueError on NaN or infinity, which JSON lacks."""
    return json.dumps(doc, indent=2, allow_nan=False)


def write_file(path, chunks: Iterable[bytes]) -> None:
    """Write the rendered ``chunks`` of ASCII in order, then a newline.

    Callers check every value before calling, so a ValueError on NaN or
    infinity leaves no file behind.
    """
    with Path(path).open("wb") as fh:
        fh.writelines(chunks)
        fh.write(b"\n")


@cache
def _texts(dims: tuple[int, ...] | None, line: bytes = b"") -> tuple[bytes, ...]:
    """Five layout texts of a frame ``document_text`` renders, cut at its "{}"s.
    On ``dims``, a two-term decomposition: its header and first opener, "factors"
    opener, slot and term separators, and tail.  Else a 2 x 2 matrix of [re, im]
    pairs as deep as ``line`` is indented: its start, the texts within an entry,
    between entries and between rows, and its end."""
    if dims is None:
        frame, picks = [[["{}"] * 2] * 2] * 2, (0, 1, 2, 4, 8)
    else:
        frame = document(dims, "terms", [{"weight": "{}", "factors": ["{}"] * len(dims)}] * 2)
        picks = (0, 1, 2, len(dims) + 1, -1)
    text = document_text(frame).replace('"{}"', "{}")
    text = text.replace("\n", "\n" + " " * (len(line) - len(line.lstrip())))
    return tuple(text.encode().split(b"{}")[i] for i in picks)


def _reprs(values: np.ndarray, what: str) -> np.ndarray:
    """The floats ``values`` as ``json.dumps`` writes them, by ``float.__repr__``,
    each distinct float (told apart by its bits, so -0.0 and 0.0 stay apart)
    rendered once; ValueError naming ``what`` on NaN or infinity, which JSON lacks."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} is NaN or infinite, which JSON cannot hold")
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = " ".join(map(float.__repr__, bits.view(float).tolist())).encode().split()
    return np.array(text, dtype=object)[inverse]


def _blocks(stack: np.ndarray, strings: np.ndarray, texts: tuple[bytes, ...]) -> np.ndarray:
    """Each matrix of the (T, r, c) ``stack``, its entries' ``strings`` set in ``texts``."""
    (t, r, c), (start, within, entries, rows, end) = stack.shape, texts
    pieces = np.empty((t, 4 * r * c + 1), dtype=object)
    pieces[:, 1::2] = strings.reshape(t, -1)
    pieces[:, 0], pieces[:, 2::4], pieces[:, 4::4] = start, within, entries
    pieces[:, 4 * c :: 4 * c], pieces[:, -1] = rows, end
    return np.array(list(map(b"".join, pieces.tolist())), dtype=object)


def document_bytes(dims, key: str, value, matrices) -> bytes:
    """``document_text`` of the document holding ``value`` under ``key`` on ``dims``,
    as ASCII, each "{}" in ``value`` standing for the next of the equally shaped
    ``matrices``; ValueError on NaN or infinity, which JSON lacks."""
    head, *tails = document_text(document(dims, key, value)).encode().split(b'"{}"')
    stack = np.asarray(matrices, dtype=complex)
    strings = _reprs(stack.ravel().view(float), "a matrix entry")
    blocks = _blocks(stack, strings, _texts(None, head.rpartition(b"\n")[2]))
    return b"".join([head, *chain.from_iterable(zip(blocks, tails))])


def decomposition_chunks(dec: SeparableDecomposition) -> Iterator[bytes]:
    """``document_text`` of ``dec``'s terms document in consecutive ASCII pieces.

    Each distinct stack's factors are rendered once, for the slots that share
    it.  A (T, 2b + 2) array holds per term its weight, per slot an opener (slot
    0's opens "factors") and block, and a separator into the next term or the
    tail, texts of the two-term frame on ``dec.dims``; its header is the first
    chunk, then each chunk joins as many rows as the first fits in
    ``CHUNK_BYTES``, at most ``CHUNK_TERMS``.  ValueError on NaN or infinity,
    which JSON lacks, raised by this call, before any chunk.
    """
    if not len(dec.weights):
        return iter((document_text(document(dec.dims, "terms", [])).encode(),))
    head, opener, slot, term, tail = _texts(dec.dims)
    factor, stacks = _texts(None, opener.rpartition(b"\n")[2]), {id(f): f for f in dec.factors}
    what = "a factor entry" if np.isfinite(dec.weights).all() else "a weight"
    values = [dec.weights, *(f.ravel().view(float) for f in stacks.values())]
    strings, at = _reprs(np.concatenate(values), what), len(dec.weights)
    pieces = np.empty((at, 2 * len(dec.dims) + 2), dtype=object)
    pieces[:, 0], pieces[:, 1:-1:2], pieces[:, -1] = strings[:at], slot, term
    pieces[:, 1], pieces[-1, -1], blocks = opener, tail, {}
    for key, stack in stacks.items():
        blocks[key] = _blocks(stack, strings[at : (at := at + 2 * stack.size)], factor)
    pieces[:, 2:-1:2] = np.transpose([blocks[id(f)][k] for f, k in zip(dec.factors, dec.index.T)])
    step = min(CHUNK_TERMS, max(1, CHUNK_BYTES // len(b"".join(pieces[0]))))
    rows = (b"".join(pieces[i : i + step].ravel().tolist()) for i in range(0, len(pieces), step))
    return chain((head,), rows)


def read_density_file(path) -> tuple[np.ndarray, DimVector]:
    return _read(path, parse_density_document)


def write_density_file(path, matrix: np.ndarray, dims: DimVector) -> None:
    write_file(path, [document_bytes(dims, "matrix", "{}", [matrix])])


def read_coefficients_file(path) -> SpinCoefficients:
    return _read(path, parse_coefficients_document)


def _read_canonical(raw: bytes) -> SeparableDecomposition:
    """``raw`` read by its distinct factor blocks, if the writer renders it.

    After the header the writer puts ``[`` and ``]`` only as structure, a pair per
    list: so, counted from the "terms" ``[``, a term's "factors" brackets, the ends of
    its d-level blocks (2(1 + d + d^2) brackets each) and so its weight sit at fixed
    ranks.  Each slot numbers its distinct block texts by first sight and parses them
    in one ``json.loads``; the result is kept only if it re-renders to ``raw`` byte for
    byte, else ValueError or another error.  Kept, it is the JSON path's bit for bit:
    the writer renders every float by ``float.__repr__``, which ``float`` reads back to
    the same double, so blocks are equal texts exactly when their entries are equal
    bits, and the JSON path also numbers entries by first use.
    """
    frame = _texts((2,))[0]  # from the "terms" [ to the first term's {, as on any dims
    head = raw.index(frame[frame.rindex(b"[") : frame.rindex(b"{") + 1])
    dims = DimVector(json.loads(raw[:head] + b"[]}")["dims"])
    header, opener, _, term, _ = _texts(dims)
    factor = _texts(None, opener.rpartition(b"\n")[2])
    codes, ends = np.frombuffer(raw, np.uint8), np.cumsum([0] + [2 * (1 + d + d * d) for d in dims])
    dense = b"0.0".join(factor[:2] + factor[4:])  # 1 x 1: the most brackets a byte a file holds
    most, brackets = 2 * dense.count(b"[") * (CHUNK_BYTES // len(dense) + 2), []
    for i in range(head, len(raw), CHUNK_BYTES):
        c = codes[i : i + CHUNK_BYTES]
        if len(at := np.flatnonzero((c == 91) | (c == 93))) > most:
            raise ValueError("more brackets than a written file holds")
        brackets.append(at + i)
    brackets = np.concatenate(brackets)
    rows = brackets[1:-1].reshape(-1, ends[-1] + 2)  # per term: "factors" [, its blocks, ]
    cut = lambda starts, stops: map(raw.__getitem__, map(slice, starts.tolist(), stops.tolist()))
    lead = brackets[: -2 : ends[-1] + 2] + len(term) - term.rindex(b"]")
    lead[0] = len(header)  # the first weight follows the writer's first chunk
    weights = list(map(float, cut(lead, rows[:, 0] - opener.index(b"["))))
    floats, index, mats = _Floats().__getitem__, [], []
    for first, last in zip(ends[:-1] + 1, ends[1:]):
        texts, number = cut(rows[:, first], rows[:, last] + 1), {}  # text -> its first-seen rank
        index.append(list(map(number.setdefault, texts, iter(number.__len__, -1))))
        mats.append(json.loads(b"[" + b",".join(number) + b"]", parse_float=floats))
    dec = SeparableDecomposition(dims, weights, np.transpose(index), list(map(_stack, mats, dims)))
    at = 0
    for chunk in chain(decomposition_chunks(dec), [b"\n"]):
        if not raw.startswith(chunk, at):
            raise ValueError("not the file the writer renders")
        at += len(chunk)
    if at != len(raw):
        raise ValueError("not the file the writer renders")
    return dec


def read_decomposition_file(path) -> SeparableDecomposition:
    with suppress(Exception):  # any other file: the JSON path reads it or names its fault
        if Path(path).is_file():  # not a pipe, whose bytes can be read only once
            return _read_canonical(Path(path).read_bytes())
    return _read(path, parse_decomposition_document, _Floats().__getitem__)


def write_decomposition_file(path, dec: SeparableDecomposition) -> None:
    write_file(path, decomposition_chunks(dec))
