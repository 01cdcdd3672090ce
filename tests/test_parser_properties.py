"""The stacked document parsers against the per-entry reference oracle, on
valid and on mutated documents, and a fuzzing property over the parsers
and the CLI commands that read files: every malformed document is a
FileFormatError or a ValueError (exit 2 or 3), never anything else."""

import copy
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinsep import (
    DensityMatrix,
    DimVector,
    WernerSpec,
    verify_decomposition,
    werner_density,
    werner_separable_decomposition,
    werner_threshold,
)
from spinsep.cli import main
from spinsep.io import (
    FileFormatError,
    decomposition_document,
    parse_coefficients_document,
    parse_decomposition_document,
    parse_density_document,
    read_coefficients_file,
    read_decomposition_file,
    read_density_file,
)

from reference_parser import reference_coefficients, reference_decomposition, reference_density

# Everything a valid document may hold where a number goes: -0.0, NaN of
# either sign, integers, and integers above 2**53 that round to a double.
numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, 1, 0]),
    st.integers(-(2**12), 2**12),
    st.integers(2**53, 2**80).map(lambda x: x + 1),
    st.integers(2**53, 2**1000).map(lambda x: -x),
)


@st.composite
def raw_matrices(draw, d):
    return [[[draw(numbers), draw(numbers)] for _ in range(d)] for _ in range(d)]


@st.composite
def decomposition_docs(draw, min_terms=0):
    """Per-dimension pools shared by every slot of that dimension, so equal
    content appears in several slots, some as the same list object and some
    as a copy."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3))
    pools = {d: draw(st.lists(raw_matrices(d), min_size=1, max_size=3)) for d in set(dims)}
    terms = []
    for _ in range(draw(st.integers(min_terms, 5))):
        factors = []
        for d in dims:
            f = draw(st.sampled_from(pools[d]))
            factors.append(copy.deepcopy(f) if draw(st.booleans()) else f)
        terms.append({"weight": draw(numbers), "factors": factors})
    return {"format_version": 1, "dims": dims, "terms": terms}


@st.composite
def square_docs(draw, key):
    dims = draw(st.sampled_from([[2], [3], [2, 2], [2, 3]]))
    return {"format_version": 1, "dims": dims, key: draw(raw_matrices(math.prod(dims)))}


KINDS = {
    "matrix": (parse_density_document, reference_density, read_density_file),
    "coefficients": (parse_coefficients_document, reference_coefficients, read_coefficients_file),
    "terms": (parse_decomposition_document, reference_decomposition, read_decomposition_file),
}


def any_doc(min_terms=0):
    return st.one_of(
        square_docs("matrix"), square_docs("coefficients"), decomposition_docs(min_terms)
    )


def kind_of(doc):
    return next(key for key in KINDS if key in doc)


def walk(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from walk(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk(value, path + (i,))


def depth_in_matrix(path):
    """0 for a matrix, 1 for a row, 2 for an entry, 3 for a number; None
    outside matrices."""
    if path[:1] in (("matrix",), ("coefficients",)):
        return len(path) - 1
    if len(path) >= 4 and path[0] == "terms" and path[2] == "factors":
        return len(path) - 4
    return None


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def replace(doc, path, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def candidates(doc, kind):
    """The (path, node) pairs a mutation of ``kind`` may act on."""
    nodes = list(walk(doc))
    if kind == "drop-key":
        return [(p, n) for p, n in nodes if isinstance(n, dict) and n]
    if kind == "retype":
        return nodes
    if kind == "bool-or-string":
        return [(p, n) for p, n in nodes if is_number(n)]
    if kind == "ragged":
        return [
            (p, n) for p, n in nodes if depth_in_matrix(p) in (1, 2) and isinstance(n, list) and n
        ]
    if kind == "huge":
        return [
            (p, n)
            for p, n in nodes
            if is_number(n) and (depth_in_matrix(p) == 3 or p[-1:] == ("weight",))
        ]
    if kind == "dims":
        return [(p, n) for p, n in nodes if p == ("dims",) and isinstance(n, list) and n]
    if kind == "factor-count":
        return [(p, n) for p, n in nodes if p[-1:] == ("factors",) and isinstance(n, list) and n]
    raise AssertionError(kind)


MUTATIONS = ["drop-key", "retype", "bool-or-string", "ragged", "huge", "dims", "factor-count"]


@st.composite
def mutated(draw, doc, kind):
    """``doc`` (copied) with one mutation of ``kind``; unchanged if nothing
    in it can take that mutation."""
    doc = copy.deepcopy(doc)
    options = candidates(doc, kind)
    if not options:
        return doc
    path, node = draw(st.sampled_from(options))
    if kind == "drop-key":
        del node[draw(st.sampled_from(sorted(node)))]
        return doc
    if kind == "retype":
        if isinstance(node, dict):
            others = ["x", None, [], 1.0]
        elif isinstance(node, list):
            others = ["x", None, {}, 1.0]
        else:
            others = ["x", None, {}, [1.0]]
        return replace(doc, path, draw(st.sampled_from(others)))
    if kind == "bool-or-string":
        return replace(doc, path, draw(st.sampled_from([True, False, "1", "0.5", "NaN"])))
    if kind == "ragged":
        if draw(st.booleans()):
            node.append(copy.deepcopy(node[0]))
        else:
            node.pop()
        return doc
    if kind == "huge":
        return replace(doc, path, draw(st.sampled_from([10**400, -(10**400)])))
    if kind == "dims":
        sizes = [i for i, d in enumerate(node) if is_number(d)]
        if sizes and draw(st.booleans()):
            node[draw(st.sampled_from(sizes))] += 1
        else:
            node.append(2)
        return doc
    # factor-count
    if draw(st.booleans()):
        node.append(copy.deepcopy(node[0]))
    else:
        node.pop()
    return doc


def columns(parsed):
    """Weight bits, per-term factor bytes and per-slot entries in order."""
    if isinstance(parsed, tuple):
        matrix, dims = parsed
        return dims, matrix.tobytes()
    if not hasattr(parsed, "terms"):
        return parsed.dims, parsed.table.tobytes()
    return (
        parsed.dims,
        parsed.weights.tobytes(),
        [[parsed.factors[a][k].tobytes() for a, k in enumerate(row)] for row in parsed.index],
        [[f.tobytes() for f in slot] for slot in parsed.factors],
    )


def outcome(parse, doc):
    try:
        return "parsed", columns(parse(doc))
    except ValueError as err:
        return type(err), str(err)


@given(doc=any_doc())
@settings(max_examples=150, deadline=None)
def test_valid_documents_match_the_reference(doc):
    parse, reference, _ = KINDS[kind_of(doc)]
    got, want = outcome(parse, doc), outcome(reference, doc)
    assert got[0] == "parsed"
    assert got == want


@given(data=st.data(), doc=any_doc())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_match_the_reference(data, doc):
    """One to three mutations, so a document may be malformed in several
    places: the same one is named, with the same message and type."""
    parse, reference, _ = KINDS[kind_of(doc)]
    for kind in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        doc = data.draw(mutated(doc, kind))
    assert outcome(parse, doc) == outcome(reference, doc)


def test_first_malformed_entry_is_named_in_document_order():
    """A bad weight of a later term, and bad entries in a later slot of an
    earlier term and an earlier slot of a later term: the earliest term wins,
    then its earliest slot."""
    doc = decomposition_document(werner_separable_decomposition(2, 3))
    doc["terms"][3]["factors"][0][1][0] = [1.0, True]
    doc["terms"][2]["factors"][2][0][1] = [1.0]
    doc["terms"][4]["weight"] = "1"
    with pytest.raises(FileFormatError, match=r"^term 2, factor 2: entry \(0,1\) must be"):
        parse_decomposition_document(doc)
    doc["terms"][2]["factors"][2][0][1] = [0.0, 0.0]
    with pytest.raises(FileFormatError, match=r"^term 3, factor 0: entry \(1,0\) must be"):
        parse_decomposition_document(doc)
    doc["terms"][3]["factors"][0][1][0] = [0.0, 0.0]
    with pytest.raises(FileFormatError, match=r"^term 4: weight must be a number$"):
        parse_decomposition_document(doc)


def invalid_text(data, doc, kind):
    """``doc`` as JSON text, truncated or with one mutation of ``kind``."""
    if kind == "truncate":
        text = json.dumps(doc)
        return text[: data.draw(st.integers(0, len(text) - 1))]
    assume(candidates(doc, kind))
    return json.dumps(data.draw(mutated(doc, kind)))


@given(data=st.data(), doc=any_doc(min_terms=1), kind=st.sampled_from(MUTATIONS + ["truncate"]))
@settings(max_examples=200, deadline=None)
def test_every_mutation_is_a_format_or_value_error(data, doc, kind, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(invalid_text(data, doc, kind), encoding="utf-8")
    _, _, read = KINDS[kind_of(doc)]
    # FileFormatError is a ValueError; anything else fails the test.
    with pytest.raises(ValueError):
        read(path)


@given(
    data=st.data(),
    doc=st.one_of(square_docs("matrix"), square_docs("coefficients")),
    kind=st.sampled_from(MUTATIONS + ["truncate"]),
)
@settings(max_examples=100, deadline=None)
def test_cli_exits_2_or_3_on_every_mutation(data, doc, kind, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(invalid_text(data, doc, kind), encoding="utf-8")
    if "matrix" in doc:
        commands = [["transform", "--input", str(path)], ["certify", "--input", str(path), "--all"]]
    else:
        commands = [["transform", "--input", str(path), "--direction", "from-spin"]]
    for argv in commands:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert main(argv) in (2, 3)
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_format_version_must_be_the_integer_one(kind, version, tmp_path, capsys):
    doc = {
        "matrix": {"format_version": 1, "dims": [2], "matrix": [[[0.5, 0]] * 2] * 2},
        "coefficients": {"format_version": 1, "dims": [2], "coefficients": [[[1, 0]] * 2] * 2},
        "terms": decomposition_document(werner_separable_decomposition(2, 2)),
    }[kind]
    parse, reference, read = KINDS[kind]
    assert parse(doc) is not None
    doc["format_version"] = version
    for parser in (parse, reference):
        named = re.escape(f"unsupported format version {version!r}")
        with pytest.raises(FileFormatError, match=named):
            parser(doc)
    if kind != "terms":
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = ["transform", "--input", str(path)]
        assert main(argv + (["--direction", "from-spin"] if kind == "coefficients" else [])) == 2
        assert "unsupported format version" in capsys.readouterr().err


def test_empty_terms_read_back_as_zero_columns(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"format_version": 1, "dims": [2, 3], "terms": []}))
    dec = read_decomposition_file(path)
    assert dec.weights.shape == (0,) and dec.index.shape == (0, 2)
    assert [(f.shape, f.dtype) for f in dec.factors] == [((0, 2, 2), complex), ((0, 3, 3), complex)]
    assert dec.terms == ()
    empty = dec.assemble()
    assert empty.shape == (6, 6) and empty.dtype == complex and not empty.any()
    target = DensityMatrix(np.eye(6, dtype=complex) / 6, DimVector((2, 3)))
    result = verify_decomposition(dec, target)
    assert not result and result.failure == "weights sum to 0, expected 1"


def test_nan_factor_entry_parses_then_fails_verification(tmp_path):
    dec = werner_separable_decomposition(2, 3)
    doc = decomposition_document(dec)
    doc["terms"][2]["factors"][1][0][1] = [math.nan, 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    parsed = read_decomposition_file(path)
    assert np.isnan(parsed.terms[2].factors[1][0, 1])
    target = werner_density(WernerSpec(2, 3, werner_threshold(2, 3)))
    result = verify_decomposition(parsed, target)
    assert not result and result.failure.startswith("term 2, factor 1: ")
