"""The one renderer, which writes density, coefficient, basis and
decomposition documents: it renders each distinct float once (by its bits,
so -0.0 and 0.0 apart) and sets the strings in layout texts cut from frames
that json.dumps renders.  Against the nested-list references and
json.dumps(indent=2), the byte contract: the same bytes for every matrix
document, on stdout and --output of every command that writes one, and on
certificate witnesses, Werner decompositions, parsed files and random
mixtures; no file on NaN or infinity, and for decompositions none on a
misshapen factor or a missing slot either.  The decomposition writer
renders each distinct stack once for every slot that shares it, writes
ASCII bytes a chunk of whole terms at a time, with a memory peak well below
the file's size, and files read back bit-equal.  The readers
leave the cyclic collector as they found it.  A decomposition read converts
each distinct number text once and reads every number form as json's own
decoder does; density and coefficient reads keep that decoder."""

import gc
import json
import math
import os
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsep import (
    DimVector,
    ProductTerm,
    SeparableDecomposition,
    WernerSpec,
    composite_spin,
    decode,
    from_spin,
    permute_dims,
    reorder_subsystems,
    sufficient_certificate,
    werner_density,
    werner_separable_decomposition,
    werner_threshold,
)
import spinsep.io
from spinsep.cli import main
from spinsep.io import (
    CHUNK_TERMS,
    FileFormatError,
    document_bytes,
    document_text,
    read_coefficients_file,
    read_decomposition_file,
    read_density_file,
    write_decomposition_file,
    write_density_file,
)
from spinsep.transform import SpinCoefficients, spin_table

from conftest import mixed_to_norm
from reference_io import (
    basis_document,
    coefficients_document,
    density_document,
    matrix_entries,
    reference_document,
)
from reference_terms import from_terms


def reference_bytes(dec) -> bytes:
    return (document_text(reference_document(dec)) + "\n").encode("utf-8")


def written_bytes(dec, path) -> bytes:
    write_decomposition_file(path, dec)
    return path.read_bytes()


def slot_reference(dims, terms):
    """Per slot, the distinct (shape, bytes) of the terms' factors in
    first-seen order, and each term's position among them."""
    keys, rows = [{} for _ in dims], []
    for term in terms:
        row = []
        for a, f in enumerate(term.factors):
            f = np.asarray(f, dtype=complex)
            row.append(keys[a].setdefault((f.shape, f.tobytes()), len(keys[a])))
        rows.append(row)
    return [list(k) for k in keys], rows


def assert_same_table(dec):
    """The columns hold the terms' factors, one entry per distinct
    (shape, bytes) in each slot."""
    keys, rows = slot_reference(dec.dims, dec.terms)
    entries = [[(f.shape, f.tobytes()) for f in fs] for fs in dec.factors]
    assert [len(e) for e in entries] == [len(set(e)) for e in entries] == [len(k) for k in keys]
    assert dec.index.shape == (len(rows), len(dec.dims))
    for t, row in enumerate(rows):
        for a, k in enumerate(row):
            assert entries[a][dec.index[t, a]] == keys[a][k]


@pytest.mark.parametrize("norm", [1.0, 0.6])
@pytest.mark.parametrize(
    "dims", [(2, 2), (2, 3), (3, 3), (2, 2, 3), (2, 8), (2, 2, 2, 2, 2)], ids=str
)
def test_certificate_witness_bytes(dims, norm, tmp_path, rng):
    rho = mixed_to_norm(DimVector(dims), norm, rng)
    dec = sufficient_certificate(rho).witness
    if len(dims) == 5:
        # The chunk seams are inside the compared bytes.
        assert len(dec.weights) > CHUNK_TERMS
    assert written_bytes(dec, tmp_path / "dec.json") == reference_bytes(dec)
    assert_same_table(dec)


@pytest.mark.parametrize("chunk", [1, 2, 7, 630, 631])
def test_chunk_seams_bytes(chunk, tmp_path, monkeypatch):
    """Any chunk size gives the same bytes, including one term per chunk,
    a last chunk shorter than the rest and one chunk holding every term."""
    dec = werner_separable_decomposition(5, 3)
    assert len(dec.weights) == 630
    monkeypatch.setattr("spinsep.io.CHUNK_TERMS", chunk)
    monkeypatch.setattr("spinsep.io.CHUNK_BYTES", 1 << 40)
    assert written_bytes(dec, tmp_path / "dec.json") == reference_bytes(dec)


@pytest.mark.parametrize("budget", [1, 1 << 14, 1 << 19])
def test_chunks_hold_about_chunk_bytes(budget, tmp_path, monkeypatch):
    """A W(5,3) term is 6 to 7.5 kB, so CHUNK_TERMS of them would be 1.8 MB:
    a chunk holds as many whole terms as the first fits in the byte budget,
    at least one."""
    dec = werner_separable_decomposition(5, 3)
    monkeypatch.setattr("spinsep.io.CHUNK_BYTES", budget)
    sizes = [len(chunk) for chunk in spinsep.io.decomposition_chunks(dec)][1:]
    assert max(sizes) <= 1.25 * max(budget, 7500)
    assert len(sizes) == 630 if budget == 1 else len(sizes) < 630
    assert written_bytes(dec, tmp_path / "dec.json") == reference_bytes(dec)


def test_writer_memory_stays_below_the_file_size(tmp_path, rng):
    """Neither the whole text nor its encoded copy is ever held: the peak
    is a small fraction of the file, not about twice it."""
    dec = sufficient_certificate(mixed_to_norm(DimVector((2,) * 5), 0.95, rng)).witness
    path = tmp_path / "dec.json"
    tracemalloc.start()
    try:
        write_decomposition_file(path, dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


@pytest.mark.parametrize("below", [False, True])
@pytest.mark.parametrize(
    "p, n", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]
)
def test_werner_decomposition_bytes(p, n, below, tmp_path):
    s = 0.55 * werner_threshold(p, n) if below else None
    dec = werner_separable_decomposition(p, n, s)
    assert written_bytes(dec, tmp_path / "dec.json") == reference_bytes(dec)
    assert_same_table(dec)


def test_empty_decomposition_bytes(tmp_path):
    dec = from_terms(DimVector((2, 3)), ())
    assert written_bytes(dec, tmp_path / "dec.json") == reference_bytes(dec)


def test_content_equal_factors_in_distinct_objects(tmp_path):
    dec = werner_separable_decomposition(3, 3)
    copies = from_terms(
        dec.dims,
        tuple(ProductTerm(t.weight, tuple(np.array(f) for f in t.factors)) for t in dec.terms),
    )
    assert [len(f) for f in copies.factors] == [len(f) for f in dec.factors]
    assert written_bytes(copies, tmp_path / "copies.json") == reference_bytes(dec)
    assert_same_table(copies)


def test_mixed_slot_dimensions(tmp_path):
    """One 2x2 object in both 2-level slots: each slot keeps its own
    entries, and each renders from its own d x d template.  The same
    object in the 3-level slot is refused when the decomposition is built."""
    a = np.diag([0.25, 0.75]).astype(complex)
    b = np.eye(3, dtype=complex) / 3
    c = np.diag([0.5, 0.25, 0.25]).astype(complex)
    dims = DimVector((2, 3, 2))
    terms = (
        ProductTerm(0.5, (a, b, a)),
        ProductTerm(0.25, (a, c, np.array(a))),
        ProductTerm(0.25, (np.eye(2) / 2, b, a)),
    )
    dec = from_terms(dims, terms)
    assert dec.index.tolist() == [[0, 0, 0], [0, 1, 0], [1, 0, 0]]
    assert [slot.shape for slot in dec.factors] == [(2, 2, 2), (2, 3, 3), (1, 2, 2)]
    assert written_bytes(dec, tmp_path / "dec.json") == reference_bytes(dec)
    assert_same_table(dec)
    with pytest.raises(ValueError, match="slot 1: a factor is not 3 x 3"):
        from_terms(dims, (ProductTerm(1.0, (a, a, a)),))


FLOAT_FORMS = [-0.0, 0.0, 5e-324, 1e-07, 1e16, 1.7976931348623157e308, 0.1 + 0.2]


def test_float_forms_as_weights_and_entries(tmp_path):
    """Each float form the factor template and the weight column must spell
    as json.dumps does: both signed zeros in one document, subnormal,
    exponents both ways, the largest double and a shortest repr of 17
    digits."""
    factor = np.array(FLOAT_FORMS + [1.0]).view(complex).reshape(2, 2)
    other = np.array(FLOAT_FORMS[::-1] + [-2.0]).view(complex).reshape(2, 2)
    terms = tuple(ProductTerm(w, (factor, other)) for w in FLOAT_FORMS)
    dec = from_terms(DimVector((2, 2)), terms)
    assert written_bytes(dec, tmp_path / "dec.json") == reference_bytes(dec)


def test_one_term_bytes(tmp_path):
    """The document's header and tail fold into the same row."""
    dec = from_terms(
        DimVector((2, 3)), (ProductTerm(1.0, (np.eye(2) / 2, np.eye(3) / 3)),)
    )
    assert written_bytes(dec, tmp_path / "dec.json") == reference_bytes(dec)


def test_non_square_factor_bytes(tmp_path):
    """A factor whose shape is not its slot's square is refused when the
    decomposition is built, so the writer never renders one."""
    wide = np.arange(6).reshape(2, 3) / 6 + 0.5j
    terms = (
        ProductTerm(0.5, (wide, np.eye(2) / 2)),
        ProductTerm(0.5, (np.eye(2) / 2, wide.T)),
    )
    with pytest.raises(ValueError, match="slot 0: a factor is not 2 x 2"):
        from_terms(DimVector((2, 2)), terms)


def test_one_encoder_call_per_frame(tmp_path, rng, monkeypatch):
    """The 2x8 witness has over a hundred distinct factors of two shapes; the
    writer calls json.dumps once for the two-term frame on its dims and once
    for the 2 x 2 matrix frame at a factor's depth, whatever the shapes, and
    not at all once both are cached."""
    dec = sufficient_certificate(mixed_to_norm(DimVector((2, 8)), 1.0, rng)).witness
    expected = reference_bytes(dec)
    assert sum(map(len, dec.factors)) > 100
    calls = []
    dumps = json.dumps

    def counting(*args, **kwargs):
        calls.append(args)
        return dumps(*args, **kwargs)

    monkeypatch.setattr("spinsep.io.json.dumps", counting)
    spinsep.io._texts.cache_clear()
    assert written_bytes(dec, tmp_path / "dec.json") == expected
    assert len(calls) == 2
    assert written_bytes(dec, tmp_path / "again.json") == expected
    assert len(calls) == 2


PURE = np.diag([1.0, 0.0])


@pytest.mark.parametrize(
    "build, stacks",
    [
        (lambda: werner_separable_decomposition(5, 3), 1),
        (lambda: werner_separable_decomposition(2, 6, 0.01), 1),
        (lambda: from_terms(DimVector((2, 2)), [ProductTerm(1.0, (np.eye(2) / 2, PURE))]), 2),
    ],
    ids=["werner-5-3", "werner-2-6", "two-stacks"],
)
def test_each_distinct_stack_rendered_once(build, stacks, tmp_path, monkeypatch):
    """Slots sharing one stack share its rendered blocks; each slot still
    opens its own block, so the bytes are the reference's."""
    dec = build()
    assert len({id(slot) for slot in dec.factors}) == stacks
    calls, blocks = [], spinsep.io._blocks
    monkeypatch.setattr(spinsep.io, "_blocks", lambda *args: calls.append(args) or blocks(*args))
    assert written_bytes(dec, tmp_path / "dec.json") == reference_bytes(dec)
    assert len(calls) == stacks


def test_chunks_are_ascii_bytes(rng):
    dec = sufficient_certificate(mixed_to_norm(DimVector((2, 3)), 0.7, rng)).witness
    chunks = list(spinsep.io.decomposition_chunks(dec))
    assert all(type(chunk) is bytes and chunk.isascii() for chunk in chunks)
    assert b"".join(chunks) + b"\n" == reference_bytes(dec)


def test_decomposition_read_back_from_a_file(tmp_path, rng):
    rho = mixed_to_norm(DimVector((2, 2, 2)), 1.0, rng)
    first = tmp_path / "first.json"
    write_decomposition_file(first, sufficient_certificate(rho).witness)
    parsed = read_decomposition_file(first)
    assert written_bytes(parsed, tmp_path / "second.json") == first.read_bytes()
    assert first.read_bytes() == reference_bytes(parsed)
    assert_same_table(parsed)


# Also from a small pool, so values, signed zeros and the least subnormal
# included, repeat across weights, slots and entries.
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 0.5, 1e-07, 5e-324]
)


@st.composite
def decompositions(draw):
    """Small mixtures of arbitrary finite matrices, drawn from a per-slot
    pool so objects and contents repeat, some as fresh copies; when tied,
    slots of one dimension hold equal factors in every term, so they share
    a stack."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3))
    tied = draw(st.booleans())
    pools = [
        [
            np.array(draw(st.lists(finite, min_size=2 * d * d, max_size=2 * d * d)))
            .view(complex)
            .reshape(d, d)
            for _ in range(draw(st.integers(1, 3)))
        ]
        for d in dims
    ]
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        factors = []
        for pool in pools:
            f = pool[draw(st.integers(0, len(pool) - 1))]
            factors.append(np.array(f) if draw(st.booleans()) else f)
        if tied:
            factors = [factors[dims.index(d)] for d in dims]
        terms.append(ProductTerm(draw(finite), tuple(factors)))
    return from_terms(DimVector(tuple(dims)), tuple(terms))


@given(dec=decompositions())
@settings(max_examples=100, deadline=None)
def test_random_decomposition_bytes(dec, tmp_path_factory):
    path = tmp_path_factory.mktemp("random") / "dec.json"
    assert written_bytes(dec, path) == reference_bytes(dec)
    assert_same_table(dec)


@given(dec=decompositions())
@settings(max_examples=100, deadline=None)
def test_written_files_read_back_bit_equal(dec, tmp_path_factory):
    """Whatever finite decomposition the constructor accepts, the reader
    takes back from the writer with the same weights and per-term factors,
    bit for bit."""
    path = tmp_path_factory.mktemp("round-trip") / "dec.json"
    write_decomposition_file(path, dec)
    parsed = read_decomposition_file(path)
    assert parsed.weights.tobytes() == dec.weights.tobytes()
    for a, (slot, read) in enumerate(zip(dec.factors, parsed.factors, strict=True)):
        assert read[parsed.index[:, a]].tobytes() == slot[dec.index[:, a]].tobytes()


# Every float form json.dumps spells: signed zeros, subnormals, 1e+-300,
# integral floats (the integers map to their nearest doubles) and the rest.
matrix_floats = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 0.1])
    | st.integers(-(2**60), 2**60).map(float)
)


def complex_stack(draw, t: int, r: int, c: int) -> np.ndarray:
    values = draw(st.lists(matrix_floats, min_size=2 * t * r * c, max_size=2 * t * r * c))
    return np.array(values).view(complex).reshape(t, r, c)


@given(data=st.data(), dims=st.sampled_from([(2,), (3,), (2, 2), (2, 3), (5,), (2, 2, 2)]))
@settings(max_examples=150, deadline=None)
def test_matrix_documents_render_as_json_dumps(data, dims):
    """Density, coefficient and basis documents, as ``document_bytes`` renders
    them, are json.dumps(reference, indent=2) byte for byte; the density
    document also for a real matrix and for one that is not square."""
    dims, n = DimVector(dims), math.prod(dims)
    table = complex_stack(data.draw, 1, n, n)[0]
    coefficients = SpinCoefficients(dims, table)
    got = document_bytes(dims, "coefficients", "{}", [table])
    assert got == document_text(coefficients_document(coefficients)).encode()
    stack = complex_stack(data.draw, data.draw(st.integers(1, 3)), n, n)
    labels = [(j, (3 * j + 1) % (n * n)) for j in range(len(stack))]
    frame = [{"j": j, "k": k, "matrix": "{}"} for j, k in labels]
    got = document_bytes(dims, "matrices", frame, stack)
    assert got == document_text(basis_document(dims, labels, stack)).encode()
    shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    for m in (table, complex_stack(data.draw, 1, *shape)[0], table.real):
        expected = document_text(density_document(m, dims)).encode()
        assert document_bytes(dims, "matrix", "{}", [m]) == expected


@pytest.mark.parametrize(
    "entry", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, -np.inf)], ids=str
)
def test_write_density_file_refuses_non_finite_entries(entry, tmp_path, monkeypatch):
    """NaN and +-infinity raise ValueError before the file is opened, so
    nothing is left at the path."""
    matrix = np.eye(4, dtype=complex) / 4
    matrix[2, 1] = entry
    opened = []
    monkeypatch.setattr(spinsep.io, "write_file", lambda *args: opened.append(args))
    path = tmp_path / "rho.json"
    refusal = "^a matrix entry is NaN or infinite, which JSON cannot hold$"
    with pytest.raises(ValueError, match=refusal):
        write_density_file(path, matrix, DimVector((2, 2)))
    assert not opened
    assert not path.exists()
    monkeypatch.undo()
    with pytest.raises(ValueError):
        write_density_file(path, matrix, DimVector((2, 2)))
    assert not path.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_document_text_refuses_non_finite(value):
    """Frames and the certify --json report are rendered by document_text,
    which refuses what JSON lacks instead of writing a bare NaN token."""
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        document_text({"l1_norm": value})


# Entries that are not a density's, all finite: the commands write them as they are.
FORMS = np.array([-0.0, 5e-324, 1e300, -1e-300, 2.0, 0.1, 1 / 3, -7.0]).view(complex)


def cli_case(name: str, tmp_path) -> tuple[list[str], dict]:
    """A command that writes a matrix document, and that document's reference."""
    dims = DimVector((2, 3))
    matrix = np.resize(FORMS, 36).reshape(6, 6) * np.arange(1, 37).reshape(6, 6)
    src = tmp_path / "in.json"
    if name == "basis":
        labels = [(j, k) for j in range(6) for k in range(6)]
        mats = [composite_spin(dims, decode(dims, j), decode(dims, k)) for j, k in labels]
        return ["basis", "--dims", "2,3"], basis_document(dims, labels, mats)
    if name == "from-spin":
        coefficients = SpinCoefficients(dims, matrix)
        src.write_text(document_text(coefficients_document(coefficients)))
        argv = ["transform", "--input", str(src), "--direction", "from-spin"]
        return argv, density_document(from_spin(coefficients), dims)
    write_density_file(src, matrix, dims)
    if name == "to-spin":
        argv = ["transform", "--input", str(src), "--direction", "to-spin"]
        return argv, coefficients_document(spin_table(matrix, dims))
    if name == "werner":
        rho = werner_density(WernerSpec(3, 2, 0.1))
        argv = ["werner", "--p", "3", "--n", "2", "--s", "0.1"]
        return argv, density_document(rho.matrix, rho.dims)
    out = reorder_subsystems(matrix, dims, (2, 1))
    argv = ["permute", "--input", str(src), "--sigma", "2,1"]
    return argv, density_document(out, permute_dims(dims, (2, 1)))


@pytest.mark.parametrize(
    "name, output",
    [(name, output) for name in ("basis", "to-spin", "from-spin", "permute") for output in (0, 1)]
    + [("werner", 1)],  # werner writes its density only to --output
)
def test_cli_matrix_documents_are_json_dumps(name, output, tmp_path, capsys):
    """Each command prints, or writes to --output, json.dumps(reference,
    indent=2) and a newline."""
    argv, expected = cli_case(name, tmp_path)
    text = document_text(expected) + "\n"
    path = tmp_path / "out.json"
    assert main(argv + ["--output", str(path)] * output) == 0
    printed = capsys.readouterr().out
    if output:
        assert path.read_bytes() == text.encode()
        assert printed.endswith(f"wrote {path}\n")
    else:
        assert printed == text


class TestCliOutput:
    def test_certify_emit_decomposition(self, tmp_path, rng, capsys):
        rho = mixed_to_norm(DimVector((2, 2, 3)), 1.0, rng)
        src, out = tmp_path / "rho.json", tmp_path / "dec.json"
        write_density_file(src, rho.matrix, rho.dims)
        assert main(["certify", "--input", str(src), "--emit-decomposition", str(out)]) == 0
        assert out.read_bytes() == reference_bytes(sufficient_certificate(rho).witness)

    def test_werner_emit_decomposition(self, tmp_path, capsys):
        out = tmp_path / "dec.json"
        argv = ["werner", "--p", "3", "--n", "3", "--s", "0.05", "--emit-decomposition", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == reference_bytes(werner_separable_decomposition(3, 3, 0.05))


class TestRefusedWithoutAFile:
    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight(self, tmp_path, weight):
        dec = werner_separable_decomposition(2, 2)
        terms = (ProductTerm(weight, dec.terms[0].factors),) + dec.terms[1:]
        path = tmp_path / "dec.json"
        with pytest.raises(ValueError):
            write_decomposition_file(path, from_terms(dec.dims, terms))
        assert not path.exists()

    @pytest.mark.parametrize("entry", [complex(np.nan, 0), complex(0, np.inf), -np.inf])
    def test_non_finite_factor_entry(self, tmp_path, entry):
        dec = werner_separable_decomposition(2, 3)
        last = dec.terms[-1]
        bad = np.array(last.factors[1])
        bad[1, 0] = entry
        terms = dec.terms[:-1] + (ProductTerm(last.weight, (last.factors[0], bad) + last.factors[2:]),)
        path = tmp_path / "dec.json"
        with pytest.raises(ValueError):
            write_decomposition_file(path, from_terms(dec.dims, terms))
        assert not path.exists()

    @pytest.mark.parametrize("where", ["weight", "factor entry"])
    def test_refusal_names_what_is_not_finite(self, tmp_path, where):
        dec = werner_separable_decomposition(2, 2)
        weight, factors = dec.terms[0].weight, dec.terms[0].factors
        if where == "weight":
            weight = np.inf
        else:
            factors = (np.full((2, 2), np.nan), *factors[1:])
        terms = (ProductTerm(weight, factors),) + dec.terms[1:]
        path = tmp_path / "dec.json"
        with pytest.raises(ValueError, match=f"a {where} is NaN or infinite"):
            write_decomposition_file(path, from_terms(dec.dims, terms))
        assert not path.exists()

    def test_nan_weight_in_the_last_term(self, tmp_path):
        dec = werner_separable_decomposition(2, 3)
        last = dec.terms[-1]
        terms = dec.terms[:-1] + (ProductTerm(np.nan, last.factors),)
        path = tmp_path / "dec.json"
        with pytest.raises(ValueError):
            write_decomposition_file(path, from_terms(dec.dims, terms))
        assert not path.exists()

    def test_infinite_entry_in_a_factor_of_the_last_slot_only(self, tmp_path):
        dec = werner_separable_decomposition(2, 3)
        bad = np.array(dec.terms[0].factors[2])
        bad[0, 1] = complex(0, -np.inf)
        terms = (ProductTerm(dec.terms[0].weight, dec.terms[0].factors[:2] + (bad,)),)
        dec = from_terms(dec.dims, terms + dec.terms[1:])
        assert all(np.isfinite(f).all() for slot in dec.factors[:2] for f in slot)
        path = tmp_path / "dec.json"
        with pytest.raises(ValueError):
            write_decomposition_file(path, dec)
        assert not path.exists()

    def test_misshapen_factor(self, tmp_path):
        factors = [[np.full((2, 3), 0.5)], [np.eye(2) / 2]]
        path = tmp_path / "dec.json"
        with pytest.raises(ValueError, match="slot 0: a factor is not 2 x 2"):
            dec = SeparableDecomposition(DimVector((2, 2)), [1.0], [[0, 0]], factors)
            write_decomposition_file(path, dec)
        assert not path.exists()

    @pytest.mark.parametrize("short", ["factors"])
    def test_one_slot_too_few(self, tmp_path, short):
        factors = [[np.eye(2) / 2]]
        path = tmp_path / "dec.json"
        with pytest.raises(ValueError, match=f"^{short} has 1 slot, dims has 2$"):
            dec = SeparableDecomposition(DimVector((2, 2)), [1.0], [[0, 0]], factors)
            write_decomposition_file(path, dec)
        assert not path.exists()

    @pytest.mark.parametrize("extra", ["factors"])
    def test_one_slot_too_many(self, tmp_path, extra):
        factors = [[np.eye(2) / 2]] * 4
        path = tmp_path / "dec.json"
        with pytest.raises(ValueError, match=f"^{extra} has 4 slots, dims has 2$"):
            dec = SeparableDecomposition(DimVector((2, 2)), [1.0], [[0, 0]], factors)
            write_decomposition_file(path, dec)
        assert not path.exists()

    @pytest.mark.parametrize("row, named", [([0], "1 slot"), ([0, 0, 0], "3 slots")])
    def test_index_of_the_wrong_width(self, tmp_path, row, named):
        factors = [[np.eye(2) / 2]] * 2
        path = tmp_path / "dec.json"
        with pytest.raises(ValueError, match=f"^index has {named}, dims has 2$"):
            dec = SeparableDecomposition(DimVector((2, 2)), [1.0], [row], factors)
            write_decomposition_file(path, dec)
        assert not path.exists()

    def test_wrong_factor_count(self, tmp_path):
        dec = werner_separable_decomposition(2, 2)
        terms = dec.terms[:-1] + (ProductTerm(dec.terms[-1].weight, dec.terms[-1].factors[:1]),)
        path = tmp_path / "dec.json"
        with pytest.raises(ValueError, match="1 factors for 2 subsystems"):
            write_decomposition_file(path, from_terms(dec.dims, terms))
        assert not path.exists()


@pytest.mark.parametrize(
    "where, named", [("weight", "term 1: weight"), ("entry", "term 1, factor 0: entry (0,1)")]
)
def test_integer_too_large_for_a_double_is_format_error(where, named, tmp_path):
    doc = reference_document(werner_separable_decomposition(2, 2))
    if where == "weight":
        doc["terms"][1]["weight"] = 10**400
    else:
        doc["terms"][1]["factors"][0][0][1][0] = -(10**400)
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match=re.escape(named)):
        read_decomposition_file(path)


@pytest.mark.parametrize("defect", ["no factors", "no weight", "a list"])
def test_term_without_weight_or_factors_is_format_error(defect, tmp_path):
    doc = reference_document(werner_separable_decomposition(2, 2))
    term = doc["terms"][1]
    doc["terms"][1] = {
        "no factors": {"weight": term["weight"]},
        "no weight": {"factors": term["factors"]},
        "a list": [term["weight"], term["factors"]],
    }[defect]
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match="^term 1: need weight and factors$"):
        read_decomposition_file(path)


# Number texts as a hand-written file may spell them: signed zeros, one
# value in two spellings, exponents in both cases, the least subnormal, a
# double's overflow, integers, and an integer too large for a double.
NUMBER_FORMS = ["-0.0", "0.0", "1e-05", "0.00001", "1E2", "1e+2", "5e-324", "1e400", "1", "0"]
HUGE = str(10**400)


def number_form_documents():
    """Two-term decomposition texts over dims (2,) whose factor entries,
    taken together, spell every form; then every form as the first weight,
    and the huge integer in each place of the first factor."""

    def text(weight, places):
        pairs = [f"[{places[i]}, {places[i + 1]}]" for i in range(0, len(places), 2)]
        factors = [f"[[[{p[0]}, {p[1]}], [{p[2]}, {p[3]}]]]" for p in (pairs[:4], pairs[4:])]
        terms = [f'{{"weight": {w}, "factors": {f}}}' for w, f in zip((weight, "0.5"), factors)]
        return '{"format_version": 1, "dims": [2], "terms": [' + ", ".join(terms) + "]}"

    places = (NUMBER_FORMS * 2)[:16]
    docs = {"entries": text("0.5", places)}
    docs.update({f"weight {w}": text(w, places) for w in NUMBER_FORMS})
    docs["weight huge"] = text(HUGE, places)
    for k in range(8):
        docs[f"huge place {k}"] = text("0.5", places[:k] + [HUGE] + places[k + 1 :])
    return docs


NUMBER_FORM_DOCUMENTS = number_form_documents()


@pytest.mark.parametrize("text", NUMBER_FORM_DOCUMENTS.values(), ids=NUMBER_FORM_DOCUMENTS.keys())
def test_number_forms_read_as_the_stock_decoder_reads_them(text, tmp_path):
    path = tmp_path / "dec.json"
    path.write_text(text)
    try:
        expected = spinsep.io.parse_decomposition_document(json.loads(text))
    except FileFormatError as err:
        with pytest.raises(FileFormatError) as info:
            read_decomposition_file(path)
        assert str(info.value) == str(err)
        return
    got = read_decomposition_file(path)
    assert got.weights.tobytes() == expected.weights.tobytes()
    assert got.index.tobytes() == expected.index.tobytes()
    assert [f.tobytes() for f in got.factors] == [f.tobytes() for f in expected.factors]


def json_read(path):
    """The reader's JSON path, which takes every file that the canonical path declines."""
    io = spinsep.io
    return io._read(path, io.parse_decomposition_document, io._Floats().__getitem__)


def assert_bit_equal(got, expected):
    """Equal weights, index and stacks, bit for bit, and the same slots sharing a stack."""
    assert got.weights.tobytes() == expected.weights.tobytes()
    assert got.index.dtype == expected.index.dtype
    assert got.index.tobytes() == expected.index.tobytes()
    assert [f.shape for f in got.factors] == [f.shape for f in expected.factors]
    assert [f.tobytes() for f in got.factors] == [f.tobytes() for f in expected.factors]
    for dec in (got, expected):
        assert all(not f.flags.writeable for f in dec.factors)
    sharing = [[g is f for g in got.factors] for f in got.factors]
    assert sharing == [[g is f for g in expected.factors] for f in expected.factors]


def count_conversions(monkeypatch) -> list:
    """The number texts that ``_Floats`` converts from now on, in order."""
    missing, misses = spinsep.io._Floats.__missing__, []

    def count(table, text):
        misses.append(text)
        return missing(table, text)

    monkeypatch.setattr(spinsep.io._Floats, "__missing__", count)
    return misses


def test_the_float_table_is_used_where_it_pays(tmp_path, monkeypatch):
    """On the JSON path, one conversion per distinct number text of a
    compact copy of a Werner (3,3) file; the density and coefficient
    readers never touch the table."""
    misses = count_conversions(monkeypatch)
    written, path = tmp_path / "written.json", tmp_path / "dec.json"
    write_decomposition_file(written, werner_separable_decomposition(3, 3))
    texts = set()
    doc = json.loads(written.read_text(), parse_float=lambda t: texts.add(t) or float(t))
    path.write_text(json.dumps(doc))
    got = read_decomposition_file(path)
    assert len(misses) == len(set(misses)) == len(texts) > 1
    assert_bit_equal(got, read_decomposition_file(written))
    misses.clear()
    for key, (read, _, doc) in reader_cases().items():
        if key != "terms":
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(doc))
            read(path)
    assert misses == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: werner_separable_decomposition(3, 3),
        lambda: werner_separable_decomposition(5, 3, 0.001),
        lambda: sufficient_certificate(
            mixed_to_norm(DimVector((2, 2, 3)), 0.8, np.random.default_rng(7))
        ).witness,
    ],
    ids=["werner-3-3", "werner-5-3-below", "certificate-2x2x3"],
)
def test_a_written_file_is_read_by_its_distinct_blocks(build, tmp_path, monkeypatch):
    """The canonical path takes a written file, never the JSON tree: the
    header and then each slot are one json.loads, a slot's holding each of
    its distinct blocks once, and only the numbers in those blocks are
    converted through the float table."""
    path = tmp_path / "dec.json"
    write_decomposition_file(path, build())
    expected = json_read(path)
    loads, parsed = json.loads, []

    def spy(text, **kwargs):
        parsed.append(value := loads(text, **kwargs))
        return value

    def refuse(doc):
        raise AssertionError("a written file reached the JSON path")

    misses = count_conversions(monkeypatch)
    monkeypatch.setattr(spinsep.io, "parse_decomposition_document", refuse)
    monkeypatch.setattr(spinsep.io.json, "loads", spy)
    got = read_decomposition_file(path)
    monkeypatch.undo()
    assert_bit_equal(got, expected)
    assert parsed[0] == spinsep.io.document(got.dims, "terms", [])
    assert [len(mats) for mats in parsed[1:]] == [len(f) for f in got.factors]
    assert sum(map(len, got.factors)) < got.index.size
    blocks = [json.dumps(matrix_entries(m)) for f in got.factors for m in f]
    texts = set(re.findall(r"[-0-9.e+]+", " ".join(blocks)))
    assert len(misses) == len(set(misses)) == len(texts)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_read_once(tmp_path):
    """A named pipe gives its bytes to one read only: a document that is not
    as the writer renders it still reaches the JSON path whole."""
    fifo, copy = tmp_path / "dec.fifo", tmp_path / "dec.json"
    os.mkfifo(fifo)
    copy.write_text(json.dumps(reference_document(werner_separable_decomposition(2, 2))))
    got = []
    threading.Thread(target=fifo.write_bytes, args=(copy.read_bytes(),), daemon=True).start()
    reader = threading.Thread(target=lambda: got.append(read_decomposition_file(fifo)), daemon=True)
    reader.start()
    reader.join(10)
    assert not reader.is_alive()
    assert_bit_equal(got[0], json_read(copy))


def test_goldens_are_read_by_the_canonical_path():
    for path in sorted(Path(__file__).parents[1].glob("docs/examples/*.decomposition.json")):
        assert_bit_equal(spinsep.io._read_canonical(path.read_bytes()), json_read(path))


def test_reader_memory_stays_below_the_json_path(tmp_path):
    """The bracket scan masks one CHUNK_BYTES slice at a time and never holds a
    slot's whole column of block texts: reading a written Werner (5,3) file
    (4.5 MB) peaks no higher than parsing its JSON tree does."""
    path, peaks = tmp_path / "dec.json", []
    write_decomposition_file(path, werner_separable_decomposition(5, 3))
    for read in (read_decomposition_file, json_read):
        read(path)  # the per-shape templates are built outside the measurement
        tracemalloc.start()
        try:
            read(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_a_bracket_dense_file_is_refused_before_its_brackets_are_listed(tmp_path):
    """A valid header and 2 MB of ``[``: the canonical path refuses the first
    slice that holds more brackets than a written file can, so the read holds
    one slice's offsets, not 16 bytes for every bracket of the file, and the
    JSON path names the fault."""
    path = tmp_path / "dense.json"
    no_terms = document_text(spinsep.io.document(DimVector((2, 2)), "terms", []))
    head = no_terms.encode().removesuffix(b"[]\n}") + b"[\n    {"
    path.write_bytes(head + b"[" * 2_000_000)
    with pytest.raises(ValueError, match="more brackets than a written file holds"):
        spinsep.io._read_canonical(path.read_bytes())
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError) as err:
            read_decomposition_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
    assert str(err.value) == (
        f"{path}: Expecting property name enclosed in double quotes: line 8 column 6 (char 73)"
    )


def test_the_densest_written_file_is_read_by_its_blocks():
    """Every float "0.0" and 2 x 2 slots: the most brackets a byte a written
    file holds, over several CHUNK_BYTES slices, stays under the bound."""
    dims = DimVector((2, 2))
    zeros = [np.zeros((1, 2, 2), dtype=complex)] * 2
    dec = SeparableDecomposition(dims, np.zeros(4000), np.zeros((4000, 2), dtype=int), zeros)
    raw = b"".join(spinsep.io.decomposition_chunks(dec)) + b"\n"
    assert len(raw) > 4 * spinsep.io.CHUNK_BYTES
    expected = spinsep.io.parse_decomposition_document(json.loads(raw))
    assert_bit_equal(spinsep.io._read_canonical(raw), expected)


@given(dec=decompositions())
@settings(max_examples=100, deadline=None)
@example(dec=SeparableDecomposition(DimVector((2,)), [], np.zeros((0, 1), dtype=int), [[]]))
@example(
    dec=SeparableDecomposition(
        DimVector((2, 2)),
        [5e-324, -0.0, 0.0],
        [[0, 0], [1, 1], [2, 1]],
        [np.array([[[-0.0, 5e-324]] * 2, [[0.0, 5e-324]] * 2, [[0.0, -5e-324]] * 2])] * 2,
    )
)
def test_the_canonical_path_reads_as_the_json_path(dec, tmp_path_factory):
    """Bit for bit, signed zeros, subnormals and shared stacks included; a
    file with no term is left to the JSON path."""
    path = tmp_path_factory.mktemp("canonical") / "dec.json"
    write_decomposition_file(path, dec)
    expected = json_read(path)
    if not len(dec.weights):
        with pytest.raises(ValueError):
            spinsep.io._read_canonical(path.read_bytes())
    else:
        assert_bit_equal(spinsep.io._read_canonical(path.read_bytes()), expected)
    assert_bit_equal(read_decomposition_file(path), expected)


def _respell(raw: bytes, old: bytes, new: bytes) -> bytes:
    assert old in raw
    return raw.replace(old, new, 1)


def _first_weight(respell):
    """An edit that replaces the first weight's text ``w`` with ``respell(w)``."""

    def edit(raw: bytes) -> bytes:
        w = re.search(rb'"weight": ([^,]+),', raw)
        return raw[: w.start(1)] + respell(w.group(1)) + raw[w.end(1) :]

    return edit


def _redump(raw: bytes, **kwargs) -> bytes:
    return json.dumps(json.loads(raw), **kwargs).encode()


def _swap_first_blocks(raw: bytes) -> bytes:
    """Term 0's two factor blocks in each other's place."""
    start = raw.index(b'"factors": [\n') + len(b'"factors": [\n')
    stop = raw.index(b"\n      ]", start)
    first, second = raw[start:stop].split(b",\n        [")
    return raw[:start] + b"        [" + second + b",\n" + first + raw[stop:]


def _reorder(raw: bytes) -> bytes:
    doc = json.loads(raw)
    terms = [{"factors": t["factors"], "weight": t["weight"]} for t in doc["terms"]]
    return json.dumps({"terms": terms, "dims": doc["dims"], "format_version": 1}, indent=2).encode()


# Edits of a written W(3,2) file, s = 0.1, or of the file BYTE_EDIT_FILES
# names: each file is read as the JSON path reads it, or refused with its
# exception and message.  The two digit edits leave a file as the writer
# renders it, which the canonical path reads.  Brackets in a string or an
# extra key move every bracket rank after them.
BYTE_EDITS = {
    "weight digit": lambda raw: _respell(raw, b'"weight": 0.0', b'"weight": 0.1'),
    "entry digit": lambda raw: _respell(raw, b"1.0,\n", b"2.0,\n"),
    "crlf line ends": lambda raw: raw.replace(b"\n", b"\r\n"),
    "trailing space": lambda raw: _respell(raw, b",\n", b", \n"),
    "trailing space at the end": lambda raw: raw + b" ",
    "no final newline": lambda raw: raw[:-1],
    "data after the final newline": lambda raw: raw + b"x",
    "extra key": lambda raw: _respell(raw, b'{\n      "weight"', b'{\n      "x": 1,\n      "weight"'),
    "extra top-level key": lambda raw: _respell(raw, b'  "dims"', b'  "x": 1,\n  "dims"'),
    "compact re-dump": _redump,
    "reordered keys": _reorder,
    "nan weight": _first_weight(lambda w: b"NaN"),
    # The same double at the written length, which float reads and json refuses.
    "weight without its leading zero": _first_weight(lambda w: w[1:] + b"0"),
    "weight with a plus sign": _first_weight(lambda w: b"+" + w[1:]),
    "string entry": lambda raw: _respell(raw, b"1.0,\n", b'"1",\n'),
    "empty file": lambda raw: b"",
    "extra term key holding ]] in a string": lambda raw: _respell(
        raw, b'{\n      "weight"', b'{\n      "x": "]]",\n      "weight"'
    ),
    "extra term key holding [[]]": lambda raw: _respell(
        raw, b'{\n      "weight"', b'{\n      "x": [[]],\n      "weight"'
    ),
    # As many brackets as a W(3,2) term holds: the count fits whole terms.
    "extra term key holding a term's brackets": lambda raw: _respell(
        raw, b'{\n      "weight"', b'{\n      "x": "%s",\n      "weight"' % (b"]" * 54)
    ),
    "extra top-level key holding brackets": lambda raw: _respell(
        raw, b"\n  ]\n}", b'\n  ],\n  "x": [[1], "]"]\n}'
    ),
    "2x3 blocks of term 0 swapped": _swap_first_blocks,
}
BYTE_EDIT_FILES = {
    "2x3 blocks of term 0 swapped": lambda: sufficient_certificate(
        mixed_to_norm(DimVector((2, 3)), 0.8, np.random.default_rng(3))
    ).witness,
}


@pytest.mark.parametrize("name", BYTE_EDITS)
def test_byte_edits_read_as_the_json_path_reads_them(name, tmp_path):
    path = tmp_path / "dec.json"
    build = BYTE_EDIT_FILES.get(name, lambda: werner_separable_decomposition(3, 2, 0.1))
    write_decomposition_file(path, build())
    path.write_bytes(raw := BYTE_EDITS[name](path.read_bytes()))
    try:
        spinsep.io._read_canonical(raw)
    except Exception:
        assert not name.endswith("digit")
    else:
        assert name.endswith("digit")
    try:
        expected = json_read(path)
    except Exception as err:
        with pytest.raises(type(err)) as info:
            read_decomposition_file(path)
        assert str(info.value) == str(err)
        assert info.type is type(err)
    else:
        assert_bit_equal(read_decomposition_file(path), expected)


def reader_cases():
    """Per document key: its reader, its parser's name and a valid document."""
    half, dims = np.eye(2) / 2, DimVector((2,))
    return {
        "matrix": (read_density_file, "parse_density_document", density_document(half, dims)),
        "coefficients": (
            read_coefficients_file,
            "parse_coefficients_document",
            coefficients_document(SpinCoefficients(dims, half)),
        ),
        "terms": (
            read_decomposition_file,
            "parse_decomposition_document",
            reference_document(werner_separable_decomposition(2, 2)),
        ),
    }


# A dims list that the rows or the factor count do not fit is a ValueError.
MISMATCH = {"matrix": "does not match", "coefficients": "does not match", "terms": "expected 3"}


@pytest.mark.parametrize("paused", [False, True], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["read", "malformed", "dims", "missing"])
@pytest.mark.parametrize("key", list(MISMATCH))
def test_readers_restore_the_collector(key, outcome, paused, tmp_path):
    read, _, doc = reader_cases()[key]
    path = tmp_path / "doc.json"
    if outcome == "dims":
        doc["dims"] = doc["dims"] + [2] if key == "terms" else [3]
    if outcome != "missing":
        path.write_text("{" if outcome == "malformed" else json.dumps(doc))
    was = gc.isenabled()
    if paused:
        gc.disable()
    try:
        if outcome == "read":
            read(path)
        elif outcome == "malformed":
            with pytest.raises(FileFormatError):
                read(path)
        elif outcome == "dims":
            with pytest.raises(ValueError, match=MISMATCH[key]) as info:
                read(path)
            assert not isinstance(info.value, FileFormatError)
        else:
            with pytest.raises(OSError):
                read(path)
        assert gc.isenabled() is not paused
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("key", list(MISMATCH))
def test_readers_parse_with_the_collector_paused(key, tmp_path, monkeypatch):
    read, name, doc = reader_cases()[key]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    parse, seen = getattr(spinsep.io, name), []

    def spy(doc):
        seen.append(gc.isenabled())
        return parse(doc)

    monkeypatch.setattr(spinsep.io, name, spy)
    read(path)
    assert seen == [False]
    assert gc.isenabled()
