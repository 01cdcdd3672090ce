"""Decompositions held by columns: the builders' columns against those
``from_terms`` derives from the same terms, one (K_a, d_a, d_a) complex
stack of pairwise distinct entries per slot from every builder, a
misshapen factor refused at construction, failing factors named at the
first term that uses them, and assembly against the per-term reference."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinsep import (
    DensityMatrix,
    DimVector,
    ProductTerm,
    SeparableDecomposition,
    SpinLabel,
    cyclic_family_decomposition,
    sufficient_certificate,
    valid_generator,
    verify_decomposition,
    werner_separable_decomposition,
    werner_threshold,
)
from spinsep.io import decomposition_document, document_text, parse_decomposition_document

from conftest import mixed_to_norm, residual_flags
from reference_io import reference_document
from reference_terms import from_terms
from reference_verifier import reference_assemble


def per_term(dec):
    """(weight, factor shapes and bytes) of every term, read from the columns."""
    return [
        (w, [(dec.factors[a][k].shape, dec.factors[a][k].tobytes()) for a, k in enumerate(row)])
        for w, row in zip(dec.weights.tolist(), dec.index.tolist())
    ]


def assert_rebuilds(dec):
    rebuilt = from_terms(dec.dims, dec.terms)
    assert per_term(rebuilt) == per_term(dec)
    # Each slot holds one entry per distinct content that its terms use.
    assert [len(slot) for slot in dec.factors] == [len(slot) for slot in rebuilt.factors]
    # Every factor outside the residual, the last term if any, is a subgroup projection.
    assert not any(residual_flags(dec)[:-1])


@settings(max_examples=30, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 2), (2, 2, 2), (2, 2, 3)]),
    norm=st.floats(0.05, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_certificate_columns_rebuild(dims, norm, seed):
    rho = mixed_to_norm(DimVector(dims), norm, np.random.default_rng(seed))
    assert_rebuilds(sufficient_certificate(rho).witness)


@settings(max_examples=30, deadline=None)
@given(
    pn=st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]),
    fraction=st.floats(0.0, 1.0),
)
def test_werner_columns_rebuild(pn, fraction):
    p, n = pn
    dec = werner_separable_decomposition(p, n, fraction * werner_threshold(p, n))
    assert_rebuilds(dec)


@st.composite
def cyclic_families(draw):
    d = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(1, 3))
    labels = [(j, k) for j in range(d) for k in range(d) if valid_generator(d, j, k)]
    u_vec = [SpinLabel(*draw(st.sampled_from(labels))) for _ in range(n)]
    r_vec = [draw(st.integers(-d, 2 * d)) for _ in range(n)]
    return d, n, u_vec, r_vec


@settings(max_examples=40, deadline=None)
@given(family=cyclic_families())
def test_cyclic_family_columns_rebuild(family):
    assert_rebuilds(cyclic_family_decomposition(*family))


def test_residual_is_the_only_maximally_mixed_term():
    dec = werner_separable_decomposition(2, 2, 0.1)
    assert residual_flags(dec) == [False] * (len(dec.weights) - 1) + [True]


def test_signed_zeros_stay_distinct_entries():
    plus = np.diag([1.0, 0.0]).astype(complex)
    minus = plus.copy()
    minus[0, 1] = -0.0
    terms = [ProductTerm(0.5, (plus, plus)), ProductTerm(0.5, (minus, plus))]
    dec = from_terms(DimVector((2, 2)), terms)
    assert [len(slot) for slot in dec.factors] == [2, 1]
    assert dec.index.tolist() == [[0, 0], [1, 0]]
    assert [f.tobytes() for f in dec.factors[0]] == [plus.tobytes(), minus.tobytes()]


class TestFailingFactorNamedAtFirstUse:
    """The bad factor is slot 0's first entry but is first used in slot 1,
    at term 1; slot 0 uses it, or another bad factor, only from term 2 on."""

    good = np.eye(2, dtype=complex) / 2
    bad = np.diag([1.5, -0.5]).astype(complex)
    target = DensityMatrix(np.eye(4, dtype=complex) / 4, DimVector((2, 2)))

    @pytest.mark.parametrize("other", [False, True])
    def test_from_columns(self, other):
        first_bad = np.diag([-0.5, 1.5]).astype(complex) if other else self.bad
        dec = SeparableDecomposition(
            DimVector((2, 2)),
            [0.25, 0.25, 0.5],
            [[1, 0], [1, 1], [0, 0]],
            [[first_bad, self.good], [self.good, self.bad]],
        )
        result = verify_decomposition(dec, self.target)
        assert not result
        assert result.failure.startswith("term 1, factor 1: ")

    @pytest.mark.parametrize("copy", [False, True])
    def test_from_terms(self, copy):
        bad = (lambda: np.array(self.bad)) if copy else (lambda: self.bad)
        terms = (
            ProductTerm(0.25, (self.good, self.good)),
            ProductTerm(0.25, (self.good, bad())),
            ProductTerm(0.5, (bad(), self.good)),
        )
        result = verify_decomposition(from_terms(DimVector((2, 2)), terms), self.target)
        assert not result
        assert result.failure.startswith("term 1, factor 1: ")


@st.composite
def column_arguments(draw):
    """Columns with mixed dims, up to 8 entries per slot and up to 200 terms,
    whose index rows repeat; weights and factors are arbitrary."""
    dims = draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=4))
    sizes = draw(st.lists(st.integers(1, 8), min_size=len(dims), max_size=len(dims)))
    terms = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, sizes, size=(max(1, terms // 2), len(dims)))
    index = rows[rng.integers(0, len(rows), size=terms)]
    factors = [
        [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(k)]
        for d, k in zip(dims, sizes)
    ]
    weights = rng.standard_normal(terms)
    return DimVector(tuple(dims)), weights, index, factors


def random_columns():
    return column_arguments().map(lambda columns: SeparableDecomposition(*columns))


@settings(max_examples=60, deadline=None)
@given(dec=random_columns())
def test_assemble_matches_reference(dec):
    assert np.abs(dec.assemble() - reference_assemble(dec)).max() <= 1e-12


def test_misshapen_factor_refused_at_construction():
    term = ProductTerm(1.0, (np.eye(4).reshape(2, 8) / 4, np.eye(2) / 2))
    with pytest.raises(ValueError, match="slot 0: a factor is not 4 x 4"):
        from_terms(DimVector((4, 2)), (term,))


def test_dims_taken_as_a_dim_vector():
    """A plain tuple is checked and held as a DimVector, so the decomposition
    verifies against a density on the same dims."""
    dec = SeparableDecomposition((2,), [1.0], [[0]], [[np.eye(2) / 2]])
    assert type(dec.dims) is DimVector
    assert verify_decomposition(dec, DensityMatrix(np.eye(2) / 2, DimVector((2,))))
    with pytest.raises(ValueError, match="every dimension must be at least 2"):
        SeparableDecomposition((1,), [1.0], [[0]], [[np.eye(1)]])


@pytest.mark.parametrize("shape", [(3, 2, 3), (3, 3, 3), (0, 3, 3), (3, 4), (3, 2, 2, 1)])
def test_misshapen_stack_refused_at_construction(shape):
    """A slot given as one array: a (K, d, d) stack is checked by its shape,
    any other array factor by factor, with the same message."""
    factors = [np.zeros(shape, dtype=complex), np.eye(2)[None] / 2]
    with pytest.raises(ValueError, match="slot 0: a factor is not 2 x 2"):
        SeparableDecomposition(DimVector((2, 2)), [1.0], [[0, 0]], factors)


def test_a_stacked_slot_is_owned():
    stack = np.array([np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    dec = SeparableDecomposition(DimVector((2,)), [0.5, 0.5], [[2], [1]], [stack])
    assert not np.shares_memory(dec.factors[0], stack)
    assert dec.factors[0].tobytes() == stack[1:].tobytes()
    assert dec.index.tolist() == [[1], [0]]


@pytest.mark.parametrize(
    "entry, message",
    [
        (2, "slot 1: index entry 2 is outside 0..1"),
        (-1, "slot 1: index entry -1 is outside 0..1"),
        (1.5, "slot 0: index entries are float64, not integers"),
    ],
    ids=["out-of-range", "negative", "fractional"],
)
def test_index_entry_outside_its_slot_refused_at_construction(entry, message):
    """An index entry that names no entry of its slot, or an index that is
    not of an integer dtype, raises ValueError naming the slot, instead of
    an IndexError, a bincount error or a silent truncation."""
    mixed, up = np.eye(2) / 2, np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match=f"^{message}$"):
        SeparableDecomposition(DimVector((2, 2)), [1.0], [[0, entry]], [[mixed], [mixed, up]])


INDEX_DEFECTS = ("out-of-range", "negative", "fractional")


@settings(max_examples=40, deadline=None)
@given(
    columns=column_arguments(),
    defect=st.sampled_from([None, "shape", "factors", "index", *INDEX_DEFECTS]),
)
def test_refused_at_construction_or_verified_without_raising(columns, defect):
    """A misshapen factor, a missing slot or an index entry outside its slot
    raises ValueError when the decomposition is built; what is built gets a
    verdict, not an IndexError or a TypeError."""
    dims, weights, index, factors = columns
    assume(defect not in INDEX_DEFECTS or len(index))
    if defect == "shape":
        factors[-1][0] = np.eye(dims[-1] + 1) / (dims[-1] + 1)
    elif defect == "factors":
        factors = factors[:-1]
    elif defect == "index":
        index = index[:, :-1]
    elif defect == "out-of-range":
        index[-1, -1] = len(factors[-1])
    elif defect == "negative":
        index[0, 0] = -1
    elif defect == "fractional":
        index = index + 0.0
        index[-1, -1] += 0.5
    weights = np.abs(weights) / max(np.abs(weights).sum(), 1.0)
    if defect:
        with pytest.raises(ValueError):
            SeparableDecomposition(dims, weights, index, factors)
        return
    dec = SeparableDecomposition(dims, weights, index, factors)
    target = DensityMatrix(np.eye(dims.size, dtype=complex) / dims.size, dims)
    result = verify_decomposition(dec, target)
    assert result.ok in (True, False) and (result.failure is None) == result.ok


@pytest.mark.parametrize(
    "weights, index",
    [([0.5, 0.5], [[0, 0]]), ([1.0], [[0, 0], [0, 0]]), ([[1.0]], [[0, 0]]), (1.0, [[0, 0]])],
    ids=["more-weights", "more-rows", "2-d-weights", "scalar-weight"],
)
def test_weights_are_one_per_index_row(weights, index):
    """Anything but one weight per index row is refused, naming both shapes,
    before a reshape, a verification or a write can fail on it."""
    shapes = f"weights {np.shape(weights)}: need one per row of index {np.shape(index)}"
    with pytest.raises(ValueError, match=f"^{re.escape(shapes)}$"):
        SeparableDecomposition((2, 2), weights, index, [[np.eye(2) / 2]] * 2)


def _parsed():
    rho = mixed_to_norm(DimVector((2, 3)), 0.9, np.random.default_rng(3))
    return parse_decomposition_document(reference_document(sufficient_certificate(rho).witness))


BUILDERS = {
    "certificate": lambda: sufficient_certificate(
        mixed_to_norm(DimVector((3, 2, 2)), 0.8, np.random.default_rng(2))
    ).witness,
    "werner": lambda: werner_separable_decomposition(3, 3, 0.05),
    "werner-2-3": lambda: werner_separable_decomposition(2, 3),
    "werner-2-6": lambda: werner_separable_decomposition(2, 6),
    "cyclic-family": lambda: cyclic_family_decomposition(4, 3, [(1, 0), (1, 1), (3, 2)], [0, 1, 5]),
    "parser": _parsed,
    "from_terms": lambda: from_terms(
        DimVector((2, 3)),
        [ProductTerm(0.5, (np.eye(2), np.ones((3, 3)))), ProductTerm(0.5, (np.eye(2), np.eye(3)))],
    ),
    "from_terms-empty": lambda: from_terms(DimVector((2, 3)), ()),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
def test_each_slot_is_one_complex_stack(build):
    """factors[a] is one (K_a, d_a, d_a) complex array holding the K_a
    entries that slot a's terms use."""
    dec = build()
    assert len(dec.factors) == len(dec.dims)
    for a, (d, slot) in enumerate(zip(dec.dims, dec.factors)):
        assert isinstance(slot, np.ndarray) and slot.dtype == complex
        assert slot.ndim == 3 and slot.shape[1:] == (d, d)
        assert sorted(set(dec.index[:, a].tolist())) == list(range(len(slot)))


@pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
def test_each_slot_holds_each_content_once(build):
    """No two entries of a slot have the same bytes, so ``from_terms``
    rebuilds as many entries as the builder holds."""
    dec = build()
    for slot in dec.factors:
        assert len({f.tobytes() for f in slot}) == len(slot)


@pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
def test_decomposition_document_is_the_reference_document(build):
    """The writer's document, read back, renders as the term-by-term
    reference does, bit for bit in every float."""
    dec = build()
    assert document_text(decomposition_document(dec)) == document_text(reference_document(dec))


@pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
def test_equal_slots_are_one_read_only_stack(build):
    """Two slots hold the same object exactly when their stacks have the
    same shape and bytes, and no stack can be written in place."""
    dec = build()
    for a, first in enumerate(dec.factors):
        assert not first.flags.writeable
        for second in dec.factors[a + 1 :]:
            equal = (first.shape, first.tobytes()) == (second.shape, second.tobytes())
            assert (first is second) == equal


class TestEqualSlotsShareOneStack:
    def test_werner_slots_share_one_stack(self):
        dec = werner_separable_decomposition(3, 3)
        assert dec.factors[0] is dec.factors[1] is dec.factors[2]
        with pytest.raises(ValueError, match="read-only"):
            dec.factors[0][0, 0, 0] = 1.0
        assert verify_decomposition(dec, DensityMatrix(reference_assemble(dec), dec.dims))

    def test_content_equal_slots_given_apart_share_one_stack(self):
        half = np.eye(2) / 2
        dec = SeparableDecomposition((2, 2), [1.0], [[0, 0]], [[half], [np.array(half)]])
        assert dec.factors[0] is dec.factors[1]

    def test_signed_zeros_keep_two_stacks(self):
        plus = np.diag([1.0, 0.0]).astype(complex)
        minus = plus.copy()
        minus[0, 1] = -0.0
        dec = SeparableDecomposition((2, 2), [1.0], [[0, 0]], [[plus], [minus]])
        assert dec.factors[0] is not dec.factors[1]
        assert [slot.tobytes() for slot in dec.factors] == [plus.tobytes(), minus.tobytes()]

    def test_same_bytes_in_another_shape_keep_two_stacks(self):
        """Four 2 x 2 factors and one 4 x 4 factor with the same 16 entries."""
        flat = np.arange(16, dtype=complex)
        index = [[k, 0] for k in range(4)]
        factors = [flat.reshape(4, 2, 2), flat.reshape(1, 4, 4)]
        dec = SeparableDecomposition((2, 4), [0.25] * 4, index, factors)
        assert dec.factors[0].tobytes() == dec.factors[1].tobytes()
        assert [slot.shape for slot in dec.factors] == [(4, 2, 2), (1, 4, 4)]


def traced(call):
    """call() and the tracemalloc peak of what it allocates, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assemble_scratch_memory():
    dec = werner_separable_decomposition(7, 3)
    _, peak = traced(dec.assemble)
    assert peak < 30e6


def test_assemble_scratch_memory_with_distinct_factors():
    """Every term has its own factors, so every run down to depth 1 has one
    term: the scratch memory stays near terms x N, not terms x K_a or N^2."""
    rng = np.random.default_rng(7)
    terms, dims = 300, DimVector((2,) * 7)
    factors = [list(rng.standard_normal((terms, 2, 2)) / 2 + 0j) for _ in dims]
    index = np.tile(np.arange(terms)[:, None], (1, len(dims)))
    dec = SeparableDecomposition(dims, rng.random(terms), index, factors)
    assembled, peak = traced(dec.assemble)
    assert peak < 5e6
    assert np.abs(assembled - reference_assemble(dec)).max() <= 1e-12
