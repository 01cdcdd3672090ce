"""The spin transform, the certificate's slot contractions and ``assemble``
contract with ``np.dot`` on the operands ``np.tensordot`` builds, so every
result equals the tensordot form's (tests/reference_contractions.py) bit for
bit, compared through ``view(np.int64)``.  ``assemble`` sorts its rows by a
packed key where the reference lexsorts them, into the same order.  From b = 2 up, tensordot hands
dot the certificate's grid as a transposed (Fortran-order) view, not a copy,
and so does the library; the b = 2 examples pin that case."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsep import DimVector, SeparableDecomposition, sufficient_certificate
from spinsep.spin import fourier_table
from spinsep.transform import _apply_factored

from conftest import mixed_to_norm
from reference_contractions import apply_factored, assemble, certificate_witness


@st.composite
def shapes(draw, most=64):
    """b = 1..5 dims of 2..7 levels each, at most ``most`` levels in all."""
    dims = []
    for left in reversed(range(draw(st.integers(1, 5)))):  # slots still to draw after this one
        dims.append(draw(st.integers(2, min(7, most // 2**left))))
        most //= dims[-1]
    return DimVector(draw(st.permutations(dims)))


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape and got.dtype == expected.dtype
    np.testing.assert_array_equal(bits(got), bits(expected))


@settings(max_examples=80, deadline=None)
@given(
    dims=shapes(),
    columns=st.sampled_from([1, 3, None]),
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=DimVector((2, 3)), columns=None, fortran=False, seed=0)
@example(dims=DimVector((7,)), columns=None, fortran=True, seed=1)
def test_apply_factored_is_tensordot_bit_for_bit(dims, columns, fortran, seed):
    """Forward (conjugated) and inverse transforms of an (N, M) table, M = 1,
    3 or N, held in C or Fortran order."""
    n, rng = dims.size, np.random.default_rng(seed)
    table = rng.normal(size=(n, columns or n)) + 1j * rng.normal(size=(n, columns or n))
    if fortran:
        table = np.asfortranarray(table)
    for mats in ([fourier_table(d).conj() for d in dims], [fourier_table(d) for d in dims]):
        assert_same_bits(_apply_factored(mats, table, dims), apply_factored(mats, table, dims))


@settings(max_examples=40, deadline=None)
@given(
    dims=shapes(),
    norm=st.sampled_from([0.4, 0.95, 1.0]) | st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=DimVector((2, 3)), norm=0.95, seed=0)
@example(dims=DimVector((2, 2)), norm=1.0, seed=1)
def test_certificate_is_tensordot_bit_for_bit(dims, norm, seed):
    rho = mixed_to_norm(dims, norm, np.random.default_rng(seed))
    expected, got = certificate_witness(rho), sufficient_certificate(rho).witness
    if expected is None:
        assert got is None
        return
    assert_same_bits(got.weights, expected.weights)
    assert got.index.tobytes() == expected.index.tobytes()
    assert [f.tobytes() for f in got.factors] == [f.tobytes() for f in expected.factors]


@settings(max_examples=80, deadline=None)
@given(
    dims=shapes(),
    terms=st.integers(1, 60),
    most=st.integers(1, 40),
    own=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=DimVector((2, 3)), terms=40, most=40, own=False, seed=0)
@example(dims=DimVector((2, 2)), terms=30, most=1, own=True, seed=1)
def test_assemble_is_tensordot_bit_for_bit(dims, terms, most, own, seed):
    """Random rows over up to ``most`` factors a slot, or (``own``) every term
    with factors of its own, which takes the per-sub-run products and a
    meeting below the last slot."""
    rng = np.random.default_rng(seed)
    counts = [terms] * len(dims) if own else rng.integers(1, most + 1, len(dims))
    index = np.stack(
        [rng.permutation(k) if own else rng.integers(0, k, terms) for k in counts], axis=1
    )
    factors = [rng.normal(size=(k, d, d, 2)).view(complex)[..., 0] for k, d in zip(counts, dims)]
    dec = SeparableDecomposition(dims, rng.random(terms), index, factors)
    assert_same_bits(dec.assemble(), assemble(dec))


@settings(max_examples=80, deadline=None)
@given(
    dims=shapes(),
    terms=st.integers(1, 80),
    pool=st.integers(1, 80),
    ordered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=DimVector((2, 2)), terms=60, pool=3, ordered=False, seed=0)
@example(dims=DimVector((3, 2, 2)), terms=50, pool=10, ordered=True, seed=1)
def test_packed_key_sorts_as_lexsort_bit_for_bit(dims, terms, pool, ordered, seed):
    """Rows drawn from a pool of ``pool`` rows, so that many repeat, either
    sorted or shuffled: the stable argsort of the packed key puts equal rows
    in lexsort's order, so every run's weights are summed in the same order."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 9, len(dims))
    rows = np.stack([rng.integers(0, k, pool) for k in counts], axis=1)
    rows = rows[rng.integers(0, pool, terms)]
    if ordered:
        rows = rows[np.lexsort(rows.T[::-1])]
    factors = [rng.normal(size=(k, d, d, 2)).view(complex)[..., 0] for k, d in zip(counts, dims)]
    dec = SeparableDecomposition(dims, rng.random(terms), rows, factors)
    assert_same_bits(dec.assemble(), assemble(dec))


def recording(calls, name):
    """np.<name>, appending (name, length of the last axis) of its input to ``calls``."""
    real = getattr(np, name)

    def call(a, *args, **kwargs):
        calls.append((name, np.shape(a)[-1]))
        return real(a, *args, **kwargs)

    return call


@pytest.mark.parametrize("entries, sort", [(511, "argsort"), (512, "lexsort")])
def test_key_bound_at_2_to_the_63(monkeypatch, entries, sort):
    """Seven qubit slots of 512 terms, each slot using ``entries`` factors:
    511^7 < 2^63 keys fit an int64 and 512^7 = 2^63 do not, so only those
    rows are lexsorted."""
    rng = np.random.default_rng(entries)
    used = [np.r_[np.arange(entries), rng.integers(0, entries, 512 - entries)] for _ in range(7)]
    index = np.stack([rng.permutation(col) for col in used], axis=1)
    factors = [rng.normal(size=(entries, 2, 2, 2)).view(complex)[..., 0] for _ in range(7)]
    dec = SeparableDecomposition(DimVector((2,) * 7), rng.random(512), index, factors)
    assert [len(f) for f in dec.factors] == [entries] * 7
    calls = []
    monkeypatch.setattr(np, "argsort", recording(calls, "argsort"))
    monkeypatch.setattr(np, "lexsort", recording(calls, "lexsort"))
    got = dec.assemble()
    monkeypatch.undo()
    assert [c for c in calls if c[1] == 512] == [(sort, 512)]
    assert_same_bits(got, assemble(dec))
