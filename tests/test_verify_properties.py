"""The deduplicating verifier against the per-term reference oracle, and the
checks it adds: non-finite factors and weights, exact weight-sum messages,
and certificate witnesses with one term per product."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep import (
    DensityMatrix,
    DimVector,
    ProductTerm,
    SeparableDecomposition,
    Tolerance,
    WernerSpec,
    random_density,
    sufficient_certificate,
    verify_decomposition,
    werner_density,
)
from spinsep.io import read_decomposition_file

from conftest import mixed_to_norm
from reference_verifier import reference_assemble, reference_verify

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "docs" / "examples"
TOL = Tolerance()
SHAPES = [(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 4)]


def random_decomposition(dims, seed, n_terms, pool):
    """A mixture drawing each factor from a small per-slot pool, so factors
    and whole factor tuples repeat; the target is its reference assembly."""
    rng = np.random.default_rng(seed)
    pools = [[random_density(DimVector((d,)), rng).matrix for _ in range(pool)] for d in dims]
    weights = rng.random(n_terms) + 0.05
    weights /= weights.sum()
    terms = tuple(
        ProductTerm(float(w), tuple(p[rng.integers(len(p))] for p in pools)) for w in weights
    )
    dec = SeparableDecomposition(DimVector(dims), terms)
    return dec, DensityMatrix(reference_assemble(dec), dec.dims)


def _with_terms(dec, terms):
    return SeparableDecomposition(dec.dims, tuple(terms))


def copied(dec, rng):
    """Every factor a fresh array, so no two terms share an object."""
    return _with_terms(
        dec, [ProductTerm(t.weight, tuple(np.array(f) for f in t.factors)) for t in dec.terms]
    )


def shuffled(dec, rng):
    return _with_terms(dec, [dec.terms[i] for i in rng.permutation(len(dec.terms))])


def bad_last_factor(dec, rng):
    """A trace-one Hermitian factor with eigenvalue -0.5, in the last term only."""
    *head, last = dec.terms
    a = int(rng.integers(len(dec.dims)))
    d = dec.dims[a]
    bad = np.diag([1.5, -0.5] + [0.0] * (d - 2)).astype(complex)
    factors = last.factors[:a] + (bad,) + last.factors[a + 1:]
    return _with_terms(dec, head + [ProductTerm(last.weight, factors)])


def bumped_weight(dec, rng):
    terms = list(dec.terms)
    i = int(rng.integers(len(terms)))
    terms[i] = ProductTerm(terms[i].weight + 1e-3, terms[i].factors)
    return _with_terms(dec, terms)


VARIANTS = {
    "as-built": (lambda dec, rng: dec, True),
    "copied": (copied, True),
    "shuffled": (shuffled, True),
    "bad-last-factor": (bad_last_factor, False),
    "bumped-weight": (bumped_weight, False),
}


class TestAgreesWithReference:
    @given(
        dims=st.sampled_from(SHAPES),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_terms=st.integers(min_value=1, max_value=24),
        pool=st.integers(min_value=1, max_value=3),
        variant=st.sampled_from(sorted(VARIANTS)),
    )
    @settings(max_examples=150, deadline=None)
    def test_verdict_and_reconstruction(self, dims, seed, n_terms, pool, variant):
        dec, target = random_decomposition(dims, seed, n_terms, pool)
        change, expect_ok = VARIANTS[variant]
        dec = change(dec, np.random.default_rng(seed + 1))
        new = verify_decomposition(dec, target, TOL)
        old = reference_verify(dec, target, TOL)
        assert new.ok == old.ok == expect_ok, (new.failure, old.failure)
        assert np.abs(dec.assemble() - reference_assemble(dec)).max() <= 1e-12

    def test_bad_factor_named_at_its_term(self, rng):
        dec, target = random_decomposition((2, 3), 11, 12, 2)
        broken = bad_last_factor(dec, rng)
        result = verify_decomposition(broken, target)
        assert not result
        assert result.failure.startswith(f"term {len(dec.terms) - 1}, factor ")

    def test_parsed_factors_checked_once_by_content(self, monkeypatch):
        import spinsep.decompositions as decompositions

        dec = read_decomposition_file(GOLDEN_DIR / "werner_2qubit_third.decomposition.json")
        w = werner_density(WernerSpec(2, 2, 1 / 3))
        calls = []
        real = decompositions.check_density
        monkeypatch.setattr(
            decompositions, "check_density", lambda m, *a: calls.append(1) or real(m, *a)
        )
        assert verify_decomposition(dec, w)
        distinct = {f.tobytes() for t in dec.terms for f in t.factors}
        assert len(calls) == len(distinct) < sum(len(t.factors) for t in dec.terms)


@pytest.mark.parametrize("reshape", [True, False])
def test_repeated_bytes_in_the_wrong_shape_or_slot_rejected(reshape):
    """A factor equal in bytes to a valid one is still checked for its slot."""
    if reshape:
        dims = DimVector((4, 2))
        first = np.eye(4, dtype=complex) / 4
        second = (first.reshape(2, 8), np.eye(2, dtype=complex) / 2)
    else:
        dims = DimVector((2, 3))
        first = np.eye(2, dtype=complex) / 2
        second = (np.eye(2, dtype=complex) / 2, first)
    terms = (
        ProductTerm(0.5, (first, np.eye(dims[1], dtype=complex) / dims[1])),
        ProductTerm(0.5, second),
    )
    target = DensityMatrix(np.eye(dims.size, dtype=complex) / dims.size, dims)
    result = verify_decomposition(SeparableDecomposition(dims, terms), target)
    assert not result
    assert result.failure.startswith("term 1, factor ")


class TestNonFinite:
    def golden(self):
        dec = read_decomposition_file(GOLDEN_DIR / "werner_2qubit_third.decomposition.json")
        return dec, werner_density(WernerSpec(2, 2, 1 / 3))

    def test_nan_on_factor_diagonal_rejected(self):
        dec, w = self.golden()
        assert verify_decomposition(dec, w)
        first = dec.terms[0]
        factor = first.factors[0].copy()
        factor[0, 0] = np.nan
        broken = _with_terms(
            dec, [ProductTerm(first.weight, (factor,) + first.factors[1:])] + list(dec.terms[1:])
        )
        result = verify_decomposition(broken, w)
        assert not result
        assert "term 0, factor 0" in result.failure and "non-finite" in result.failure

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, weight):
        dec, w = self.golden()
        terms = list(dec.terms)
        terms[-1] = ProductTerm(weight, terms[-1].factors)
        result = verify_decomposition(_with_terms(dec, terms), w)
        assert not result
        assert result.failure.startswith(f"term {len(terms) - 1}: non-finite weight")


def test_weight_sum_printed_to_full_precision():
    dec, w = TestNonFinite().golden()
    terms = list(dec.terms)
    terms[0] = ProductTerm(terms[0].weight + 4e-16, terms[0].factors)
    result = verify_decomposition(_with_terms(dec, terms), w, Tolerance(abs_eps=1e-17))
    assert not result
    shown = result.failure.split("weights sum to ")[1].split(",")[0]
    assert float(shown) != 1.0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_certificate_witness_has_one_term_per_product(dims, rng):
    rho = mixed_to_norm(DimVector(dims), 0.9, rng)
    dec = sufficient_certificate(rho).witness
    keys = [tuple(f.tobytes() for f in t.factors) for t in dec.terms]
    assert len(set(keys)) == len(keys)
    assert verify_decomposition(dec, rho)
