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
    Tolerance,
    WernerSpec,
    random_density,
    sufficient_certificate,
    verify_decomposition,
    werner_density,
)
from spinsep.io import read_decomposition_file

from conftest import mixed_to_norm
from reference_terms import from_terms
from reference_verifier import reference_assemble, reference_verify

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "docs" / "examples"
TOL = Tolerance()
SHAPES = [
    (2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 4), (3, 2, 2), (2, 2, 2, 2), (2, 3, 2, 2),
    (2, 2, 2, 2, 2),
]


def random_decomposition(dims, seed, n_terms, pool):
    """A mixture drawing each factor from a per-slot pool.  A pool smaller
    than n_terms makes factors and whole factor tuples repeat; a pool of
    n_terms gives every term its own factor in every slot.  The target is
    the reference assembly."""
    rng = np.random.default_rng(seed)
    pools = [[random_density(DimVector((d,)), rng).matrix for _ in range(pool)] for d in dims]
    weights = rng.random(n_terms) + 0.05
    weights /= weights.sum()
    picks = [rng.choice(pool, n_terms, replace=pool < n_terms) for _ in dims]
    terms = tuple(
        ProductTerm(float(w), tuple(p[k] for p, k in zip(pools, ks)))
        for w, *ks in zip(weights, *picks)
    )
    dec = from_terms(DimVector(dims), terms)
    return dec, DensityMatrix(reference_assemble(dec), dec.dims)


def _with_terms(dec, terms):
    return from_terms(dec.dims, tuple(terms))


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
        pool=st.integers(min_value=1, max_value=24),
        variant=st.sampled_from(sorted(VARIANTS)),
    )
    @settings(max_examples=200, deadline=None)
    def test_verdict_and_reconstruction(self, dims, seed, n_terms, pool, variant):
        # A pool of n_terms or more: every factor distinct.
        dec, target = random_decomposition(dims, seed, n_terms, min(pool, n_terms))
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
        """A passing verify screens each slot in one eigenvalue call and
        formats no failure through check_density."""
        import spinsep.decompositions as decompositions

        dec = read_decomposition_file(GOLDEN_DIR / "werner_2qubit_third.decomposition.json")
        w = werner_density(WernerSpec(2, 2, 1 / 3))
        checks, solves = [], []
        real_check, real_solve = decompositions.check_density, np.linalg.eigvalsh
        monkeypatch.setattr(
            decompositions, "check_density", lambda m, *a: checks.append(1) or real_check(m, *a)
        )
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solves.append(len(m)) or real_solve(m))
        assert verify_decomposition(dec, w)
        assert checks == []
        assert 1 <= len(solves) <= len(dec.dims)
        assert sum(solves) == sum(len(slot) for slot in dec.factors)


@pytest.mark.parametrize("reshape", [True, False])
def test_repeated_bytes_in_the_wrong_shape_or_slot_rejected(reshape):
    """A factor equal in bytes to a valid one, but in the wrong shape or in
    a slot of another dimension, is refused when the decomposition is built."""
    if reshape:
        dims, named = DimVector((4, 2)), "slot 0: a factor is not 4 x 4"
        first = np.eye(4, dtype=complex) / 4
        second = (first.reshape(2, 8), np.eye(2, dtype=complex) / 2)
    else:
        dims, named = DimVector((2, 3)), "slot 1: a factor is not 3 x 3"
        first = np.eye(2, dtype=complex) / 2
        second = (np.eye(2, dtype=complex) / 2, first)
    terms = (
        ProductTerm(0.5, (first, np.eye(dims[1], dtype=complex) / dims[1])),
        ProductTerm(0.5, second),
    )
    with pytest.raises(ValueError, match=named):
        from_terms(dims, terms)


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
