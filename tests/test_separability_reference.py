"""The array certificate expansion and necessary check against the
per-element reference oracle: same terms in the same order, same specs,
weights within 1e-15, and identical necessary-check witnesses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep import (
    INSEPARABLE,
    DimVector,
    Tolerance,
    WernerSpec,
    check_density,
    composite_spin,
    encode,
    necessary_check,
    random_density,
    sufficient_certificate,
    to_spin,
    werner_density,
)
from spinsep.separability import WEIGHT_FLOOR

from conftest import mixed_to_norm
from reference_separability import reference_certificate, reference_necessary

TOL = Tolerance()
SHAPES = [(2, 2), (2, 3), (3, 3), (4, 2), (2, 2, 2), (2, 2, 3)]


def assert_same_witness(rho):
    """The certificate's witness equals the reference's; returns it and the
    reference's number of expansions before merging."""
    dec = sufficient_certificate(rho, TOL).witness
    ref, raw = reference_certificate(rho)
    assert len(dec.terms) == len(ref.terms)
    for i, (term, other) in enumerate(zip(dec.terms, ref.terms)):
        assert [f.tobytes() for f in term.factors] == [f.tobytes() for f in other.factors], i
        assert term.factor_specs == other.factor_specs, i
        assert abs(term.weight - other.weight) <= 1e-15, i
    return dec, raw


def spin_density(dims, coefficients):
    """(I + sum e S_{j,k} + conj(e) S_{j,k}^dag) / N for digit labels (j, k)."""
    n = dims.size
    m = np.eye(n, dtype=complex)
    for (j, k), e in coefficients:
        s = composite_spin(dims, j, k)
        m += e * s + np.conj(e) * s.conj().T
    return check_density(m / n, dims)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from(SHAPES),
    norm=st.floats(0.05, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_certificate_matches_reference(dims, norm, seed):
    rho = mixed_to_norm(DimVector(dims), norm, np.random.default_rng(seed))
    assert_same_witness(rho)


def test_d3_generators_merge_as_in_reference():
    # For d = 3, (1, 2) and (2, 1) generate one subgroup, so the second
    # slot's projections coincide and the two labels' expansions merge.
    dims = DimVector((3, 3))
    rho = spin_density(
        dims, [(((1, 2), (0, 1)), 0.1 + 0.05j), (((1, 1), (0, 2)), -0.08 + 0.1j)]
    )
    dec, raw = assert_same_witness(rho)
    assert dec.terms[-1].factor_specs is None
    assert len(dec.terms) - 1 < raw


def test_coefficient_below_floor_skipped_as_in_reference():
    dims = DimVector((2, 3))
    rho = spin_density(dims, [(((1, 1), (1, 2)), 0.2 + 0.1j), (((0, 1), (1, 0)), 4e-15)])
    tiny = abs(to_spin(rho).table[encode(dims, (0, 1)), encode(dims, (1, 0))])
    assert 0.0 < tiny < WEIGHT_FLOOR
    assert_same_witness(rho)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from(SHAPES),
    purity=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_necessary_matches_reference_on_random(dims, purity, seed):
    # A random pure state mixed with a random full-rank density.
    rng = np.random.default_rng(seed)
    dims = DimVector(dims)
    psi = rng.standard_normal(dims.size) + 1j * rng.standard_normal(dims.size)
    psi /= np.linalg.norm(psi)
    m = purity * np.outer(psi, psi.conj()) + (1.0 - purity) * random_density(dims, rng).matrix
    rho = check_density(m, dims)
    rep = necessary_check(rho, TOL)
    assert (rep.verdict, rep.witness) == reference_necessary(rho, TOL)


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (4, 2), (2, 4), (3, 3), (5, 2)])
@pytest.mark.parametrize("factor", [1.05, 1.5, 3.0])
def test_necessary_matches_reference_on_werner(p, n, factor):
    rho = werner_density(WernerSpec(p, n, min(1.0, factor / (1 + p ** (n - 1)))))
    rep = necessary_check(rho, TOL)
    assert rep.verdict == INSEPARABLE
    assert (rep.verdict, rep.witness) == reference_necessary(rho, TOL)
