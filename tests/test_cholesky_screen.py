"""The shifted Cholesky screen of ``check_density`` against the eigvalsh-only
reference.

A single matrix that passes the Hermitian and trace gates returns as soon
as 2(H + tau I) factorises, H = (m + m^dag)/2.  The screen must never change
an outcome: on matrices whose lowest eigenvalue sits at zero, just inside
and just outside -abs_eps, or at small positive values, and on Werner
partial transposes at the threshold, ``check_density`` returns or raises
exactly what ``reference_check_density`` does, at the default tolerance,
under ``--tol 1e-6`` and under the smallest ``--tol``, where tau <= 0.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep import (
    DEFAULT_TOLERANCE,
    DimVector,
    InvalidDensityError,
    NegativeEigenvalueError,
    WernerSpec,
    check_density,
    partial_transpose,
    werner_density,
    werner_threshold,
)
from spinsep.cli import MIN_TOL, _tolerance

from reference_density import outcome, reference_check_density

TOLERANCES = [DEFAULT_TOLERANCE, _tolerance(1e-6), _tolerance(MIN_TOL)]
TOL_IDS = ["default", "tol-1e-6", "tol-min"]
SHAPES = [(2,), (3,), (2, 2), (2, 3), (2, 2, 2), (3, 3), (4, 2), (3, 3, 3)]


def with_lowest(lowest, n, rng):
    """A Hermitian n x n matrix of trace one whose lowest eigenvalue is
    ``lowest``: U diag(e) U^dag for a random unitary U, symmetrised."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    rest = rng.uniform(0.5, 1.5, n - 1)
    e = np.concatenate([[lowest], rest / rest.sum() * (1.0 - lowest)])
    m = (q * e) @ q.conj().T
    return (m + m.conj().T) / 2


def lowest_values(eps):
    at_bound = st.sampled_from([0.0, -eps * (1 + 1e-3), -eps * (1 - 1e-3)])
    return st.one_of(at_bound, st.floats(min_value=1e-15, max_value=1e-3))


@st.composite
def cases(draw):
    k = draw(st.integers(0, len(TOLERANCES) - 1))
    lowest = draw(lowest_values(TOLERANCES[k].abs_eps))
    return k, lowest, DimVector(draw(st.sampled_from(SHAPES))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_outcome_equals_the_eigvalsh_reference(case):
    k, lowest, dims, seed = case
    m = with_lowest(lowest, dims.size, np.random.default_rng(seed))
    tol = TOLERANCES[k]
    assert outcome(check_density, m, dims, tol) == outcome(reference_check_density, m, dims, tol)


@pytest.mark.parametrize("tol", TOLERANCES, ids=TOL_IDS)
@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
def test_werner_partial_transposes_at_the_threshold(tol, p, n):
    """For p = n = 2 the lowest eigenvalue of the partial transpose is 0."""
    rho = werner_density(WernerSpec(p, n, werner_threshold(p, n)))
    for r in range(1, n + 1):
        pt = partial_transpose(rho, r)
        got = outcome(check_density, pt, rho.dims, tol)
        assert got == outcome(reference_check_density, pt, rho.dims, tol)


class _EigvalshCalled(Exception):
    pass


def test_the_screen_is_taken(monkeypatch):
    """Werner (5,3) validates without a spectrum at the default tolerance;
    under --tol 1e-14 tau is negative and the spectrum decides."""
    def eigvalsh(*args, **kwargs):
        raise _EigvalshCalled

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    rho = werner_density(WernerSpec(5, 3, werner_threshold(5, 3)))
    assert check_density(rho.matrix, rho.dims).matrix.shape == (125, 125)
    with pytest.raises(_EigvalshCalled):
        check_density(rho.matrix, rho.dims, _tolerance(1e-14))


@pytest.mark.parametrize(
    "scale, raised", [(1e200, NegativeEigenvalueError), (1e308, InvalidDensityError)]
)
def test_huge_entries_raise_no_warning(scale, raised):
    """Hermitian with trace one, so only the size of the entries (and so
    tau <= 0) keeps the screen out."""
    m = np.full((4, 4), scale, dtype=complex)
    np.fill_diagonal(m, 0.25)
    dims = DimVector((2, 2))
    expected = outcome(reference_check_density, m, dims)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(check_density, m, dims) == expected
    assert expected[0] is raised


# tau = abs_eps - n(n+1) 2^-52 (3 n max|part| + abs_eps), here for I/n,
# whose largest part is 1/n.  A valid DimVector has n >= 2.
@pytest.mark.parametrize(
    "dims, tau",
    [((2,), 9.999960032e-10), ((5, 5, 5), 9.895083924e-10), ((3,) * 6, 6.455035677e-10)],
    ids=["n=2", "n=125", "n=729"],
)
def test_shift_is_pinned(monkeypatch, dims, tau):
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda h: factored.append(h) or cholesky(h))
    dims = DimVector(dims)
    m = np.eye(dims.size, dtype=complex) / dims.size
    check_density(m, dims)
    (twice,) = factored  # 2(H + tau I), H = m here
    assert twice[0, 0].real / 2 - m[0, 0].real == pytest.approx(tau, rel=1e-7)
    assert (twice - np.diag(twice.diagonal()) == 0).all()
