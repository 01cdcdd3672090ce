import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep import (
    DensityMatrix,
    DimVector,
    InvalidDensityError,
    NegativeEigenvalueError,
    NotHermitianError,
    Tolerance,
    TraceError,
    check_density,
    partial_transpose,
    random_density,
    spin_matrix,
    werner_density,
    WernerSpec,
)
from spinsep.cli import MAX_TOL, MIN_TOL, _tolerance
from spinsep.composite import kron_all
from spinsep.linalg import DEFAULT_TOLERANCE

from conftest import random_matrix
from reference_identities import trace_inner

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(kron_all((np.eye(2), np.eye(2))), np.eye(4, dtype=complex))

    def test_zz_by_hand(self):
        # direct 4x4 expansion of sigma_z (x) sigma_z
        expected = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        assert np.array_equal(kron_all((SIGMA_Z, SIGMA_Z)), expected)

    def test_unit_placement(self):
        # E_{0,0} (x) E_{1,1} puts the single 1 at flat index (0,1) -> 1
        e00 = np.array([[1, 0], [0, 0]], dtype=complex)
        e11 = np.array([[0, 0], [0, 1]], dtype=complex)
        out = kron_all((e00, e11))
        assert out[1, 1] == 1.0 and np.abs(out).sum() == 1.0

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_matrix(2, rng), random_matrix(3, rng), random_matrix(2, rng))
        left, right = kron_all((kron_all((a, b)), c)), kron_all((a, kron_all((b, c))))
        assert np.abs(left - right).max() < 1e-12


class TestTraceInner:
    def test_spin_orthogonality_values(self):
        s11 = spin_matrix(3, 1, 1)
        assert abs(trace_inner(s11, s11) - 3.0) < 1e-12
        assert abs(trace_inner(spin_matrix(3, 1, 0), spin_matrix(3, 0, 1))) < 1e-12

    def test_identity(self):
        for d in (2, 3, 5):
            assert abs(trace_inner(np.eye(d), np.eye(d)) - d) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_inner(np.eye(2), np.eye(3))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_self_pairing_is_frobenius(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(4, rng)
        val = trace_inner(a, a)
        assert abs(val.imag) < 1e-12
        assert val.real >= 0
        assert abs(val.real - np.linalg.norm(a, "fro") ** 2) < 1e-9


class TestTolerance:
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_refuses_non_finite_or_non_positive(self, value):
        with pytest.raises(ValueError, match="tolerances must be finite and strictly positive"):
            Tolerance(value)

    @pytest.mark.parametrize("value", [MIN_TOL, MAX_TOL])
    def test_accepts_the_cli_bounds(self, value):
        assert Tolerance(value).abs_eps == value

    def test_one_init_field(self):
        fields = dataclasses.fields(Tolerance)
        assert [f.name for f in fields if f.init] == ["abs_eps"]
        with pytest.raises(TypeError):
            Tolerance(abs_eps=1e-9, reconstruction_eps=1e-8)

    @pytest.mark.parametrize("value", [MIN_TOL, 1e-6, MAX_TOL])
    def test_reconstruction_bound_is_ten_times(self, value):
        tol = _tolerance(value)
        assert (tol.abs_eps, tol.reconstruction_eps) == (value, 10 * value)
        assert tol == Tolerance(value)

    def test_default(self):
        assert (DEFAULT_TOLERANCE.abs_eps, DEFAULT_TOLERANCE.reconstruction_eps) == (1e-9, 1e-8)
        assert _tolerance(None) is DEFAULT_TOLERANCE


class TestCheckDensity:
    def test_maximally_mixed_accepted(self):
        for d in (2, 3, 4):
            check_density(np.eye(d) / d, DimVector((d,)))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NegativeEigenvalueError) as err:
            check_density(np.diag([1.5, -0.5]).astype(complex), DimVector((2,)))
        assert abs(err.value.worst - (-0.5)) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            check_density(spin_matrix(3, 0, 1), DimVector((3,)))

    def test_trace_rejected(self):
        with pytest.raises(TraceError):
            check_density(np.eye(2).astype(complex), DimVector((2,)))

    def test_dims_product_must_match(self):
        with pytest.raises(ValueError):
            check_density(np.eye(4) / 4, DimVector((2, 3)))
        # DensityMatrix refuses through as_square: a 2x3 matrix, and a 3x3 one on (2, 2).
        for m, dims in [(np.zeros((2, 3)), (2,)), (np.eye(3) / 3, (2, 2))]:
            with pytest.raises(ValueError, match=r"matrix shape \(\d, \d\) does not match size"):
                DensityMatrix(m, DimVector(dims))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_diagonal_rejected(self, value):
        m = np.diag([1.0, 0.0]).astype(complex)
        m[1, 1] = value
        with pytest.raises(InvalidDensityError, match="non-finite"):
            check_density(m, DimVector((2,)))
        with pytest.raises(InvalidDensityError, match="non-finite"):
            DensityMatrix(m, DimVector((2,)))

    @pytest.mark.parametrize(
        "m",
        [
            np.diag([1e308, -1e308, 0.5, 0.5]),  # the solve raises
            np.array([[0.5, 1e308], [1e308, 0.5]]),  # the solve returns NaN
        ],
        ids=["raises", "nan"],
    )
    def test_failed_eigenvalue_solve_rejected(self, m):
        """Hermitian with trace one, but (m + m^dag)/2 overflows."""
        dims = DimVector((2,) * (len(m) // 2))
        with pytest.raises(InvalidDensityError, match="largest entry magnitude is 1.000e"):
            check_density(m.astype(complex), dims)

    def test_tolerance_is_respected(self):
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        check_density(m, DimVector((2,)))  # inside default tolerance
        with pytest.raises(NegativeEigenvalueError):
            check_density(m, DimVector((2,)), Tolerance(abs_eps=1e-12))


class TestPartialTranspose:
    def test_product_state_transposes_factor(self, rng):
        d = DimVector((2, 3))
        r1 = random_density(DimVector((2,)), rng).matrix
        r2 = random_density(DimVector((3,)), rng).matrix
        rho = check_density(kron_all((r1, r2)), d)
        pt = partial_transpose(rho, 2)
        assert np.abs(pt - kron_all((r1, r2.T))).max() < 1e-12
        assert np.linalg.eigvalsh(pt).min() > -1e-12

    def _werner_pt_min_eig(self, s):
        # independent oracle: build the 4x4 partial transpose by explicit
        # index swaps and diagonalise it
        w = werner_density(WernerSpec(2, 2, s)).matrix
        pt = np.empty_like(w)
        for j1 in range(2):
            for j2 in range(2):
                for k1 in range(2):
                    for k2 in range(2):
                        pt[2 * j1 + j2, 2 * k1 + k2] = w[2 * j1 + k2, 2 * k1 + j2]
        return np.linalg.eigvalsh(pt).min()

    def test_werner_threshold_eigenvalue(self):
        assert abs(self._werner_pt_min_eig(1 / 3)) < 1e-12

    def test_werner_above_threshold_negative(self):
        assert self._werner_pt_min_eig(0.5) < -1e-3

    def test_matches_oracle(self):
        w = werner_density(WernerSpec(2, 2, 0.5))
        pt = partial_transpose(w, 2)
        assert abs(np.linalg.eigvalsh(pt).min() - self._werner_pt_min_eig(0.5)) < 1e-12

    def test_involution(self, rng):
        from spinsep import DensityMatrix

        d = DimVector((2, 3))
        rho = random_density(d, rng)
        pt = partial_transpose(rho, 1)
        # the partial transpose need not be PSD, so rewrap without validating
        back = partial_transpose(DensityMatrix(pt, d), 1)
        assert np.array_equal(back, rho.matrix)

    def test_preserves_trace_and_hermiticity(self, rng):
        d = DimVector((3, 2))
        rho = random_density(d, rng)
        for r in (1, 2):
            pt = partial_transpose(rho, r)
            assert abs(np.trace(pt) - 1.0) < 1e-12
            assert np.abs(pt - pt.conj().T).max() < 1e-12

    def test_subsystem_range(self, rng):
        rho = random_density(DimVector((2, 2)), rng)
        with pytest.raises(ValueError):
            partial_transpose(rho, 0)
        with pytest.raises(ValueError):
            partial_transpose(rho, 3)


class TestRandomDensity:
    def test_is_valid(self, rng):
        for dims in ((2, 2), (2, 3), (3, 3)):
            rho = random_density(DimVector(dims), rng)
            check_density(rho.matrix, rho.dims)

    def test_full_rank(self, rng):
        rho = random_density(DimVector((2, 2)), rng)
        assert np.linalg.eigvalsh(rho.matrix).min() > 1e-6


@pytest.mark.parametrize("dims", [(2, 2), [2, 2], np.array([2, 2])], ids=["tuple", "list", "array"])
def test_density_dims_taken_as_a_dim_vector(dims):
    """Any sequence of dimensions is checked and held as a DimVector."""
    rho = DensityMatrix(np.eye(4) / 4, dims)
    assert type(rho.dims) is DimVector and rho.dims == (2, 2)
    assert type(check_density(np.eye(4) / 4, dims).dims) is DimVector
    assert np.array_equal(partial_transpose(rho, 2), np.eye(4) / 4)
    with pytest.raises(ValueError, match="every dimension must be at least 2"):
        DensityMatrix(np.eye(4) / 4, (1, 4))
