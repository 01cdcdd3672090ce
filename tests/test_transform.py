import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep import (
    DimVector,
    WernerSpec,
    check_density,
    composite_spin,
    decode,
    encode,
    from_spin,
    fourier_matrix,
    random_density,
    spin_l1_norm,
    spin_table,
    to_spin,
    werner_density,
)
from spinsep.transform import SpinCoefficients

from reference_identities import conjugate_label, l2_identity_check, spin_table_by_trace

ROUND_TRIP_DIMS = [(2, 2), (2, 3), (3, 3), (2, 2, 2)]


class TestToSpin:
    def test_maximally_mixed(self):
        d = DimVector((2, 3))
        rho = check_density(np.eye(6) / 6, d)
        table = to_spin(rho).table
        assert abs(table[0, 0] - 1.0) < 1e-12
        off = table.copy()
        off[0, 0] = 0
        assert np.abs(off).max() < 1e-12

    def test_single_qubit_z_coefficient(self):
        # (1/2)(I + sigma_z) has coefficient 1 on the clock label (1,0)
        d = DimVector((2,))
        rho = check_density(np.diag([1.0, 0.0]).astype(complex), d)
        table = to_spin(rho).table
        assert abs(table[1, 0] - 1.0) < 1e-12
        assert abs(table[0, 0] - 1.0) < 1e-12

    def test_werner_support(self):
        # coefficients sit exactly on (j, repeated-k) labels with zero digit sum
        s = 1 / 3
        w = werner_density(WernerSpec(2, 2, s))
        table = to_spin(w).table
        dims = w.dims
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        for j_digits in ((0, 0), (1, 1)):
            for k in range(2):
                pos = (encode(dims, j_digits), encode(dims, (k, k)))
                if pos != (0, 0):
                    expected[pos] = s
        assert np.abs(table - expected).max() < 1e-12

    def test_agrees_with_trace_oracle(self, rng):
        d = DimVector((2, 3))
        rho = random_density(d, rng)
        fast = to_spin(rho).table
        slow = spin_table_by_trace(rho.matrix, d).table
        assert np.abs(fast - slow).max() < 1e-10


class TestFromSpin:
    def test_identity_table(self):
        d = DimVector((2, 2))
        table = np.zeros((4, 4), dtype=complex)
        table[0, 0] = 1.0
        assert np.abs(from_spin(SpinCoefficients(d, table)) - np.eye(4) / 4).max() < 1e-12

    def test_explicit_sum_oracle(self, rng):
        # (1/N) sum s_{j,k} S_{j,k} assembled label by label
        d = DimVector((2, 3))
        rho = random_density(d, rng)
        coeffs = to_spin(rho)
        n = d.size
        acc = np.zeros((n, n), dtype=complex)
        for j in range(n):
            for k in range(n):
                acc += coeffs.table[j, k] * composite_spin(d, decode(d, j), decode(d, k))
        acc /= n
        assert np.abs(from_spin(coeffs) - acc).max() < 1e-10

    @pytest.mark.parametrize("dims", ROUND_TRIP_DIMS)
    def test_round_trip(self, dims, rng):
        d = DimVector(dims)
        for _ in range(10):
            rho = random_density(d, rng)
            back = from_spin(to_spin(rho))
            assert np.abs(back - rho.matrix).max() < 1e-10

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), dims=st.sampled_from(ROUND_TRIP_DIMS))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed, dims):
        d = DimVector(dims)
        rho = random_density(d, np.random.default_rng(seed))
        assert np.abs(from_spin(to_spin(rho)) - rho.matrix).max() < 1e-10


class TestCoefficientStructure:
    @pytest.mark.parametrize("dims", ROUND_TRIP_DIMS)
    def test_unit_identity_coefficient(self, dims, rng):
        rho = random_density(DimVector(dims), rng)
        assert abs(to_spin(rho).table[0, 0] - 1.0) < 1e-9

    @pytest.mark.parametrize("dims", ROUND_TRIP_DIMS)
    def test_conjugation_symmetry(self, dims, rng):
        d = DimVector(dims)
        rho = random_density(d, rng)
        table = to_spin(rho).table
        for j in range(d.size):
            for k in range(d.size):
                pj, pk, phase = conjugate_label(d, j, k)
                assert abs(table[pj, pk] - phase * np.conj(table[j, k])) < 1e-9

    def test_diagonal_recovery(self, rng):
        # (1/d)(F s)_{j,0} returns the diagonal of a single-factor density
        d = DimVector((5,))
        rho = random_density(d, rng)
        table = to_spin(rho).table
        rebuilt = fourier_matrix(5) @ table / 5
        for j in range(5):
            diag = rebuilt[j, 0]
            assert abs(diag - rho.matrix[j, j]) < 1e-10
            assert diag.real > -1e-12


class TestNorms:
    def test_mixed_norm_zero(self):
        d = DimVector((3, 3))
        rho = check_density(np.eye(9) / 9, d)
        assert spin_l1_norm(to_spin(rho)) < 1e-12

    def test_werner_two_qubit_boundary(self):
        w = werner_density(WernerSpec(2, 2, 1 / 3))
        assert abs(spin_l1_norm(to_spin(w)) - 1.0) < 1e-12

    def test_werner_two_qutrit_value(self):
        # p = 3, n = 2 at s = 1/4: 3 (1 - 3^-2) / (1 + 3^-1) = 2
        w = werner_density(WernerSpec(3, 2, 0.25))
        assert abs(spin_l1_norm(to_spin(w)) - 2.0) < 1e-12

    def test_norm_nonnegative(self, rng):
        rho = random_density(DimVector((2, 2)), rng)
        assert spin_l1_norm(to_spin(rho)) >= 0.0


class TestL2Identity:
    def test_pure_qutrit(self):
        d = DimVector((3,))
        v = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3)
        rho = check_density(np.outer(v, v.conj()), d)
        lhs, rhs = l2_identity_check(rho)
        assert abs(lhs - 3.0) < 1e-9
        assert abs(lhs - rhs) < 1e-9

    def test_maximally_mixed(self):
        d = DimVector((4,))
        rho = check_density(np.eye(4) / 4, d)
        lhs, rhs = l2_identity_check(rho)
        assert abs(lhs - 1.0) < 1e-12
        assert abs(rhs - 1.0) < 1e-12

    def test_composite_uses_total_dimension(self, rng):
        d = DimVector((2, 3))
        rho = random_density(d, rng)
        lhs, rhs = l2_identity_check(rho)
        assert abs(rhs - 6.0 * (np.abs(rho.matrix) ** 2).sum()) < 1e-12
        assert abs(lhs - rhs) < 1e-9

    def test_cauchy_schwarz_floor(self, rng):
        for d in (2, 3, 5):
            dv = DimVector((d,))
            rho = random_density(dv, rng)
            lhs, _ = l2_identity_check(rho)
            rho_l2 = float((np.abs(rho.matrix) ** 2).sum())
            assert np.sqrt(lhs) * np.sqrt(rho_l2) >= 1.0 / np.sqrt(d) - 1e-12


class TestSpinTableShape:
    def test_table_shape_enforced(self):
        """Refused through as_square: a 2x3 table, and a 3x3 one on dims (2, 2)."""
        for table, dims in [(np.zeros((2, 3)), (2,)), (np.zeros((3, 3)), (2, 2))]:
            with pytest.raises(ValueError, match=r"matrix shape \(\d, \d\) does not match size"):
                SpinCoefficients(DimVector(dims), table)

    def test_matrix_shape_enforced(self):
        with pytest.raises(ValueError):
            spin_table(np.eye(5), DimVector((2, 3)))


@pytest.mark.parametrize("dims", [(2, 3), [2, 3]], ids=["tuple", "list"])
def test_coefficient_dims_taken_as_a_dim_vector(dims):
    """Any sequence of dimensions is checked and held as a DimVector."""
    table = np.zeros((6, 6), dtype=complex)
    table[0, 0] = 1.0
    coeffs = SpinCoefficients(dims, table)
    assert type(coeffs.dims) is DimVector and coeffs.dims == (2, 3)
    assert np.allclose(from_spin(coeffs), np.eye(6) / 6)
    with pytest.raises(ValueError, match="every dimension must be at least 2"):
        SpinCoefficients((1, 6), table)
