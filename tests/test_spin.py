import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep import (
    DimVector,
    SpinLabel,
    adjusted_basis,
    alpha,
    computational_basis,
    eta,
    fourier_matrix,
    spin_dagger,
    spin_matrix,
    spin_power,
    spin_table,
)
from spinsep.spin import fourier_table

from reference_identities import trace_inner

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def all_labels(d):
    return [(j, k) for j in range(d) for k in range(d)]


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


class TestEtaAlpha:
    def test_unit_modulus(self):
        for d in range(2, 9):
            for e in range(2 * d):
                assert abs(abs(eta(d, e)) - 1.0) < 1e-12

    def test_exponent_reduced(self):
        assert eta(3, 7) == eta(3, 1)
        assert eta(3, -1) == eta(3, 2)
        assert eta(4, 9) == 1.0j
        assert alpha(4, 9) == alpha(4, 1)

    def test_quarter_turns_exact(self):
        # d = 2 and d = 4 powers must be bit-exact Pauli phases
        assert eta(2, 1) == -1.0 + 0.0j
        assert eta(4, 1) == 1.0j
        assert eta(4, 2) == -1.0 + 0.0j
        assert eta(4, 3) == -1.0j
        assert alpha(2, 1) == 1.0j

    def test_alpha_values(self):
        assert abs(alpha(3) - np.exp(1j * np.pi / 3)) < 1e-15
        assert abs(alpha(4) - np.exp(1j * np.pi / 4)) < 1e-15

    def test_alpha_is_eta_of_twice_the_dimension(self):
        for d in range(2, 13):
            for e in range(-50, 51):
                assert bits(alpha(d, e)) == bits(eta(2 * d, e))

    @pytest.mark.parametrize(
        "root, d, exponent",
        [(eta, 4, 0.5), (eta, 3, 1.0), (alpha, 4, 0.5), (alpha, 3, np.float64(1.0))],
    )
    def test_refuses_exponents_that_are_not_integers(self, root, d, exponent):
        # A float was taken as an angle: eta(4, 0.5) gave exp(i pi/4).
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            root(d, exponent)

    def test_takes_numpy_integers(self):
        for d in range(2, 9):
            for e in range(-d, 2 * d):
                assert bits(eta(d, np.int64(e))) == bits(eta(d, e))
                assert bits(alpha(d, np.int16(e))) == bits(alpha(d, e))

    @pytest.mark.parametrize(
        "root, d", [(eta, 3.0), (eta, np.float64(4.0)), (alpha, 3.0), (alpha, 2.5)]
    )
    def test_refuses_dimensions_that_are_not_integers(self, root, d):
        # A float dimension was taken as is: eta(3.0, 1) gave exp(2 pi i/3).
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            root(d, 1)

    def test_takes_numpy_integer_dimensions(self):
        for d in range(2, 9):
            assert bits(eta(np.int64(d), 1)) == bits(eta(d, 1))
            assert bits(alpha(np.uint8(d), 3)) == bits(alpha(d, 3))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            eta(1, 0)
        with pytest.raises(ValueError):
            alpha(1)


class TestFourierMatrix:
    def test_d2_is_hadamard(self):
        assert np.array_equal(fourier_matrix(2), np.array([[1, 1], [1, -1]], dtype=complex))

    def test_d3_entry(self):
        f = fourier_matrix(3)
        assert abs(f[1, 1] - np.exp(2j * np.pi / 3)) < 1e-15

    @pytest.mark.parametrize("d", range(2, 7))
    def test_unitary_up_to_scale(self, d):
        f = fourier_matrix(d)
        assert np.abs(f @ f.conj().T - d * np.eye(d)).max() < 1e-12

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            fourier_matrix(1)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_cached_table_is_read_only_and_matches_eta(self, d):
        table = fourier_table(d)
        assert table is fourier_table(d)
        assert not table.flags.writeable
        expected = [[eta(d, (j * k) % d) for k in range(d)] for j in range(d)]
        assert np.array_equal(table, np.array(expected, dtype=complex))

    def test_returned_copy_does_not_reach_the_cache(self):
        dims = DimVector((3, 2))
        m = np.arange(36, dtype=complex).reshape(6, 6)
        before = spin_table(m, dims).table.copy()
        for d in dims:
            f = fourier_matrix(d)
            assert f.flags.writeable
            f[...] = 0.0
        assert np.array_equal(spin_table(m, dims).table, before)
        assert np.array_equal(fourier_matrix(2), np.array([[1, 1], [1, -1]], dtype=complex))


class TestComputationalAndAdjusted:
    def test_matrix_unit(self):
        assert np.array_equal(computational_basis(2, 0, 0), np.array([[1, 0], [0, 0]], dtype=complex))
        e = computational_basis(3, 1, 2)
        assert e[1, 2] == 1 and np.abs(e).sum() == 1

    def test_completeness(self):
        for d in (2, 3, 4):
            total = sum(computational_basis(d, j, j) for j in range(d))
            assert np.array_equal(total, np.eye(d, dtype=complex))

    def test_adjusted_wraps(self):
        assert np.array_equal(adjusted_basis(3, 2, 2), computational_basis(3, 2, 1))
        assert np.array_equal(adjusted_basis(2, 1, 1), computational_basis(2, 1, 0))

    @pytest.mark.parametrize("d", range(2, 6))
    def test_adjusted_diagonal(self, d):
        for j in range(d):
            assert np.array_equal(adjusted_basis(d, j, 0), computational_basis(d, j, j))

    def test_range_check(self):
        with pytest.raises(ValueError):
            computational_basis(3, 3, 0)
        with pytest.raises(ValueError):
            adjusted_basis(3, 0, -1)


class TestSpinMatrix:
    def test_d3_clock_and_shift_family(self):
        w = np.exp(2j * np.pi / 3)
        expected = np.array([[0, 1, 0], [0, 0, w], [w**2, 0, 0]])
        assert np.abs(spin_matrix(3, 1, 1) - expected).max() < 1e-15

    def test_d2_pauli(self):
        assert np.array_equal(spin_matrix(2, 0, 1), SIGMA_X)
        assert np.array_equal(spin_matrix(2, 1, 0), SIGMA_Z)

    def test_identity_label(self):
        assert np.array_equal(spin_matrix(3, 0, 0), np.eye(3, dtype=complex))

    @pytest.mark.parametrize("d", range(2, 7))
    def test_orthogonality(self, d):
        mats = {lab: spin_matrix(d, *lab) for lab in all_labels(d)}
        for u in all_labels(d):
            for v in all_labels(d):
                expect = d if u == v else 0.0
                assert abs(trace_inner(mats[u], mats[v]) - expect) < 1e-9

    @pytest.mark.parametrize("d", range(2, 7))
    def test_unitary(self, d):
        for j, k in all_labels(d):
            s = spin_matrix(d, j, k)
            assert np.abs(s @ s.conj().T - np.eye(d)).max() < 1e-9

    @pytest.mark.parametrize("d", range(2, 7))
    def test_traceless_off_identity(self, d):
        for j, k in all_labels(d):
            if (j, k) != (0, 0):
                assert abs(np.trace(spin_matrix(d, j, k))) < 1e-12

    @pytest.mark.parametrize("d", range(2, 7))
    def test_determinant_parity(self, d):
        for j, k in all_labels(d):
            det = np.linalg.det(spin_matrix(d, j, k))
            expect = 1.0 if (d % 2 == 1 or (j + k) % 2 == 0) else -1.0
            assert abs(det - expect) < 1e-9

    @pytest.mark.parametrize("d", range(2, 7))
    def test_generated_by_clock_and_shift(self, d):
        clock = spin_matrix(d, 1, 0)
        shift = spin_matrix(d, 0, 1)
        for j, k in all_labels(d):
            built = np.linalg.matrix_power(clock, j) @ np.linalg.matrix_power(shift, k)
            assert np.abs(built - spin_matrix(d, j, k)).max() < 1e-12

    @pytest.mark.parametrize("d", (3, 4, 5))
    def test_commutator_identity(self, d):
        mats = {lab: spin_matrix(d, *lab) for lab in all_labels(d)}
        for j, k in all_labels(d):
            for r, s in all_labels(d):
                lhs = mats[(j, k)] @ mats[(r, s)] - mats[(r, s)] @ mats[(j, k)]
                coeff = eta(d, (k * r) % d) - eta(d, (j * s) % d)
                rhs = coeff * mats[((j + r) % d, (k + s) % d)]
                assert np.abs(lhs - rhs).max() < 1e-9


class TestSpinPower:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_repeated_multiplication(self, d):
        for j, k in all_labels(d):
            s = spin_matrix(d, j, k)
            for m in range(0, 2 * d + 1):
                phase, label = spin_power(d, SpinLabel(j, k), m)
                reduced = eta(d, phase) * spin_matrix(d, *label)
                assert np.abs(reduced - np.linalg.matrix_power(s, m)).max() < 1e-9

    def test_full_cycle_d3(self):
        phase, label = spin_power(3, SpinLabel(1, 1), 3)
        assert eta(3, phase) == 1.0 and label == (0, 0)

    def test_d2_odd_index_square(self):
        phase, label = spin_power(2, SpinLabel(1, 1), 2)
        assert eta(2, phase) == -1.0 and label == (0, 0)

    def test_power_one_is_identity_map(self):
        for d in range(2, 6):
            phase, label = spin_power(d, SpinLabel(1, d - 1), 1)
            assert eta(d, phase) == 1.0 and label == (1, d - 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spin_power(3, SpinLabel(1, 1), -1)

    @pytest.mark.parametrize("m", [2.0, 1.5, np.float64(2.0)])
    def test_refuses_powers_that_are_not_integers(self, m):
        # A float was taken as is: m = 2.0 gave (1.0, SpinLabel(2.0, 2.0)).
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            spin_power(3, SpinLabel(1, 1), m)

    def test_takes_numpy_integers(self):
        for m in (np.int64(2), np.uint8(2)):
            assert spin_power(3, SpinLabel(1, 1), m) == (1, SpinLabel(2, 2))

    @pytest.mark.parametrize(
        "d, label", [(3, (1.0, 1)), (3, (1, 1.5)), (3.0, (1, 1)), (3, (np.float64(1.0), 1))]
    )
    def test_refuses_labels_and_dimensions_that_are_not_integers(self, d, label):
        # A float label was taken as is: (3, (1.0, 1), 2) gave (1.0, SpinLabel(2.0, 2)).
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            spin_power(d, SpinLabel(*label), 2)

    def test_takes_numpy_integer_labels_and_dimensions(self):
        label = SpinLabel(np.int64(1), np.uint8(1))
        assert spin_power(np.int16(3), label, 2) == (1, SpinLabel(2, 2))

    @given(
        d=st.integers(min_value=2, max_value=6),
        j=st.integers(min_value=0, max_value=5),
        k=st.integers(min_value=0, max_value=5),
        m=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_formula_property(self, d, j, k, m):
        j, k = j % d, k % d
        phase, label = spin_power(d, SpinLabel(j, k), m)
        direct = np.linalg.matrix_power(spin_matrix(d, j, k), m)
        assert np.abs(eta(d, phase) * spin_matrix(d, *label) - direct).max() < 1e-9


class TestSpinDagger:
    @pytest.mark.parametrize(
        "d, label", [(3, (1.5, 1)), (3, (1, 2.0)), (3.0, (1, 1)), (3, (1, np.float64(1.0)))]
    )
    def test_refuses_labels_and_dimensions_that_are_not_integers(self, d, label):
        # A float label was taken as is: (3, (1.5, 1)) gave (1.5, SpinLabel(1.5, 2)).
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            spin_dagger(d, SpinLabel(*label))

    def test_takes_numpy_integer_labels_and_dimensions(self):
        label = SpinLabel(np.int64(1), np.uint8(1))
        assert spin_dagger(np.int16(3), label) == (1, SpinLabel(2, 2))

    def test_d3_example(self):
        phase, label = spin_dagger(3, SpinLabel(1, 1))
        assert abs(eta(3, phase) - eta(3)) < 1e-15
        assert label == (2, 2)

    def test_sigma_x_hermitian(self):
        phase, label = spin_dagger(2, SpinLabel(0, 1))
        assert eta(2, phase) == 1.0 and label == (0, 1)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_conjugate_transpose(self, d):
        for j, k in all_labels(d):
            phase, label = spin_dagger(d, SpinLabel(j, k))
            built = eta(d, phase) * spin_matrix(d, *label)
            assert np.abs(built - spin_matrix(d, j, k).conj().T).max() < 1e-12

    @pytest.mark.parametrize("d", range(2, 7))
    def test_agrees_with_power_d_minus_one(self, d):
        # The (d-1)-th power reproduces the conjugate transpose except in
        # the half-step cases (even d, odd j*k), where it differs by -1;
        # the same cases that need the alpha correction in projections.
        for j, k in all_labels(d):
            dag_phase, dag_label = spin_dagger(d, SpinLabel(j, k))
            pw_phase, pw_label = spin_power(d, SpinLabel(j, k), d - 1)
            assert dag_label == pw_label
            sign = -1.0 if (d % 2 == 0 and (j * k) % 2 == 1) else 1.0
            assert abs(eta(d, dag_phase) - sign * eta(d, pw_phase)) < 1e-12
