import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep import (
    DimVector,
    composite_spin,
    conjugate_by_permutation,
    decode,
    encode,
    permutation_matrix,
    permute_dims,
    reorder_subsystems,
    spin_l1_norm,
    spin_matrix,
    spin_table,
)
from spinsep.composite import flat_add_table

from conftest import random_matrix
from reference_identities import multi_add

DIM_CHOICES = [(2, 3), (3, 2), (2, 2, 2), (4, 3)]


class TestDimVector:
    def test_size(self):
        assert DimVector((2, 3)).size == 6
        assert DimVector((2, 2, 2)).size == 8

    def test_rejects_small_dims(self):
        for dims, message in [
            ((), "need at least one subsystem"),
            ((1,), r"every dimension must be at least 2, got \(1,\)"),
            ((2, 1), r"every dimension must be at least 2, got \(2, 1\)"),
        ]:
            with pytest.raises(ValueError, match=message):
                DimVector(dims)

    @pytest.mark.parametrize("dims", [(2.7, 3), (3, 2.0), ("a",), (np.float64(2.0),)])
    def test_refuses_entries_that_are_not_integers(self, dims):
        # A float was truncated: (2.7, 3) became (2, 3).
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            DimVector(dims)

    def test_takes_numpy_integers(self):
        d = DimVector((np.int64(2), np.uint8(3)))
        assert d == (2, 3) and all(type(x) is int for x in d)

    def test_iteration(self):
        d = DimVector((2, 3, 4))
        assert list(d) == [2, 3, 4]
        assert len(d) == 3 and d[1] == 3

    def test_is_its_tuple(self):
        d = DimVector([2, 3])
        assert isinstance(d, tuple)
        assert d == (2, 3) and hash(d) == hash((2, 3))
        assert {(2, 3): "x"}[d] == "x"
        assert repr(d) == str(d) == "(2, 3)"


class TestEncodeDecode:
    def test_mixed_radix_example(self):
        assert encode(DimVector((2, 3)), (1, 2)) == 5
        assert encode(DimVector((2, 3)), (0, 0)) == 0
        assert encode(DimVector((2, 2, 2)), (1, 0, 1)) == 5

    def test_place_values(self):
        units = np.eye(3, dtype=int)
        assert [encode(DimVector((2, 3, 2)), unit) for unit in units] == [6, 2, 1]

    @pytest.mark.parametrize("dims", DIM_CHOICES)
    def test_bijection(self, dims):
        dv = DimVector(dims)
        seen = set()
        for digits in itertools.product(*[range(d) for d in dims]):
            flat = encode(dv, digits)
            assert decode(dv, flat) == digits
            seen.add(flat)
        assert seen == set(range(dv.size))

    @given(
        dims=st.sampled_from(DIM_CHOICES),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, dims, data):
        dv = DimVector(dims)
        flat = data.draw(st.integers(min_value=0, max_value=dv.size - 1))
        assert encode(dv, decode(dv, flat)) == flat

    def test_range_errors(self):
        dv = DimVector((2, 3))
        with pytest.raises(ValueError):
            encode(dv, (2, 0))
        with pytest.raises(ValueError):
            decode(dv, 6)

    @pytest.mark.parametrize("digits", [(1.5, 0), (1, 2.0), (1, np.float64(2.0))])
    def test_refuses_digits_that_are_not_integers(self, digits):
        # A float was taken as is: encode((2, 3), (1.5, 0)) gave 4.5.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            encode(DimVector((2, 3)), digits)

    @pytest.mark.parametrize("index", [2.5, 5.0, np.float64(5.0)])
    def test_refuses_an_index_that_is_not_an_integer(self, index):
        # A float was taken as is: decode((2, 3), 2.5) gave (0.0, 2.5).
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            decode(DimVector((2, 3)), index)

    def test_takes_numpy_integers(self):
        dv = DimVector((2, 3))
        flat = encode(dv, (np.int64(1), np.uint8(2)))
        assert flat == 5 and type(flat) is int
        for index in (np.int64(5), np.uint64(5), np.int8(5)):
            digits = decode(dv, index)
            assert digits == (1, 2) and all(type(x) is int for x in digits)

    @pytest.mark.parametrize("digits", [(1,), (1, 0, 0)])
    def test_digit_count_must_match(self, digits):
        with pytest.raises(ValueError, match=f"expected 2 digits, got {len(digits)}"):
            encode(DimVector((2, 3)), digits)


class TestMultiAdd:
    def test_wraps_componentwise(self):
        dv = DimVector((2, 3))
        assert multi_add(dv, (1, 2), (1, 2)) == (0, 1)
        assert multi_add(DimVector((3, 3)), (2, 2), (1, 1)) == (0, 0)

    def test_zero_is_identity(self):
        dv = DimVector((2, 3, 2))
        for digits in itertools.product(range(2), range(3), range(2)):
            assert multi_add(dv, digits, (0, 0, 0)) == digits

    def test_add_table_consistent(self):
        dv = DimVector((2, 3))
        table = flat_add_table(dv)
        for j in range(6):
            for k in range(6):
                assert table[j, k] == encode(dv, multi_add(dv, decode(dv, j), decode(dv, k)))


class TestCompositeSpin:
    @pytest.mark.parametrize("j, k", [((0,), (0, 0)), ((0, 0), (0, 0, 0))])
    def test_label_needs_one_digit_per_subsystem(self, j, k):
        with pytest.raises(ValueError, match="labels must have one digit per subsystem"):
            composite_spin(DimVector((2, 2)), j, k)

    def test_identity_label(self):
        dv = DimVector((2, 2))
        assert np.array_equal(composite_spin(dv, (0, 0), (0, 0)), np.eye(4, dtype=complex))

    def test_zz(self):
        dv = DimVector((2, 2))
        got = composite_spin(dv, (1, 1), (0, 0))
        assert np.abs(got - np.diag([1, -1, -1, 1]).astype(complex)).max() < 1e-15

    def test_factorisation(self):
        dv = DimVector((2, 3))
        got = composite_spin(dv, (1, 1), (1, 1))
        expected = np.kron(spin_matrix(2, 1, 1), spin_matrix(3, 1, 1))
        assert np.array_equal(got, expected)

    def test_tensor_form_equals_fourier_sum(self):
        # Independent construction: sum_r F[N](j, r) A[N](r, k) with
        # F[N] the Kronecker product of the factor Fourier matrices and
        # A[N](r, k) a single one at (r, r (+) k).
        from spinsep import fourier_matrix

        dv = DimVector((2, 3))
        n = dv.size
        f_comp = np.kron(fourier_matrix(2), fourier_matrix(3))
        add = flat_add_table(dv)
        for j in range(n):
            for k in range(n):
                expected = np.zeros((n, n), dtype=complex)
                for r in range(n):
                    expected[r, add[r, k]] += f_comp[j, r]
                got = composite_spin(dv, decode(dv, j), decode(dv, k))
                assert np.abs(got - expected).max() < 1e-12

    def test_adjusted_equals_shifted_unit(self):
        # A[N]_{j,k} = E[N]_{j, j (+) k} for every index pair
        dv = DimVector((2, 3))
        n = dv.size
        add = flat_add_table(dv)
        for j in range(n):
            for k in range(n):
                jd, kd = decode(dv, j), decode(dv, k)
                a = np.ones((1, 1), dtype=complex)
                for d, ji, ki in zip(dv, jd, kd):
                    unit = np.zeros((d, d), dtype=complex)
                    unit[ji, (ji + ki) % d] = 1.0
                    a = np.kron(a, unit)
                assert a[j, add[j, k]] == 1.0
                assert np.abs(a).sum() == 1.0


class TestPermutations:
    def test_identity_permutation(self):
        dv = DimVector((2, 3))
        assert np.array_equal(permutation_matrix(dv, (1, 2)), np.eye(6))

    def test_swap_2x2_enumeration(self):
        dv = DimVector((2, 2))
        q = permutation_matrix(dv, (2, 1))
        for j1 in range(2):
            for j2 in range(2):
                row = encode(dv, (j1, j2))
                col = encode(dv, (j2, j1))
                assert q[row, col] == 1.0

    def test_swap_2x3_enumeration(self):
        dv = DimVector((2, 3))
        swapped = permute_dims(dv, (2, 1))
        assert swapped == (3, 2)
        q = permutation_matrix(dv, (2, 1))
        assert np.array_equal(q @ q.T, np.eye(6))
        for j1 in range(2):
            for j2 in range(3):
                assert q[encode(dv, (j1, j2)), encode(swapped, (j2, j1))] == 1.0

    def test_rejects_bad_sigma(self):
        dv = DimVector((2, 3))
        with pytest.raises(ValueError):
            permutation_matrix(dv, (1, 1))
        with pytest.raises(ValueError):
            permutation_matrix(dv, (1, 2, 3))

    @pytest.mark.parametrize("sigma", [(2.7, 1), (2.0, 1), (np.float64(2.0), 1)])
    def test_refuses_sigma_entries_that_are_not_integers(self, sigma):
        # A float was truncated: sigma (2.7, 1) swapped (2, 3) to (3, 2).
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            permute_dims(DimVector((2, 3)), sigma)

    def test_takes_numpy_integer_sigma(self):
        dv = DimVector((2, 3))
        assert permute_dims(dv, np.array([2, 1])) == (3, 2)
        assert np.array_equal(permutation_matrix(dv, (np.int8(2), 1)), permutation_matrix(dv, (2, 1)))


class TestConjugation:
    def test_identity_matrix_fixed(self, rng):
        dv = DimVector((2, 3))
        out = conjugate_by_permutation(np.eye(6), dv, (2, 1))
        assert np.abs(out - np.eye(6)).max() < 1e-15

    def test_swap_restores_order(self, rng):
        dv = DimVector((2, 2))
        a = random_matrix(2, rng)
        b = random_matrix(2, rng)
        got = conjugate_by_permutation(np.kron(b, a), dv, (2, 1))
        assert np.abs(got - np.kron(a, b)).max() < 1e-12

    @pytest.mark.parametrize("sigma", list(itertools.permutations((1, 2, 3))))
    def test_product_conjugation_all_sigmas(self, sigma, rng):
        dims = (2, 3, 2)
        dv = DimVector(dims)
        factors = [random_matrix(d, rng) for d in dims]
        m = np.kron(np.kron(factors[0], factors[1]), factors[2])
        permuted = factors[sigma[0] - 1]
        for s in sigma[1:]:
            permuted = np.kron(permuted, factors[s - 1])
        got = conjugate_by_permutation(permuted, dv, sigma)
        assert np.abs(got - m).max() < 1e-12

    def test_reorder_is_inverse(self, rng):
        dv = DimVector((2, 3, 2))
        m = random_matrix(12, rng)
        sigma = (3, 1, 2)
        out = reorder_subsystems(m, dv, sigma)
        back = conjugate_by_permutation(out, dv, sigma)
        assert np.abs(back - m).max() < 1e-12

    def test_reorder_moves_factors(self, rng):
        dv = DimVector((2, 3))
        a, b = random_matrix(2, rng), random_matrix(3, rng)
        out = reorder_subsystems(np.kron(a, b), dv, (2, 1))
        assert np.abs(out - np.kron(b, a)).max() < 1e-12

    def test_reorder_three_factor_slots(self, rng):
        # slot i of the output holds factor sigma(i) of the input
        dv = DimVector((2, 3, 2))
        c1, c2, c3 = (random_matrix(k, rng) for k in (2, 3, 2))
        m = np.kron(np.kron(c1, c2), c3)
        out = reorder_subsystems(m, dv, (3, 1, 2))
        assert np.abs(out - np.kron(np.kron(c3, c1), c2)).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            conjugate_by_permutation(np.eye(5), DimVector((2, 3)), (2, 1))


@st.composite
def matrices_and_permutations(draw):
    """A random complex matrix on 2-3 subsystems of dimension 2-4, and a sigma."""
    dims = DimVector(tuple(draw(st.lists(st.sampled_from((2, 3, 4)), min_size=2, max_size=3))))
    sigma = tuple(draw(st.permutations(range(1, len(dims) + 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return dims, sigma, random_matrix(dims.size, rng)


class TestPermutationProperties:
    @given(case=matrices_and_permutations())
    @settings(max_examples=40, deadline=None)
    def test_conjugation_undoes_reorder_exactly(self, case):
        dims, sigma, m = case
        back = conjugate_by_permutation(reorder_subsystems(m, dims, sigma), dims, sigma)
        assert np.array_equal(back, m)

    @given(case=matrices_and_permutations())
    @settings(max_examples=40, deadline=None)
    def test_reorder_matches_explicit_q(self, case):
        dims, sigma, m = case
        q = permutation_matrix(dims, sigma)
        assert np.abs(reorder_subsystems(m, dims, sigma) - q.T @ m @ q).max() <= 1e-15

    @given(case=matrices_and_permutations())
    @settings(max_examples=25, deadline=None)
    def test_spin_l1_norm_invariant(self, case):
        dims, sigma, m = case
        before = spin_l1_norm(spin_table(m, dims))
        reordered = reorder_subsystems(m, dims, sigma)
        after = spin_l1_norm(spin_table(reordered, permute_dims(dims, sigma)))
        assert math.isclose(after, before, rel_tol=1e-12)

    @given(case=matrices_and_permutations(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_nan_stays_single(self, case, data):
        dims, sigma, m = case
        i, j = (data.draw(st.integers(0, dims.size - 1)) for _ in range(2))
        m[i, j] = np.nan
        for out in (
            reorder_subsystems(m, dims, sigma),
            conjugate_by_permutation(m, dims, sigma),
        ):
            assert np.isnan(out).sum() == 1
            assert np.array_equal(np.sort(out[~np.isnan(out)]), np.sort(m[~np.isnan(m)]))
