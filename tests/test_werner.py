import numpy as np
import pytest

from spinsep import (
    INSEPARABLE,
    DimVector,
    WernerSpec,
    check_density,
    encode,
    ind_set,
    necessary_check,
    spin_l1_norm,
    to_spin,
    verify_decomposition,
    werner_density,
    werner_separable_decomposition,
    werner_spin_coeffs,
    werner_threshold,
)

import spinsep.werner
from spinsep.cli import MIN_TOL, _tolerance
from spinsep.werner import PRIME_LIMIT, is_prime, werner_bound

from conftest import residual_flags
from reference_density import reference_werner_density

PRIME_CASES = [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]
# Every d = 2..7 with every n >= 2 that keeps N = d^n <= 343.
CLOSED_FORM_GRID = [(d, n) for d in range(2, 8) for n in range(2, 9) if d**n <= 343]


def extreme_norm(p, n):
    """Spin L1 norm of the Werner state at the threshold, in closed form."""
    return p * (1 - p ** (-n)) / (1 + p ** (-(n - 1)))


class TestWernerDensity:
    def test_zero_mixing_is_maximally_mixed(self):
        w = werner_density(WernerSpec(3, 2, 0.0))
        assert np.abs(w.matrix - np.eye(9) / 9).max() < 1e-15

    def test_full_mixing_is_rank_one(self):
        w = werner_density(WernerSpec(2, 2, 1.0))
        vals = np.sort(np.linalg.eigvalsh(w.matrix))[::-1]
        assert abs(vals[0] - 1.0) < 1e-12
        assert np.abs(vals[1:]).max() < 1e-12

    def test_two_qubit_entries(self):
        s = 1 / 3
        w = werner_density(WernerSpec(2, 2, s)).matrix
        assert abs(w[0, 0] - ((1 - s) / 4 + s / 2)) < 1e-15
        assert abs(w[3, 3] - ((1 - s) / 4 + s / 2)) < 1e-15
        assert abs(w[1, 1] - (1 - s) / 4) < 1e-15
        assert abs(w[0, 3] - s / 2) < 1e-15
        assert abs(w[1, 2]) < 1e-15

    def test_composite_dimension_allowed(self):
        w = werner_density(WernerSpec(4, 2, 0.1))
        check_density(w.matrix, w.dims)

    @pytest.mark.parametrize("d, n", CLOSED_FORM_GRID)
    def test_closed_form_spectrum_holds(self, d, n):
        """No factorisation guards the matrix any more: it must be the one that
        check_density used to pass, bit for bit, a density at the default tolerance
        and at the CLI's least --tol, where its lowest eigenvalue clears -2^-52.  Its
        fast trace, within N u of 1, may miss by a few ulps; the exact sum does not."""
        rng = np.random.default_rng(100 * d + n)
        for s in (0.0, werner_bound(d, n), float(rng.random()), 1.0):
            spec = WernerSpec(d, n, s)
            got, expected = werner_density(spec), reference_werner_density(spec)
            assert got.dims == expected.dims
            assert got.matrix.dtype == expected.matrix.dtype == complex
            assert got.matrix.tobytes() == expected.matrix.tobytes()
            check_density(got.matrix, got.dims)
            assert np.linalg.eigvalsh(got.matrix)[0] >= -(2.0**-52)
            assert abs(got.matrix.trace() - 1.0) <= d**n * 2.0**-53
            check_density(got.matrix, got.dims, _tolerance(MIN_TOL))

    def test_builds_without_a_factorisation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the spectrum is known in closed form")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        for d, n in [(2, 6), (3, 4), (5, 3), (4, 2)]:
            spec = WernerSpec(d, n, werner_bound(d, n))
            assert werner_density(spec).matrix.shape == (d**n, d**n)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WernerSpec(2, 1, 0.5)
        with pytest.raises(ValueError):
            WernerSpec(2, 2, 1.5)
        with pytest.raises(ValueError):
            WernerSpec(1, 2, 0.5)

    @pytest.mark.parametrize("d, n", [(3, 2.5), (2, 2.0), (2.0, 2), (np.float64(3.0), 2)])
    def test_spec_refuses_d_and_n_that_are_not_integers(self, d, n):
        # A float was kept, and WernerSpec(3, 2.5, 0.5) failed only at .dims.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            WernerSpec(d, n, 0.5)

    def test_spec_takes_numpy_integers(self):
        w = werner_density(WernerSpec(np.int64(3), np.uint8(2), 0.2))
        assert w.dims == (3, 3)
        assert np.array_equal(w.matrix, werner_density(WernerSpec(3, 2, 0.2)).matrix)


class TestIndSet:
    def test_small_examples(self):
        assert ind_set(2, 2) == ((0, 0), (1, 1))
        assert ind_set(3, 2) == ((0, 0), (1, 2), (2, 1))

    @pytest.mark.parametrize("p,n", PRIME_CASES + [(5, 3)])
    def test_cardinality(self, p, n):
        members = ind_set(p, n)
        assert len(members) == p ** (n - 1)
        assert all(sum(m) % p == 0 for m in members)

    def test_kj_map_bijective(self):
        for p, n in ((3, 2), (5, 2), (3, 3)):
            members = set(ind_set(p, n))
            for k in range(1, p):
                image = {tuple((k * j) % p for j in m) for m in members}
                assert image == members

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            ind_set(4, 2)


class TestSpinCoefficients:
    @pytest.mark.parametrize("p,n", PRIME_CASES)
    def test_closed_form_matches_transform(self, p, n):
        spec = WernerSpec(p, n, 0.3)
        closed = werner_spin_coeffs(spec).table
        computed = to_spin(werner_density(spec)).table
        assert np.abs(closed - computed).max() < 1e-10

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
    def test_closed_form_reassembles_matrix(self, p, n):
        from spinsep import from_spin

        spec = WernerSpec(p, n, 0.2)
        rebuilt = from_spin(werner_spin_coeffs(spec))
        assert np.abs(rebuilt - werner_density(spec).matrix).max() < 1e-10

    def test_zero_mixing_table(self):
        table = werner_spin_coeffs(WernerSpec(3, 2, 0.0)).table
        assert table[0, 0] == 1.0
        off = table.copy()
        off[0, 0] = 0.0
        assert np.abs(off).max() == 0.0

    def test_support_is_ind_by_repeated(self):
        p, n, s = 3, 2, 0.25
        table = werner_spin_coeffs(WernerSpec(p, n, s)).table
        dims = DimVector((p,) * n)
        nonzero = {(j, k) for j in range(9) for k in range(9) if abs(table[j, k]) > 0}
        expected = {(0, 0)}
        for j_digits in ind_set(p, n):
            for k in range(p):
                expected.add((encode(dims, j_digits), encode(dims, (k,) * n)))
        assert nonzero == expected

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            werner_spin_coeffs(WernerSpec(4, 2, 0.1))


class TestThreshold:
    def test_values(self):
        assert werner_threshold(2, 2) == 1 / 3
        assert werner_threshold(3, 2) == 1 / 4
        assert werner_threshold(2, 3) == 1 / 5

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            werner_threshold(4, 2)

    @pytest.mark.parametrize(
        "p, n", [(3, 2.5), (3, 2.0), (3, np.float64(2.0)), (3.0, 2), (3, 1.5), (2.0, 1)]
    )
    def test_refuses_p_and_n_that_are_not_integers(self, p, n):
        # A float n was taken as is: werner_threshold(3, 2.5) gave 0.1614.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            werner_threshold(p, n)

    def test_takes_numpy_integers(self):
        assert werner_threshold(np.int64(3), np.uint8(3)) == werner_threshold(3, 3) == 1 / 10

    @pytest.mark.parametrize("n", [1, 0])
    def test_needs_two_subsystems(self, n):
        with pytest.raises(ValueError, match=f"need n >= 2, got {n}"):
            werner_threshold(3, n)

    @pytest.mark.parametrize("p,n", PRIME_CASES)
    def test_norm_at_threshold(self, p, n):
        w = werner_density(WernerSpec(p, n, werner_threshold(p, n)))
        assert abs(spin_l1_norm(to_spin(w)) - extreme_norm(p, n)) < 1e-9


class TestSeparableDecomposition:
    @pytest.mark.parametrize("p,n", PRIME_CASES)
    def test_reconstructs_at_threshold(self, p, n):
        s_star = werner_threshold(p, n)
        dec = werner_separable_decomposition(p, n)
        w = werner_density(WernerSpec(p, n, s_star))
        assert np.abs(dec.assemble() - w.matrix).max() < 1e-10
        result = verify_decomposition(dec, w)
        assert result, result.failure

    def test_factors_regenerate_from_specs(self):
        # every factor is bit-identical to a subgroup projection; no residual
        dec = werner_separable_decomposition(3, 2)
        assert not any(residual_flags(dec))

    def test_sub_threshold_convex_mixture(self):
        p, n, s = 3, 2, 0.1
        dec = werner_separable_decomposition(p, n, s)
        w = werner_density(WernerSpec(p, n, s))
        result = verify_decomposition(dec, w)
        assert result, result.failure

    def test_zero_mixing(self):
        dec = werner_separable_decomposition(2, 2, 0.0)
        w = werner_density(WernerSpec(2, 2, 0.0))
        assert verify_decomposition(dec, w)

    def test_above_threshold_rejected(self):
        with pytest.raises(ValueError):
            werner_separable_decomposition(2, 2, 0.4)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            werner_separable_decomposition(4, 2)

    @pytest.mark.parametrize(
        "s, message",
        [
            (-0.1, "no decomposition for s = -0.1: the mixing parameter must be non-negative"),
            (-5e-324, "no decomposition for s = -5e-324: the mixing parameter must be non-negative"),
            (float("nan"), "no decomposition for s = nan: the mixing parameter must be non-negative"),
            (0.2 + 1e-9, "no decomposition for s = 0.200000001 above the threshold 0.2"),
        ],
        ids=["negative", "negative-subnormal", "nan", "above"],
    )
    def test_each_side_of_the_range_has_its_message(self, s, message):
        with pytest.raises(ValueError) as info:
            werner_separable_decomposition(2, 3, s)
        assert str(info.value) == message

    def test_builds_no_density(self, monkeypatch):
        import spinsep.projections
        import spinsep.werner

        def fail(*args, **kwargs):
            raise AssertionError("the decomposition needs no density")

        monkeypatch.setattr(spinsep.projections, "check_density", fail)
        monkeypatch.setattr(spinsep.werner, "check_density", fail)
        for p, n in PRIME_CASES + [(2, 6), (3, 4), (5, 3)]:
            dec = werner_separable_decomposition(p, n)
            assert len(dec.terms) == p + p ** (2 * (n - 1))


class TestEndToEndThresholdBehaviour:
    @pytest.mark.parametrize("p,n", PRIME_CASES)
    def test_necessary_fires_just_above(self, p, n):
        s = werner_threshold(p, n) + 1e-3
        rep = necessary_check(werner_density(WernerSpec(p, n, s)))
        assert rep.verdict == INSEPARABLE

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
    def test_separable_at_and_below(self, p, n):
        s_star = werner_threshold(p, n)
        for s in (s_star, s_star / 2):
            dec = werner_separable_decomposition(p, n, s)
            w = werner_density(WernerSpec(p, n, s))
            assert verify_decomposition(dec, w)


class _NoPower(int):
    """An int whose powers cannot be formed."""

    def __pow__(self, other, mod=None):
        raise AssertionError("p^(n-1) was formed")


def test_overflowing_bound_found_before_the_power():
    with pytest.raises(ValueError, match=r"^--p 3 --n 10000000: p\^\(n-1\) overflows a double"):
        werner_bound(_NoPower(3), 10_000_000)
    # Below the bit-length guard the power is formed exactly, as before.
    with pytest.raises(AssertionError):
        werner_bound(_NoPower(3), 600)


class TestBound:
    @pytest.mark.parametrize("p, n", [(3, 2.5), (3, np.float64(2.0)), (3.0, 2), (np.float64(5), 2)])
    def test_refuses_p_and_n_that_are_not_integers(self, p, n):
        # A float n was taken as is: werner_bound(3, 2.5) gave 0.1614.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            werner_bound(p, n)

    def test_takes_numpy_integers(self):
        # A numpy p failed with AttributeError: no bit_length.
        assert werner_bound(np.int64(3), np.uint8(3)) == werner_bound(3, 3) == 1 / 10
        assert werner_bound(np.int64(4), np.int32(2)) == 1 / 5
        with pytest.raises(ValueError, match="overflows a double"):
            werner_bound(np.int64(3), np.int64(10_000_000))


def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(-3, 20_000) if is_prime(n)] == [
            n for n in range(-3, 20_000) if trial_division(n)
        ]

    @pytest.mark.parametrize(
        "n", [2047, 3215031751, 3825123056546413051, 318665857834031151167461],
        ids=["psi1", "psi4", "psi9", "psi12"],
    )
    def test_strong_pseudoprimes_below_the_limit_are_composite(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [10**9 + 7, 2**31 - 1, 2**61 - 1])
    def test_primes_below_the_limit(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [7.0, 2.0, np.float64(7.0), 43.0])
    def test_refuses_non_integers(self, n):
        # A float was looked up as is: is_prime(7.0) was True.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            is_prime(n)

    def test_takes_numpy_integers(self):
        assert [is_prime(np.int64(n)) for n in (7, 42, 43, 2047)] == [True, False, True, False]

    def test_limit_is_psi13(self):
        with pytest.raises(ValueError, match=f"exact only below {PRIME_LIMIT}$"):
            is_prime(PRIME_LIMIT)
        assert not is_prime(PRIME_LIMIT + 1)


def test_factor_table_is_built_once_per_p(monkeypatch):
    """Every build for one p takes its entries from one read-only table, so
    no projection is looked up or specified again."""
    first = werner_separable_decomposition(3, 2)
    table = spinsep.werner._werner_factors(3)
    for name in ("ProjectionSpec", "subgroup_projection"):
        monkeypatch.setattr(spinsep.werner, name, None)
    dec = werner_separable_decomposition(3, 3, 0.01)
    assert spinsep.werner._werner_factors(3) is table and not table.flags.writeable
    assert table.shape == (3 + 9 + 1, 3, 3)
    assert np.array_equal(table[-1], np.eye(3) / 3)
    assert first.factors[0].tobytes() == table[:-1].tobytes()
    assert dec.factors[0].tobytes() == table.tobytes()
