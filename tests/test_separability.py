import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep import (
    DEFAULT_TOLERANCE,
    INCONCLUSIVE,
    INSEPARABLE,
    SEPARABLE,
    DensityMatrix,
    DimVector,
    NecessaryViolation,
    NegativeEigenvalue,
    ProductTerm,
    Tolerance,
    WernerSpec,
    check_density,
    necessary_check,
    peres_check,
    random_density,
    spin_l1_norm,
    sufficient_certificate,
    to_spin,
    verify_decomposition,
    werner_density,
)
from spinsep.composite import kron_all
from spinsep.separability import _necessary_table

from conftest import mixed_to_norm, residual_flags
from reference_terms import from_terms


class TestNecessaryCheck:
    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (4, 2)])
    def test_werner_above_bound_certified(self, d, n):
        s = 1.2 / (1 + d ** (n - 1))
        rep = necessary_check(werner_density(WernerSpec(d, n, s)))
        assert rep.verdict == INSEPARABLE
        assert isinstance(rep.witness, NecessaryViolation)
        assert rep.witness.magnitude > rep.witness.bound

    def test_maximally_mixed_inconclusive(self):
        d = DimVector((2, 3))
        rho = check_density(np.eye(6) / 6, d)
        assert necessary_check(rho).verdict == INCONCLUSIVE

    def test_two_qubit_werner_at_threshold(self):
        rep = necessary_check(werner_density(WernerSpec(2, 2, 1 / 3)))
        assert rep.verdict == INCONCLUSIVE

    def test_product_state_inconclusive(self, rng):
        a = random_density(DimVector((2,)), rng).matrix
        b = random_density(DimVector((3,)), rng).matrix
        rho = check_density(kron_all((a, b)), DimVector((2, 3)))
        assert necessary_check(rho).verdict == INCONCLUSIVE

    def test_single_subsystem_rejected(self, rng):
        rho = random_density(DimVector((4,)), rng)
        with pytest.raises(ValueError):
            necessary_check(rho)

    def test_tied_violations_first_in_redistribution_order(self):
        # (|000> + |111>) and (|011> + |100>), mixed equally: for the pair
        # j = 001, k = 110 the redistributions (000, 111) and (011, 100)
        # violate by exactly 1/4, and the earlier one, taking only digit 2
        # of u from k, is the witness.
        m = np.zeros((8, 8), dtype=complex)
        for u, v in [(0, 7), (3, 4)]:
            m[np.ix_([u, v], [u, v])] = 0.25
        rep = necessary_check(check_density(m, DimVector((2, 2, 2))))
        want = NecessaryViolation((0, 0, 1), (1, 1, 0), (0, 0, 0), (1, 1, 1), 0.0, 0.25)
        assert rep.witness == want

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (3, 3, 3)])
    def test_cached_index_tables_are_read_only(self, dims):
        tables = _necessary_table(DimVector(dims))
        assert tables is _necessary_table(DimVector(dims))
        assert all(not a.flags.writeable for a in tables)


class TestPeresCheck:
    def test_product_state_inconclusive(self, rng):
        a = random_density(DimVector((2,)), rng).matrix
        b = random_density(DimVector((2,)), rng).matrix
        rho = check_density(kron_all((a, b)), DimVector((2, 2)))
        for r in (1, 2):
            assert peres_check(rho, r).verdict == INCONCLUSIVE

    def test_werner_midpoint_certified(self):
        rep = peres_check(werner_density(WernerSpec(2, 2, 0.5)), 2)
        assert rep.verdict == INSEPARABLE
        assert isinstance(rep.witness, NegativeEigenvalue)
        assert rep.witness.value < -1e-3

    def test_werner_threshold_inconclusive(self):
        rep = peres_check(werner_density(WernerSpec(2, 2, 1 / 3)), 2)
        assert rep.verdict == INCONCLUSIVE

    def test_subsystem_out_of_range(self, rng):
        rho = random_density(DimVector((2, 2)), rng)
        with pytest.raises(ValueError):
            peres_check(rho, 3)


class TestSufficientCertificate:
    def test_maximally_mixed_single_residual(self):
        d = DimVector((2, 3))
        rho = check_density(np.eye(6) / 6, d)
        rep = sufficient_certificate(rho)
        assert rep.verdict == SEPARABLE
        assert rep.l1_norm < 1e-12
        dec = rep.witness
        assert len(dec.terms) == 1
        assert abs(dec.terms[0].weight - 1.0) < 1e-12
        assert verify_decomposition(dec, rho)

    def test_boundary_werner_certified(self):
        w = werner_density(WernerSpec(2, 2, 1 / 3))
        rep = sufficient_certificate(w)
        assert rep.verdict == SEPARABLE
        assert abs(rep.l1_norm - 1.0) < 1e-12
        assert np.abs(rep.witness.assemble() - w.matrix).max() < 1e-8

    def test_norm_two_inconclusive(self):
        w = werner_density(WernerSpec(3, 2, 0.25))
        rep = sufficient_certificate(w)
        assert rep.verdict == INCONCLUSIVE
        assert abs(rep.l1_norm - 2.0) < 1e-9
        assert rep.witness is None

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_mixed_random_densities(self, dims, rng):
        d = DimVector(dims)
        for _ in range(10):
            rho = mixed_to_norm(d, 0.999, rng)
            rep = sufficient_certificate(rho)
            assert rep.verdict == SEPARABLE
            result = verify_decomposition(rep.witness, rho)
            assert result, result.failure

    def test_factors_are_subgroup_projections(self, rng):
        # every non-residual factor is bit-identical to a subgroup projection
        rho = mixed_to_norm(DimVector((2, 3)), 0.9, rng)
        rep = sufficient_certificate(rho)
        assert residual_flags(rep.witness).count(False) > 0

    def test_neighborhood_by_bisection(self, rng):
        # every random density admits a positive mixing weight at which the
        # blend with the maximally mixed state is certified separable
        d = DimVector((2, 2))
        n = d.size
        for _ in range(5):
            rho0 = random_density(d, rng)
            lo, hi = 0.0, 1.0
            for _ in range(40):
                mid = (lo + hi) / 2
                m = mid * rho0.matrix + (1 - mid) * np.eye(n) / n
                if spin_l1_norm(to_spin(check_density(m, d))) <= 1.0:
                    lo = mid
                else:
                    hi = mid
            assert lo > 0.0
            blend = check_density(lo * rho0.matrix + (1 - lo) * np.eye(n) / n, d)
            rep = sufficient_certificate(blend)
            assert rep.verdict == SEPARABLE

    def test_soundness_chain(self, rng):
        # a separable certificate never coexists with an inseparable one
        for dims in ((2, 2), (2, 3)):
            d = DimVector(dims)
            rho = mixed_to_norm(d, 0.95, rng)
            assert sufficient_certificate(rho).verdict == SEPARABLE
            assert necessary_check(rho).verdict == INCONCLUSIVE
            for r in range(1, len(d) + 1):
                assert peres_check(rho, r).verdict == INCONCLUSIVE

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
        target=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_certificate_property(self, seed, dims, target):
        rho = mixed_to_norm(DimVector(dims), target, np.random.default_rng(seed))
        rep = sufficient_certificate(rho)
        assert rep.verdict == SEPARABLE
        assert verify_decomposition(rep.witness, rho)

    def test_concurrent_invocations_agree(self, rng):
        # pure functions and caches must be safe under threaded use
        from concurrent.futures import ThreadPoolExecutor

        d = DimVector((2, 3))
        rhos = [mixed_to_norm(d, 0.9, rng) for _ in range(8)]
        serial = [sufficient_certificate(r) for r in rhos]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(sufficient_certificate, rhos))
        for a, b in zip(serial, threaded):
            assert a.verdict == b.verdict == SEPARABLE
            assert len(a.witness.terms) == len(b.witness.terms)
            assert np.abs(a.witness.assemble() - b.witness.assemble()).max() < 1e-15


class TestVerifyDecomposition:
    def test_accepts_valid(self, rng):
        rho = mixed_to_norm(DimVector((2, 2)), 0.8, rng)
        dec = sufficient_certificate(rho).witness
        assert verify_decomposition(dec, rho)

    def test_perturbed_weight_fails_reconstruction(self, rng):
        rho = mixed_to_norm(DimVector((2, 2)), 0.8, rng)
        dec = sufficient_certificate(rho).witness
        terms = list(dec.terms)
        bumped = ProductTerm(terms[0].weight + 1e-3, terms[0].factors)
        # keep the weight sum at one so the reconstruction check is reached
        slimmed = ProductTerm(terms[1].weight - 1e-3, terms[1].factors)
        broken = from_terms(dec.dims, tuple([bumped, slimmed] + terms[2:]))
        result = verify_decomposition(broken, rho)
        assert not result
        assert "reconstruction" in result.failure

    def test_weight_sum_failure_named(self, rng):
        rho = mixed_to_norm(DimVector((2, 2)), 0.8, rng)
        dec = sufficient_certificate(rho).witness
        terms = list(dec.terms)
        bumped = ProductTerm(terms[0].weight + 1e-3, terms[0].factors)
        broken = from_terms(dec.dims, tuple([bumped] + terms[1:]))
        result = verify_decomposition(broken, rho)
        assert not result
        assert "sum" in result.failure

    def test_invalid_factor_named(self, rng):
        d = DimVector((2, 2))
        rho = check_density(np.eye(4) / 4, d)
        bad = from_terms(
            d,
            (
                ProductTerm(
                    1.0,
                    (np.eye(2, dtype=complex) / 2, np.diag([1.5, -0.5]).astype(complex)),
                ),
            ),
        )
        result = verify_decomposition(bad, rho)
        assert not result
        assert "factor" in result.failure

    def test_dims_mismatch_raises(self, rng):
        rho = check_density(np.eye(4) / 4, DimVector((2, 2)))
        dec = from_terms(
            DimVector((4,)), (ProductTerm(1.0, (np.eye(4, dtype=complex) / 4,)),)
        )
        with pytest.raises(ValueError):
            verify_decomposition(dec, rho)

    def test_reports_tolerance_override(self, rng):
        rho = mixed_to_norm(DimVector((2, 2)), 0.8, rng)
        dec = sufficient_certificate(rho).witness
        # A target a known 1e-12 away from rho, far above rounding noise.
        off = DensityMatrix(rho.matrix + 1e-12 * np.diag([1.0, -1.0, 0.0, 0.0]), rho.dims)
        assert verify_decomposition(dec, off, DEFAULT_TOLERANCE)
        tight = Tolerance(abs_eps=1e-14)
        result = verify_decomposition(dec, off, tight)
        assert not result
        assert "reconstruction defect" in result.failure
