import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep import (
    DimVector,
    ProductProjectionSpec,
    ProjectionSpec,
    SpinLabel,
    alpha,
    cyclic_family_decomposition,
    cyclic_family_density,
    eta,
    expand_spin_power,
    m2_map,
    m3_map,
    product_projection,
    projection_from_diagonal,
    spin_matrix,
    subgroup_projection,
    valid_generator,
    verify_decomposition,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def valid_labels(d):
    return [
        (j, k)
        for j in range(d)
        for k in range(d)
        if valid_generator(d, j, k)
    ]


def phased_generator(spec: ProjectionSpec) -> np.ndarray:
    """gamma eta^r S_u assembled directly from its pieces."""
    g = eta(spec.d, spec.r % spec.d) * spin_matrix(spec.d, *spec.u)
    if spec.alpha_applied:
        g = alpha(spec.d) * g
    return g


class TestValidity:
    def test_prime_dims_accept_everything_nonzero(self):
        for d in (2, 3, 5):
            assert len(valid_labels(d)) == d * d - 1

    def test_composite_rules(self):
        assert valid_generator(4, 0, 1) and valid_generator(4, 1, 0)
        assert valid_generator(4, 1, 2) and valid_generator(4, 3, 3)
        assert valid_generator(4, 0, 3)
        assert valid_generator(6, 2, 3)
        assert not valid_generator(4, 0, 2)
        assert not valid_generator(4, 2, 2)
        assert not valid_generator(6, 2, 4)
        assert not valid_generator(6, 3, 3)
        assert not valid_generator(4, 0, 0)

    def test_spec_rejects_invalid(self):
        with pytest.raises(ValueError):
            ProjectionSpec(4, SpinLabel(2, 2))
        with pytest.raises(ValueError):
            ProjectionSpec(6, SpinLabel(0, 3))

    def test_alpha_flag(self):
        assert ProjectionSpec(2, SpinLabel(1, 1)).alpha_applied
        assert ProjectionSpec(4, SpinLabel(1, 3)).alpha_applied
        assert not ProjectionSpec(4, SpinLabel(1, 2)).alpha_applied
        assert not ProjectionSpec(3, SpinLabel(1, 1)).alpha_applied


class TestSubgroupProjection:
    def test_diagonal_family_d2(self):
        p = subgroup_projection(ProjectionSpec(2, SpinLabel(1, 0), 0))
        assert np.abs(p - np.diag([1.0, 0.0])).max() < 1e-12

    def test_diagonal_family_d3_offset(self):
        p = subgroup_projection(ProjectionSpec(3, SpinLabel(1, 0), 1))
        assert np.abs(p - np.diag([0.0, 0.0, 1.0])).max() < 1e-12

    def test_alpha_case_d2(self):
        p = subgroup_projection(ProjectionSpec(2, SpinLabel(1, 1), 0))
        expected = 0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]])
        assert np.abs(p - expected).max() < 1e-12
        vals = np.linalg.eigvalsh(p)
        assert np.abs(np.sort(vals) - np.array([0.0, 1.0])).max() < 1e-12

    @pytest.mark.parametrize("d", range(2, 7))
    def test_projection_axioms(self, d):
        for j, k in valid_labels(d):
            for r in range(d):
                p = subgroup_projection(ProjectionSpec(d, SpinLabel(j, k), r))
                assert np.abs(p - p.conj().T).max() < 1e-9
                assert np.abs(p @ p - p).max() < 1e-9
                assert abs(np.trace(p) - 1.0) < 1e-9

    @pytest.mark.parametrize("d", range(2, 7))
    def test_family_orthogonality(self, d):
        for j, k in valid_labels(d):
            ps = [subgroup_projection(ProjectionSpec(d, SpinLabel(j, k), r)) for r in range(d)]
            for r in range(d):
                for rp in range(r + 1, d):
                    assert np.abs(ps[r] @ ps[rp]).max() < 1e-9
            assert np.abs(sum(ps) - np.eye(d)).max() < 1e-9

    def test_offset_reduced_mod_d(self):
        a = subgroup_projection(ProjectionSpec(3, SpinLabel(1, 1), 1))
        b = subgroup_projection(ProjectionSpec(3, SpinLabel(1, 1), 4))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", range(2, 12))
    def test_offset_shifted_by_d_gives_the_same_bytes(self, d):
        """Each spec is its own cache entry: r, r - d and r + d are built
        apart, and the reduced phase exponents make them bit-equal."""
        for j, k in valid_labels(d):
            for r in range(d):
                p = subgroup_projection(ProjectionSpec(d, SpinLabel(j, k), r))
                assert not p.flags.writeable
                for shifted in (r - d, r + d):
                    q = subgroup_projection(ProjectionSpec(d, SpinLabel(j, k), shifted))
                    assert q.tobytes() == p.tobytes()


class TestExpandSpinPower:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_reconstructs_powers(self, d):
        for j, k in valid_labels(d):
            spec = ProjectionSpec(d, SpinLabel(j, k), 0)
            g = phased_generator(spec)
            for t in range(d):
                acc = np.zeros((d, d), dtype=complex)
                for weight, offset in expand_spin_power(spec, t):
                    acc += weight * subgroup_projection(
                        ProjectionSpec(d, SpinLabel(j, k), offset)
                    )
                assert np.abs(acc - np.linalg.matrix_power(g, t)).max() < 1e-9

    def test_identity_resolution(self):
        spec = ProjectionSpec(5, SpinLabel(2, 3), 1)
        terms = expand_spin_power(spec, 0)
        assert all(abs(w - 1.0) < 1e-12 for w, _ in terms)
        acc = sum(
            subgroup_projection(ProjectionSpec(5, SpinLabel(2, 3), off)) for _, off in terms
        )
        assert np.abs(acc - np.eye(5)).max() < 1e-12

    def test_d3_shift_label(self):
        spec = ProjectionSpec(3, SpinLabel(1, 1), 0)
        acc = np.zeros((3, 3), dtype=complex)
        for w, off in expand_spin_power(spec, 1):
            acc += w * subgroup_projection(ProjectionSpec(3, SpinLabel(1, 1), off))
        assert np.abs(acc - spin_matrix(3, 1, 1)).max() < 1e-12

    def test_d2_clock_difference(self):
        spec = ProjectionSpec(2, SpinLabel(1, 0), 0)
        acc = np.zeros((2, 2), dtype=complex)
        for w, off in expand_spin_power(spec, 1):
            acc += w * subgroup_projection(ProjectionSpec(2, SpinLabel(1, 0), off))
        assert np.abs(acc - SIGMA_Z).max() < 1e-12


class TestProductProjection:
    def test_unit_product(self):
        dims = DimVector((2, 2))
        spec = ProductProjectionSpec(
            dims,
            (ProjectionSpec(2, SpinLabel(1, 0), 0), ProjectionSpec(2, SpinLabel(1, 0), 0)),
        )
        p = product_projection(spec)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.abs(p - expected).max() < 1e-12

    def test_rank_one_on_2x3(self):
        dims = DimVector((2, 3))
        spec = ProductProjectionSpec(
            dims,
            (ProjectionSpec(2, SpinLabel(1, 1), 0), ProjectionSpec(3, SpinLabel(1, 1), 0)),
        )
        p = product_projection(spec)
        vals = np.sort(np.linalg.eigvalsh(p))[::-1]
        assert abs(vals[0] - 1.0) < 1e-9
        assert np.abs(vals[1:]).max() < 1e-9
        assert abs(np.trace(p) - 1.0) < 1e-9

    def test_resolution_of_identity(self):
        dims = DimVector((2, 3))
        total = np.zeros((6, 6), dtype=complex)
        for l1 in range(2):
            for l2 in range(3):
                spec = ProductProjectionSpec(
                    dims,
                    (
                        ProjectionSpec(2, SpinLabel(1, 1), l1),
                        ProjectionSpec(3, SpinLabel(1, 2), l2),
                    ),
                )
                total += product_projection(spec)
        assert np.abs(total - np.eye(6)).max() < 1e-9

    def test_dimension_consistency(self):
        with pytest.raises(ValueError):
            ProductProjectionSpec(
                DimVector((2, 3)),
                (ProjectionSpec(2, SpinLabel(1, 0), 0), ProjectionSpec(2, SpinLabel(1, 0), 0)),
            )


class TestCyclicFamily:
    def test_single_factor_reduces_to_projection(self):
        rho, dec = cyclic_family_density(3, 1, [SpinLabel(1, 1)], [2])
        expected = subgroup_projection(ProjectionSpec(3, SpinLabel(1, 1), 2))
        assert np.abs(rho.matrix - expected).max() < 1e-12
        assert len(dec.terms) == 1

    def test_two_qubit_clock_pair(self):
        rho, dec = cyclic_family_density(2, 2, [SpinLabel(1, 0), SpinLabel(1, 0)], [0, 0])
        expected = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert np.abs(rho.matrix - expected).max() < 1e-12
        assert verify_decomposition(dec, rho)

    def test_qutrit_pair_valid(self):
        rho, dec = cyclic_family_density(3, 2, [SpinLabel(1, 1), SpinLabel(1, 1)], [0, 0])
        result = verify_decomposition(dec, rho)
        assert result, result.failure

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
    def test_random_label_vectors(self, d, n, rng):
        labels = valid_labels(d)
        for _ in range(3):
            u_vec = [SpinLabel(*labels[rng.integers(len(labels))]) for _ in range(n)]
            r_vec = [int(rng.integers(d)) for _ in range(n)]
            rho, dec = cyclic_family_density(d, n, u_vec, r_vec)
            result = verify_decomposition(dec, rho)
            assert result, result.failure
            assert len(dec.terms) == d ** (n - 1)

    def test_alpha_vector_case(self):
        rho, dec = cyclic_family_density(2, 2, [SpinLabel(1, 1), SpinLabel(1, 1)], [0, 0])
        assert verify_decomposition(dec, rho)
        expected = (np.eye(4) - np.kron(spin_matrix(2, 1, 1), spin_matrix(2, 1, 1))) / 4
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_invalid_label_raises(self):
        with pytest.raises(ValueError):
            cyclic_family_density(4, 2, [SpinLabel(2, 2), SpinLabel(1, 1)], [0, 0])

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 2)])
    def test_decomposition_matches_density_and_per_term_specs(self, d, n, rng):
        labels = valid_labels(d)
        u_vec = [SpinLabel(*labels[rng.integers(len(labels))]) for _ in range(n)]
        r_vec = [int(rng.integers(d)) for _ in range(n)]
        dec = cyclic_family_decomposition(d, n, u_vec, r_vec)
        _, paired = cyclic_family_density(d, n, u_vec, r_vec)
        # Reference: every factor's spec built on its own, term by term.
        expected = []
        for free in itertools.product(range(d), repeat=n - 1):
            offsets = free + ((-sum(free)) % d,)
            expected.append(
                tuple(ProjectionSpec(d, u, r + l) for u, r, l in zip(u_vec, r_vec, offsets))
            )
        assert dec.dims == paired.dims == DimVector((d,) * n)
        assert len(dec.terms) == len(paired.terms) == len(expected)
        for term, other, specs in zip(dec.terms, paired.terms, expected):
            assert term.weight == other.weight == 1.0 / d ** (n - 1)
            for f, g, spec in zip(term.factors, other.factors, specs):
                assert np.array_equal(f, g) and np.array_equal(f, subgroup_projection(spec))

    def test_decomposition_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cyclic_family_decomposition(4, 2, [SpinLabel(2, 2), SpinLabel(1, 1)], [0, 0])
        with pytest.raises(ValueError):
            cyclic_family_decomposition(3, 2, [SpinLabel(1, 1)], [0, 0])
        with pytest.raises(ValueError):
            cyclic_family_decomposition(3, 0, [], [])

    def test_decomposition_refuses_negative_n(self):
        with pytest.raises(ValueError, match="u_vec and r_vec must each have n entries"):
            cyclic_family_decomposition(3, -1, [], [])


class TestInputChecks:
    """Each refused input of the projection constructors, with its message."""

    @pytest.mark.parametrize("j, k", [(3, 1), (1, 3), (-1, 1), (1, -1)])
    def test_label_outside_the_range_is_no_generator(self, j, k):
        assert not valid_generator(3, j, k)

    def test_negative_power(self):
        with pytest.raises(ValueError, match="power must be non-negative, got -1"):
            expand_spin_power(ProjectionSpec(3, SpinLabel(1, 0)), -1)

    @pytest.mark.parametrize("t", [0.5, 1.0, np.float64(2.0)], ids=["0.5", "1.0", "float64"])
    def test_power_must_be_an_integer(self, t):
        # A float power failed inside eta, on a float index into its quarter-turn table.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            expand_spin_power(ProjectionSpec(3, SpinLabel(1, 0)), t)

    def test_numpy_integer_power_is_taken(self):
        spec = ProjectionSpec(3, SpinLabel(1, 0))
        assert expand_spin_power(spec, np.int64(2)) == expand_spin_power(spec, 2)

    @pytest.mark.parametrize("r", [1.5, 1.0, np.float64(1.0)], ids=["1.5", "1.0", "float64"])
    def test_spec_offset_must_be_an_integer(self, r):
        # A float offset was truncated: r = 1.5 gave P_u(1).
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            ProjectionSpec(3, SpinLabel(1, 0), r)

    @pytest.mark.parametrize("r_vec", [[0.9, 0], [0, 1.0]])
    def test_family_offsets_must_be_integers(self, r_vec):
        # A float offset was truncated: [0.9, 0] built the family at offset 0.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            cyclic_family_decomposition(3, 2, [SpinLabel(1, 0), SpinLabel(1, 0)], r_vec)

    def test_numpy_integer_offsets_are_taken(self):
        spec = ProjectionSpec(3, SpinLabel(1, 0), np.int64(4))
        assert spec.r == 4 and type(spec.r) is int
        dec = cyclic_family_decomposition(3, 2, [SpinLabel(1, 0)] * 2, np.array([1, 2]))
        plain = cyclic_family_decomposition(3, 2, [SpinLabel(1, 0)] * 2, [1, 2])
        assert np.array_equal(dec.index, plain.index)
        assert all(np.array_equal(f, g) for f, g in zip(dec.factors, plain.factors))

    def test_one_spec_per_subsystem(self):
        with pytest.raises(ValueError, match="1 projection specs for 2 subsystems"):
            ProductProjectionSpec(DimVector((2, 2)), (ProjectionSpec(2, SpinLabel(1, 0)),))

    @pytest.mark.parametrize("theta", [(0.0, 0.0), np.zeros((3, 1))])
    def test_m3_needs_three_angles(self, theta):
        shape = np.shape(theta)
        with pytest.raises(ValueError, match=re.escape(f"need exactly 3 angles, got shape {shape}")):
            m3_map(theta)

    @pytest.mark.parametrize(
        "d, amplitudes, theta, message",
        [
            (3, (1.0, 0.0), (0.0, 0.0, 0.0), "need 3 amplitudes, got shape (2,)"),
            (2, (-1.0, 0.0), 0.0, "amplitudes must be non-negative"),
            (3, (1.0, 0.0, 0.0), (0.0, 0.0), "need 3 phase differences, got shape (2,)"),
            (3, (1.0, 0.0, 0.0), (0.1, 0.2, 0.3), "phase differences must sum to 0 mod 2*pi"),
            (3, (1.0, 0.0, 0.0), (math.nan, 0.0, 0.0), "phase differences must be finite"),
        ],
        ids=["amplitude-count", "negative-amplitude", "phase-count", "phase-sum", "phase-nan"],
    )
    def test_projection_from_diagonal_refuses(self, d, amplitudes, theta, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            projection_from_diagonal(d, amplitudes, theta)

    @pytest.mark.parametrize(
        "d, amplitudes, theta, message",
        [
            (2, (math.nan, 1.0), 0.0, "amplitudes must be non-negative"),
            (3, (1.0, math.nan, 0.0), (0.0, 0.0, 0.0), "amplitudes must be non-negative"),
            (2, (1.0, 0.0), math.nan, "phase differences must be finite, got [nan, nan]"),
            (2, (1.0, 0.0), np.array(math.nan), "phase differences must be finite, got [nan, nan]"),
            (2, (1.0, 0.0), math.inf, "phase differences must be finite, got [inf, -inf]"),
            (2, (1.0, 0.0), (math.inf, -math.inf), "phase differences must be finite"),
        ],
        ids=[
            "nan-amplitude-d2",
            "nan-amplitude-d3",
            "nan-scalar-phase",
            "nan-0-d-phase",
            "inf-scalar-phase",
            "inf-pair-phase",
        ],
    )
    def test_non_finite_input_refused_before_the_density(self, d, amplitudes, theta, message):
        """NaN fails each amplitude comparison, and a scalar phase theta is
        checked as the vector (theta, -theta).  Non-finite phases are refused
        before their sum, where inf + -inf would warn (an error under the
        suite's warning filters)."""
        with pytest.raises(ValueError, match=re.escape(message)):
            projection_from_diagonal(d, amplitudes, theta)

    @pytest.mark.parametrize("total", [2 * math.pi, -4 * math.pi, 2 * math.pi - 5e-10])
    def test_phase_sum_accepted_modulo_two_pi(self, total):
        rho, _ = projection_from_diagonal(3, np.full(3, 1 / math.sqrt(3)), (total, 0.0, 0.0))
        assert np.allclose(np.diagonal(rho.matrix), 1 / 3)


class TestPhaseMixingMaps:
    def test_m3_zero_is_identity(self):
        assert np.abs(m3_map((0.0, 0.0, 0.0)) - np.eye(3)).max() < 1e-12

    def test_m3_group_law(self, rng):
        for _ in range(20):
            t = rng.uniform(0, 2 * np.pi, size=3)
            f = rng.uniform(0, 2 * np.pi, size=3)
            lhs = m3_map(t) @ m3_map(f)
            rhs = m3_map(t + f)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_m3_functional_equation(self, rng):
        # f(k, t) is the first row of the circulant map
        t = rng.uniform(0, 2 * np.pi, size=3)
        f = rng.uniform(0, 2 * np.pi, size=3)
        ft = m3_map(t)[0, :]
        ff = m3_map(f)[0, :]
        fsum = m3_map(t + f)[0, :]
        for j in range(3):
            conv = sum(ft[k] * ff[(j - k) % 3] for k in range(3))
            assert abs(conv - fsum[j]) < 1e-10

    def test_m2_closed_form(self, rng):
        for theta in rng.uniform(-np.pi, np.pi, size=10):
            expected = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * SIGMA_X
            assert np.abs(m2_map(theta) - expected).max() < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_m3_group_law_property(self, seed):
        rng = np.random.default_rng(seed)
        t, f = rng.uniform(-np.pi, np.pi, size=(2, 3))
        assert np.abs(m3_map(t) @ m3_map(f) - m3_map(t + f)).max() < 1e-10


class TestProjectionFromDiagonal:
    def test_d2_vertex(self):
        rho, coeffs = projection_from_diagonal(2, (1.0, 0.0), 1.234)
        assert np.abs(rho.matrix - np.diag([1.0, 0.0])).max() < 1e-12
        assert abs(coeffs.table[0, 1]) < 1e-12 and abs(coeffs.table[1, 1]) < 1e-12

    def test_d3_vertices_recover_diagonal_projections(self):
        for which in range(3):
            b = [0.0, 0.0, 0.0]
            b[which] = 1.0
            rho, coeffs = projection_from_diagonal(3, b, (0.0, 0.0, 0.0))
            expected = subgroup_projection(ProjectionSpec(3, SpinLabel(1, 0), (-which) % 3))
            assert np.abs(rho.matrix - expected).max() < 1e-12
            assert abs(coeffs.table[0, 1]) < 1e-12
            assert abs(coeffs.table[1, 1]) < 1e-12
            assert abs(coeffs.table[2, 1]) < 1e-12

    def test_rank_one_and_diagonal(self, rng):
        for d in (2, 3):
            for _ in range(25):
                b = rng.uniform(0.1, 1.0, size=d)
                b /= np.linalg.norm(b)
                theta = rng.uniform(-np.pi, np.pi, size=d)
                theta[-1] = -theta[:-1].sum()
                rho, _ = projection_from_diagonal(d, b, theta)
                vals = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
                assert abs(vals[0] - 1.0) < 1e-9
                assert np.abs(vals[1:]).max() < 1e-9
                assert np.abs(np.diagonal(rho.matrix).real - b**2).max() < 1e-12

    def test_special_angles_recover_subgroup_projections(self):
        # uniform diagonal with third-turn phases reproduces every
        # projection generated by a label with second index 1
        b = np.full(3, 1.0 / math.sqrt(3.0))
        grid = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
        family = {
            (j, r): subgroup_projection(ProjectionSpec(3, SpinLabel(j, 1), r))
            for j in range(3)
            for r in range(3)
        }
        hits = set()
        for t0, t1 in itertools.product(grid, repeat=2):
            t2 = -(t0 + t1)
            rho, _ = projection_from_diagonal(3, b, (t0, t1, t2))
            for key, p in family.items():
                if np.abs(rho.matrix - p).max() < 1e-9:
                    hits.add(key)
        assert hits == set(family)

    def test_mixing_map_relates_coefficient_columns(self, rng):
        # the s column at phase theta is M_d(theta) applied to the zero
        # phase column
        for d in (2, 3):
            b = rng.uniform(0.1, 1.0, size=d)
            b /= np.linalg.norm(b)
            theta = rng.uniform(-np.pi, np.pi, size=d)
            theta[-1] = -theta[:-1].sum()
            _, at_zero = projection_from_diagonal(d, b, np.zeros(d))
            _, at_theta = projection_from_diagonal(d, b, theta)
            t_col = at_zero.table[:, 1]
            s_col = at_theta.table[:, 1]
            mapped = (m3_map(theta) if d == 3 else m2_map(theta[0])) @ t_col
            assert np.abs(mapped - s_col).max() < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            projection_from_diagonal(4, (1, 0, 0, 0), (0, 0, 0, 0))
        with pytest.raises(ValueError):
            projection_from_diagonal(2, (1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            projection_from_diagonal(3, (1.0, 0.0, 0.0), (0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            projection_from_diagonal(3, (1.0, 0.0, 0.0), 0.5)
