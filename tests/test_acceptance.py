"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
without ``-s`` they appear in the captured output of failing tests.
"""

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

from spinsep import (
    DimVector,
    INSEPARABLE,
    SEPARABLE,
    ProjectionSpec,
    SpinLabel,
    Tolerance,
    WernerSpec,
    alpha,
    check_density,
    conjugate_by_permutation,
    cyclic_family_density,
    eta,
    expand_spin_power,
    from_spin,
    m2_map,
    m3_map,
    necessary_check,
    partial_transpose,
    product_projection,
    projection_from_diagonal,
    random_density,
    spin_l1_norm,
    spin_matrix,
    spin_power,
    subgroup_projection,
    sufficient_certificate,
    to_spin,
    valid_generator,
    verify_decomposition,
    werner_density,
    werner_separable_decomposition,
    werner_threshold,
)
from spinsep.cli import main as cli_main
from spinsep.io import read_decomposition_file, read_density_file, write_density_file
from spinsep.projections import ProductProjectionSpec

from reference_identities import conjugate_label, l2_identity_check, trace_inner

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "docs" / "examples"


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")

        return wrapper

    return decorate


def all_labels(d):
    return [(j, k) for j in range(d) for k in range(d)]


def valid_labels(d):
    return [(j, k) for j, k in all_labels(d) if valid_generator(d, j, k)]


@criterion("1 spin-algebra identities d=2..6")
def test_criterion_01_spin_algebra():
    for d in range(2, 7):
        mats = {lab: spin_matrix(d, *lab) for lab in all_labels(d)}
        clock, shift = mats[(1, 0)], mats[(0, 1)]
        for u in all_labels(d):
            su = mats[u]
            # orthogonality
            for v in all_labels(d):
                expect = d if u == v else 0.0
                assert abs(trace_inner(su, mats[v]) - expect) < 1e-9
            # unitarity
            assert np.abs(su @ su.conj().T - np.eye(d)).max() < 1e-9
            # trace-zero off the identity
            if u != (0, 0):
                assert abs(np.trace(su)) < 1e-9
            # determinant parity
            expect_det = 1.0 if (d % 2 == 1 or sum(u) % 2 == 0) else -1.0
            assert abs(np.linalg.det(su) - expect_det) < 1e-9
            # generation from clock and shift
            built = np.linalg.matrix_power(clock, u[0]) @ np.linalg.matrix_power(shift, u[1])
            assert np.abs(built - su).max() < 1e-9
            # power formula against repeated multiplication
            for m in range(2 * d + 1):
                phase, label = spin_power(d, SpinLabel(*u), m)
                reduced = eta(d, phase) * mats[label]
                assert np.abs(reduced - np.linalg.matrix_power(su, m)).max() < 1e-9
        # commutator identity
        for (j, k), (r, s) in itertools.product(all_labels(d), repeat=2):
            lhs = mats[(j, k)] @ mats[(r, s)] - mats[(r, s)] @ mats[(j, k)]
            coeff = eta(d, (k * r) % d) - eta(d, (j * s) % d)
            rhs = coeff * mats[((j + r) % d, (k + s) % d)]
            assert np.abs(lhs - rhs).max() < 1e-9


@criterion("2 reference d=3 matrices")
def test_criterion_02_d3_reference_matrices():
    w = np.exp(2j * np.pi / 3)
    reference = {
        (0, 0): [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        (0, 1): [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        (0, 2): [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        (1, 0): [[1, 0, 0], [0, w, 0], [0, 0, w**2]],
        (1, 1): [[0, 1, 0], [0, 0, w], [w**2, 0, 0]],
        (1, 2): [[0, 0, 1], [w, 0, 0], [0, w**2, 0]],
        (2, 0): [[1, 0, 0], [0, w**2, 0], [0, 0, w]],
        (2, 1): [[0, 1, 0], [0, 0, w**2], [w, 0, 0]],
        (2, 2): [[0, 0, 1], [w**2, 0, 0], [0, w, 0]],
    }
    for (j, k), rows in reference.items():
        expected = np.array(rows, dtype=complex)
        assert np.abs(spin_matrix(3, j, k) - expected).max() < 1e-12


@criterion("3 transform round-trip and coefficient structure")
def test_criterion_03_transform_suite():
    rng = np.random.default_rng(3)
    for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        d = DimVector(dims)
        for _ in range(100):
            rho = random_density(d, rng)
            coeffs = to_spin(rho)
            assert np.abs(from_spin(coeffs) - rho.matrix).max() < 1e-10
            assert abs(coeffs.table[0, 0] - 1.0) < 1e-9
            lhs, rhs = l2_identity_check(rho)
            assert abs(lhs - rhs) < 1e-9
        # conjugation symmetry on a fresh sample per dims
        rho = random_density(d, rng)
        table = to_spin(rho).table
        for j in range(d.size):
            for k in range(d.size):
                pj, pk, phase = conjugate_label(d, j, k)
                assert abs(table[pj, pk] - phase * np.conj(table[j, k])) < 1e-9


@criterion("4 projection axioms, inversion, resolution of identity")
def test_criterion_04_projection_suite():
    alpha_cases = {2: {(1, 1)}, 4: {(1, 1), (1, 3), (3, 1), (3, 3)}}
    for d in range(2, 7):
        labels = valid_labels(d)
        assert alpha_cases.get(d, set()) <= set(labels)
        for j, k in labels:
            spec0 = ProjectionSpec(d, SpinLabel(j, k), 0)
            expected_alpha = d % 2 == 0 and (j * k) % 2 == 1
            assert spec0.alpha_applied == expected_alpha
            for r in range(d):
                p = subgroup_projection(ProjectionSpec(d, SpinLabel(j, k), r))
                assert np.abs(p - p.conj().T).max() < 1e-9
                assert np.abs(p @ p - p).max() < 1e-9
                assert abs(np.trace(p) - 1.0) < 1e-9
            for r in (0, 1):
                spec = ProjectionSpec(d, SpinLabel(j, k), r)
                g = eta(d, r) * spin_matrix(d, j, k)
                if spec.alpha_applied:
                    g = alpha(d) * g
                for t in range(d):
                    acc = np.zeros((d, d), dtype=complex)
                    for weight, offset in expand_spin_power(spec, t):
                        acc += weight * subgroup_projection(
                            ProjectionSpec(d, SpinLabel(j, k), offset)
                        )
                    assert np.abs(acc - np.linalg.matrix_power(g, t)).max() < 1e-9
    # resolution of the identity on (2, 3)
    dims = DimVector((2, 3))
    total = np.zeros((6, 6), dtype=complex)
    for l1 in range(2):
        for l2 in range(3):
            spec = ProductProjectionSpec(
                dims,
                (
                    ProjectionSpec(2, SpinLabel(1, 1), l1),
                    ProjectionSpec(3, SpinLabel(2, 1), l2),
                ),
            )
            total += product_projection(spec)
    assert np.abs(total - np.eye(6)).max() < 1e-9


@criterion("5 cyclic-family densities and decompositions")
def test_criterion_05_cyclic_families():
    rng = np.random.default_rng(5)
    tol = Tolerance(abs_eps=1e-9)
    for d, n in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)):
        labels = valid_labels(d)
        for _ in range(5):
            u_vec = [SpinLabel(*labels[rng.integers(len(labels))]) for _ in range(n)]
            r_vec = [int(rng.integers(d)) for _ in range(n)]
            rho, dec = cyclic_family_density(d, n, u_vec, r_vec)
            check_density(rho.matrix, rho.dims)
            result = verify_decomposition(dec, rho, tol)
            assert result, result.failure


@criterion("6 norm-bound certificates with verified decompositions")
def test_criterion_06_norm_certificates():
    rng = np.random.default_rng(6)
    counts = {(2, 2): 67, (2, 3): 67, (3, 3): 66}
    for dims, count in counts.items():
        d = DimVector(dims)
        n = d.size
        for _ in range(count):
            rho0 = random_density(d, rng)
            norm0 = spin_l1_norm(to_spin(rho0))
            lam = min(1.0, 0.999 / norm0)
            rho = check_density(lam * rho0.matrix + (1 - lam) * np.eye(n) / n, d)
            report = sufficient_certificate(rho)
            assert report.verdict == SEPARABLE
            result = verify_decomposition(report.witness, rho)
            assert result, result.failure
    # the closed boundary: two-qubit Werner at the threshold has norm one
    w = werner_density(WernerSpec(2, 2, 1 / 3))
    assert abs(spin_l1_norm(to_spin(w)) - 1.0) < 1e-12
    report = sufficient_certificate(w)
    assert report.verdict == SEPARABLE
    assert verify_decomposition(report.witness, w)


@criterion("7 Werner thresholds and explicit decompositions")
def test_criterion_07_werner_suite():
    tight = Tolerance(abs_eps=1e-11)
    for p, n in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)):
        s_star = werner_threshold(p, n)
        assert s_star == 1.0 / (1.0 + p ** (n - 1))
        w = werner_density(WernerSpec(p, n, s_star))
        dec = werner_separable_decomposition(p, n)
        assert np.abs(dec.assemble() - w.matrix).max() < 1e-10
        result = verify_decomposition(dec, w, tight)
        assert result, result.failure
        above = werner_density(WernerSpec(p, n, s_star + 1e-3))
        assert necessary_check(above).verdict == INSEPARABLE
        norm = spin_l1_norm(to_spin(w))
        expected = p * (1 - p ** (-n)) / (1 + p ** (-(n - 1)))
        assert abs(norm - expected) < 1e-9


@criterion("8 partial-transpose threshold scan")
def test_criterion_08_peres_scan():
    values = [round(0.1 * i, 1) for i in range(11)] + [1 / 3]
    for s in values:
        w = werner_density(WernerSpec(2, 2, s))
        lo = min(
            np.linalg.eigvalsh(partial_transpose(w, r)).min() for r in (1, 2)
        )
        if s <= 1 / 3 + 1e-9:
            assert lo >= -1e-9
        else:
            assert lo < -1e-9


@criterion("9 permutation conjugation identity")
def test_criterion_09_permutation_conjugation():
    rng = np.random.default_rng(9)
    dims = (2, 3, 2)
    d = DimVector(dims)
    for _ in range(5):
        factors = [
            rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in dims
        ]
        m = np.kron(np.kron(factors[0], factors[1]), factors[2])
        for sigma in itertools.permutations((1, 2, 3)):
            permuted = factors[sigma[0] - 1]
            for s in sigma[1:]:
                permuted = np.kron(permuted, factors[s - 1])
            got = conjugate_by_permutation(permuted, d, sigma)
            assert np.abs(got - m).max() < 1e-12


@criterion("10 phase parametrisation of trace-one projections")
def test_criterion_10_phase_parametrisation():
    rng = np.random.default_rng(10)
    # group law and identity
    assert np.abs(m3_map((0.0, 0.0, 0.0)) - np.eye(3)).max() < 1e-12
    for _ in range(50):
        t, f = rng.uniform(-np.pi, np.pi, size=(2, 3))
        assert np.abs(m3_map(t) @ m3_map(f) - m3_map(t + f)).max() < 1e-10
    # closed form for d = 2
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    for theta in rng.uniform(-np.pi, np.pi, size=20):
        expected = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * sigma_x
        assert np.abs(m2_map(theta) - expected).max() < 1e-12
    # 100 random draws per dimension are rank-one trace-one projections
    for d in (2, 3):
        for _ in range(100):
            b = rng.uniform(0.05, 1.0, size=d)
            b /= np.linalg.norm(b)
            theta = rng.uniform(-np.pi, np.pi, size=d)
            theta[-1] = -theta[:-1].sum()
            rho, _ = projection_from_diagonal(d, b, theta)
            vals = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
            assert abs(vals[0] - 1.0) < 1e-9
            assert np.abs(vals[1:]).max() < 1e-9
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-9
    # special angles reproduce the subgroup projections
    b = np.full(3, 1.0 / math.sqrt(3.0))
    grid = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    family = {
        (j, r): subgroup_projection(ProjectionSpec(3, SpinLabel(j, 1), r))
        for j in range(3)
        for r in range(3)
    }
    hits = set()
    for t0, t1 in itertools.product(grid, repeat=2):
        rho, _ = projection_from_diagonal(3, b, (t0, t1, -(t0 + t1)))
        for key, p in family.items():
            if np.abs(rho.matrix - p).max() < 1e-9:
                hits.add(key)
    assert hits == set(family)


@criterion("11 CLI round trips and emitted decomposition")
def test_criterion_11_cli_end_to_end(tmp_path, capsys):
    # golden files round-trip byte-identically through parse and serialise
    for name in ("maximally_mixed_2x2.density.json", "werner_2qubit_third.density.json"):
        path = GOLDEN_DIR / name
        matrix, dims = read_density_file(path)
        copy = tmp_path / name
        write_density_file(copy, matrix, dims)
        assert json.loads(path.read_text()) == json.loads(copy.read_text())
    golden_dec = read_decomposition_file(GOLDEN_DIR / "werner_2qubit_third.decomposition.json")
    w_third = werner_density(WernerSpec(2, 2, 1 / 3))
    assert verify_decomposition(golden_dec, w_third)
    # the decomposition command exits cleanly and its file re-verifies
    out = tmp_path / "werner_3_2.dec.json"
    code = cli_main(
        ["werner", "--p", "3", "--n", "2", "--s", "0.25", "--emit-decomposition", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    dec = read_decomposition_file(out)
    w = werner_density(WernerSpec(3, 2, 0.25))
    result = verify_decomposition(dec, w)
    assert result, result.failure
