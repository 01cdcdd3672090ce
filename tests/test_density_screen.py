"""The stacked density screen against per-factor references.

``verify_decomposition`` screens each slot's distinct factors as one stack
and sends only the factors the screen does not pass to ``check_density``.
Its verdict and failure string must equal the per-term reference verifier's
on stacks that mix valid projections with every kind of defect but a wrong
shape, which the decomposition refuses when it is built, and
``check_density``, which takes its verdict from the same screen, must raise
what the original one-matrix check raised.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsep.decompositions
from spinsep import (
    DensityMatrix,
    DimVector,
    ProductTerm,
    SeparableDecomposition,
    Tolerance,
    WernerSpec,
    sufficient_certificate,
    verify_decomposition,
    werner_density,
    werner_separable_decomposition,
)
from spinsep.linalg import check_density, density_screen

from conftest import mixed_to_norm
from reference_density import outcome, reference_check_density
from reference_terms import from_terms
from reference_verifier import reference_assemble, reference_verify

TOL = Tolerance()
EPS = TOL.abs_eps
SHAPES = [(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (4, 2)]


def projection(d, rng):
    """A random rank-one projection |psi><psi| on C^d."""
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _at(f, rng):
    return tuple(int(i) for i in rng.integers(len(f), size=2))


def _set(value):
    def defect(f, rng):
        f[_at(f, rng)] = value
        return f

    return defect


def _add(position, scale):
    def defect(f, rng):
        f[position] += scale * EPS
        return f

    return defect


def _negative(f, rng):
    return np.diag([1.5, -0.5] + [0.0] * (len(f) - 2)).astype(complex)


def _overflow(f, rng):
    f[0, 1] = f[1, 0] = 1e308
    return f


def _wrong_shape(f, rng):
    return np.eye(len(f) + 1, dtype=complex) / (len(f) + 1)


# Each takes a copy of a valid d x d projection and returns the factor to use.
DEFECTS = {
    "nan": _set(np.nan),
    "inf": _set(np.inf),
    "-inf": _set(-np.inf),
    "nan-imaginary": _set(complex(0.0, np.nan)),
    "asym-above": _add((0, 1), 1.5),
    "asym-below": _add((0, 1), 0.5),
    "trace-above": _add((0, 0), 1.5),
    "trace-below": _add((0, 0), 0.5),
    "trace-above-negative": _add((0, 0), -1.5),
    "negative-eigenvalue": _negative,
    "overflow": _overflow,
    "wrong-shape": _wrong_shape,
}


def mixture(dims, n_terms, pool, seed):
    """Terms drawing each factor from a per-slot pool of valid projections."""
    rng = np.random.default_rng(seed)
    pools = [[projection(d, rng) for _ in range(pool)] for d in dims]
    weights = rng.random(n_terms) + 0.05
    weights /= weights.sum()
    picks = rng.integers(pool, size=(n_terms, len(dims)))
    return [
        ProductTerm(float(w), tuple(p[k] for p, k in zip(pools, ks)))
        for w, ks in zip(weights, picks)
    ]


def with_defects(terms, defects, seed):
    """Replace the factor of each (kind, term, slot) by its defective copy."""
    rng = np.random.default_rng(seed)
    terms = list(terms)
    for kind, i, a in defects:
        i = i % len(terms)
        a = a % len(terms[i].factors)
        factors = list(terms[i].factors)
        factors[a] = DEFECTS[kind](np.array(factors[a]), rng)
        terms[i] = ProductTerm(terms[i].weight, tuple(factors))
    return terms


class TestAgainstReferenceVerifier:
    @given(
        dims=st.sampled_from(SHAPES),
        n_terms=st.integers(min_value=1, max_value=12),
        pool=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        defects=st.lists(
            st.tuples(
                st.sampled_from(sorted(DEFECTS)),
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_verdict_and_failure_equal_reference(self, dims, n_terms, pool, seed, defects):
        clean = mixture(dims, n_terms, pool, seed)
        dims = DimVector(dims)
        target = DensityMatrix(reference_assemble(from_terms(dims, clean)), dims)
        misshapen = sorted(a % len(dims) for kind, _, a in defects if kind == "wrong-shape")
        if misshapen:
            a = misshapen[0]
            with pytest.raises(ValueError, match=f"slot {a}: a factor is not {dims[a]} x "):
                from_terms(dims, with_defects(clean, defects, seed + 1))
            defects = [defect for defect in defects if defect[0] != "wrong-shape"]
        dec = from_terms(dims, with_defects(clean, defects, seed + 1))
        new = verify_decomposition(dec, target, TOL)
        old = reference_verify(dec, target, TOL)
        assert (new.ok, new.failure) == (old.ok, old.failure)
        assert (new.min_factor_eigenvalue is None) == (not new.ok)

    def test_later_slot_failing_first_is_named(self):
        """Slot 1's bad factor is first used at term 0, slot 0's at term 2."""
        terms = mixture((2, 3), 4, 2, 5)
        dims = DimVector((2, 3))
        target = DensityMatrix(reference_assemble(from_terms(dims, terms)), dims)
        broken = with_defects(terms, [("negative-eigenvalue", 2, 0), ("trace-above", 0, 1)], 0)
        dec = from_terms(dims, broken)
        result = verify_decomposition(dec, target, TOL)
        assert result.failure == reference_verify(dec, target, TOL).failure
        assert result.failure.startswith("term 0, factor 1: trace is ")

    @pytest.mark.parametrize("kind", sorted(DEFECTS))
    def test_each_defect_named_as_reference(self, kind):
        clean = mixture((2, 2), 6, 3, 8)
        dims = DimVector((2, 2))
        target = DensityMatrix(reference_assemble(from_terms(dims, clean)), dims)
        broken = with_defects(clean, [(kind, 3, 1)], 9)
        if kind == "wrong-shape":
            with pytest.raises(ValueError, match="slot 1: a factor is not 2 x 2"):
                from_terms(dims, broken)
            return
        dec = from_terms(dims, broken)
        result = verify_decomposition(dec, target, TOL)
        assert result.failure == reference_verify(dec, target, TOL).failure
        assert result.ok == kind.endswith("-below")
        assert result.ok or result.failure.startswith("term 3, factor 1: ")


class TestCheckDensityAgainstOriginal:
    @given(
        d=st.integers(min_value=2, max_value=5),
        kind=st.sampled_from(["valid", *sorted(DEFECTS)]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_error_type_message_and_worst(self, d, kind, seed):
        rng = np.random.default_rng(seed)
        m = projection(d, rng)
        if kind != "valid":
            m = DEFECTS[kind](m, rng)
        dims = DimVector((d,))
        assert outcome(check_density, m, dims) == outcome(reference_check_density, m, dims)

    def test_screen_verdicts_match_one_by_one(self, rng):
        """One stack of every defect at d = 3 against the one-matrix check.
        An overflowing factor can fail the whole solve (LinAlgError), so
        with it the screen may only reject more, never pass more."""
        kinds = [kind for kind in sorted(DEFECTS) if kind not in ("wrong-shape", "overflow")]
        stack = [projection(3, rng)] + [DEFECTS[kind](projection(3, rng), rng) for kind in kinds]
        expected = [outcome(reference_check_density, m, DimVector((3,))) is None for m in stack]
        ok, _, _, lo = density_screen(np.array(stack), TOL)
        assert ok.tolist() == expected and expected[0]
        assert np.isfinite(lo[ok]).all()
        ok, _, _, _ = density_screen(np.array(stack + [_overflow(projection(3, rng), rng)]), TOL)
        assert not (ok & ~np.array(expected + [False])).any()


class TestScreenedEigenvalues:
    def test_min_factor_eigenvalue_is_lowest_over_factors(self, rng):
        rho = mixed_to_norm(DimVector((2, 3)), 0.9, rng)
        dec = sufficient_certificate(rho).witness
        result = verify_decomposition(dec, rho)
        lows = [np.linalg.eigvalsh(f)[0] for slot in dec.factors for f in slot]
        assert result.ok and result.min_factor_eigenvalue == pytest.approx(min(lows), abs=1e-15)
        assert result.min_factor_eigenvalue >= -TOL.abs_eps

    def test_failure_leaves_min_factor_eigenvalue_unset(self):
        terms = with_defects(mixture((2, 2), 3, 2, 1), [("negative-eigenvalue", 1, 0)], 2)
        dims = DimVector((2, 2))
        target = DensityMatrix(np.eye(4, dtype=complex) / 4, dims)
        result = verify_decomposition(from_terms(dims, terms), target)
        assert not result and result.min_factor_eigenvalue is None

    def test_failed_batch_solve_checks_each_factor_alone(self, monkeypatch, rng):
        """A LinAlgError on a stack of several marks them all as suspects;
        checked one at a time they pass, with the same verdict and minimum."""
        rho = mixed_to_norm(DimVector((2, 2)), 0.9, rng)
        dec = sufficient_certificate(rho).witness
        expected = verify_decomposition(dec, rho)
        real = np.linalg.eigvalsh

        def eigvalsh(m):
            if len(m) > 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert verify_decomposition(dec, rho) == expected


class TestSharedStack:
    """Equal slots share one stack, which is screened once for all of them."""

    good = [np.eye(2, dtype=complex) / 2, np.diag([1.0, 0.0]).astype(complex)]
    bad = np.diag([1.5, -0.5]).astype(complex)

    @pytest.mark.parametrize("first", [0, 1, 2])
    def test_bad_entry_named_at_its_first_use(self, first):
        """Every slot uses the stack [good, good, bad]; slot ``first`` uses
        the bad entry at term 1 and the others only at term 2."""
        rows = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
        rows[1, first], rows[2, first] = 2, 1
        dims = DimVector((2, 2, 2))
        dec = SeparableDecomposition(dims, [0.5, 0.25, 0.25], rows, [self.good + [self.bad]] * 3)
        assert dec.factors[0] is dec.factors[1] is dec.factors[2]
        target = DensityMatrix(reference_assemble(dec), dims)
        result = verify_decomposition(dec, target, TOL)
        assert result.failure == reference_verify(dec, target, TOL).failure
        assert result.failure.startswith(f"term 1, factor {first}: negative eigenvalue")

    @pytest.mark.parametrize("p, n", [(3, 3), (2, 4), (5, 2)])
    def test_min_factor_eigenvalue_is_each_slots_screen(self, p, n):
        s = 0.5 / (1 + p ** (n - 1))
        dec = werner_separable_decomposition(p, n, s)
        result = verify_decomposition(dec, werner_density(WernerSpec(p, n, s)))
        lows = [density_screen(slot, TOL)[3].min() for slot in dec.factors]
        assert result.ok and result.min_factor_eigenvalue == min(lows)

    def test_a_rejected_entry_is_checked_once(self, monkeypatch):
        """A failed batch solve rejects all 13 entries of the one stack that
        both slots of W(3,2) at s = 0.1 share: each is checked once, not once
        per slot, with the same verdict and minimum."""
        dec = werner_separable_decomposition(3, 2, 0.1)
        target = werner_density(WernerSpec(3, 2, 0.1))
        expected, real, checks = verify_decomposition(dec, target), np.linalg.eigvalsh, []

        def eigvalsh(m):
            if m.ndim == 3 and len(m) > 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(
            spinsep.decompositions, "check_density", lambda *a: checks.append(1) or check_density(*a)
        )
        assert dec.factors[0] is dec.factors[1] and len(dec.factors[0]) == 13
        assert verify_decomposition(dec, target) == expected
        assert len(checks) == 13

    def test_one_screen_for_the_largest_werner_case(self, monkeypatch):
        """W(5,3): the three slots share one 31-entry stack, solved in one call."""
        dec = werner_separable_decomposition(5, 3, 0.5 / 26)
        target = werner_density(WernerSpec(5, 3, 0.5 / 26))
        solves, real = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solves.append(len(m)) or real(m))
        assert verify_decomposition(dec, target)
        assert solves == [len(dec.factors[0])] == [31]


def test_verify_memory_stays_bounded():
    """300 7-qubit terms, each with its own factors.  The peak stays under
    16 copies of the 128 x 128 complex target (4.2 MB); about 2.1 MB,
    nearly all of it in ``assemble``, is measured with numpy 2.4."""
    terms, b = 300, 7
    rng = np.random.default_rng(0)
    states = rng.standard_normal((b, terms, 2)) + 1j * rng.standard_normal((b, terms, 2))
    states /= np.linalg.norm(states, axis=2, keepdims=True)
    weights = rng.random(terms)
    weights /= weights.sum()
    factors = [s[:, :, None] * s[:, None, :].conj() for s in states]
    index = np.tile(np.arange(terms)[:, None], (1, b))
    dims = DimVector((2,) * b)
    dec = SeparableDecomposition(dims, weights, index, factors)
    psi = states[0]
    for s in states[1:]:
        psi = (psi[:, :, None] * s[:, None, :]).reshape(terms, -1)
    target = DensityMatrix((psi.T * weights) @ psi.conj(), dims)
    tracemalloc.start()
    try:
        result = verify_decomposition(dec, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result
    assert peak < 16 * target.matrix.nbytes


def test_sorted_rows_skip_the_sort(monkeypatch, rng):
    """Certificate rows come in order and assemble without a sort; Werner
    rows do not, and are sorted once, by a stable argsort of their packed keys."""
    calls = []
    real_argsort, real_lexsort = np.argsort, np.lexsort

    def argsort(a, *args, kind=None, **kwargs):
        calls.append(("argsort", kind, len(a)))
        return real_argsort(a, *args, kind=kind, **kwargs)

    def lexsort(keys):
        calls.append(("lexsort", None, len(keys[0])))
        return real_lexsort(keys)

    monkeypatch.setattr(np, "argsort", argsort)
    monkeypatch.setattr(np, "lexsort", lexsort)
    rho = mixed_to_norm(DimVector((2, 2, 2)), 0.9, rng)
    dec = sufficient_certificate(rho).witness
    calls.clear()
    assert np.abs(dec.assemble() - reference_assemble(dec)).max() <= 1e-12
    assert [c for c in calls if c[:2] != ("argsort", None)] == []  # the axis order is argsorted
    werner = werner_separable_decomposition(2, 3)
    target = werner_density(WernerSpec(2, 3, 0.2)).matrix
    assert np.abs(werner.assemble() - target).max() <= 1e-12
    assert [c for c in calls if c[:2] != ("argsort", None)] == [
        ("argsort", "stable", len(werner.weights))
    ]
