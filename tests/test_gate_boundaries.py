"""Every gate of a verdict, pinned just inside and just outside its bound:
a factor eigenvalue, a term weight, the weight sum and the reconstruction
defect in ``verify_decomposition``, the partial-transpose eigenvalue of
``peres_check`` and the excess of ``necessary_check`` (each at the default
tolerance and under a ``--tol`` override), the spin-norm bound of
``sufficient_certificate``, its rules that keep the uniform residual only
above WEIGHT_FLOOR and a spin coefficient only at or above it, the same
slack and floor in ``werner_separable_decomposition``, and the closed
range of ``--tol``.

Each input sits at 0.5x (inside) and 2x (outside) its bound, so loosening
any of these comparisons tenfold, tightening an inseparable gate tenfold,
or closing the residual's open bound, makes one of these cases fail.
``--tol`` is taken exactly at MIN_TOL and MAX_TOL and one double outside
each."""

import math

import numpy as np
import pytest

from spinsep import (
    DEFAULT_TOLERANCE,
    INSEPARABLE,
    SEPARABLE,
    DensityMatrix,
    DimVector,
    SeparableDecomposition,
    SpinCoefficients,
    WernerSpec,
    check_density,
    from_spin,
    necessary_check,
    peres_check,
    spin_l1_norm,
    sufficient_certificate,
    to_spin,
    verify_decomposition,
    werner_density,
    werner_separable_decomposition,
    werner_threshold,
)
from spinsep import separability
from spinsep.cli import MAX_TOL, MIN_TOL, _tolerance, main
from spinsep.separability import INCONCLUSIVE, NORM_SLACK, WEIGHT_FLOOR

from conftest import residual_flags

TOLERANCES = [DEFAULT_TOLERANCE, _tolerance(1e-6)]
TOL_IDS = ["default", "tol-1e-6"]
DIMS = DimVector((2, 2))
MIXED = np.eye(2, dtype=complex) / 2


def single_term(weight, factor):
    """weight * factor (x) I/2, and its exact mixture as the target."""
    dec = SeparableDecomposition(DIMS, [weight], [[0, 0]], [[factor], [MIXED]])
    return dec, DensityMatrix(weight * np.kron(factor, MIXED), DIMS)


@pytest.mark.parametrize("tol", TOLERANCES, ids=TOL_IDS)
@pytest.mark.parametrize("scale, ok", [(0.5, True), (2.0, False)], ids=["inside", "outside"])
def test_factor_eigenvalue_gate(tol, scale, ok):
    e = scale * tol.abs_eps
    dec, target = single_term(1.0, np.diag([1.0 + e, -e]).astype(complex))
    result = verify_decomposition(dec, target, tol)
    assert result.ok is ok
    if ok:
        assert result.min_factor_eigenvalue == pytest.approx(-e, rel=1e-6)
    else:
        assert result.failure.startswith("term 0, factor 0: negative eigenvalue")


@pytest.mark.parametrize("tol", TOLERANCES, ids=TOL_IDS)
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["over", "under"])
@pytest.mark.parametrize("scale, ok", [(0.5, True), (2.0, False)], ids=["inside", "outside"])
def test_weight_sum_gate(tol, sign, scale, ok):
    dec, target = single_term(1.0 + sign * scale * tol.abs_eps, MIXED)
    result = verify_decomposition(dec, target, tol)
    assert result.ok is ok
    if not ok:
        assert result.failure.startswith("weights sum to ")


@pytest.mark.parametrize("tol", TOLERANCES, ids=TOL_IDS)
@pytest.mark.parametrize("scale, ok", [(0.5, True), (2.0, False)], ids=["inside", "outside"])
def test_reconstruction_gate(tol, scale, ok):
    dec, target = single_term(1.0, MIXED)
    offset = np.zeros((4, 4), dtype=complex)
    offset[0, 1] = offset[1, 0] = scale * tol.reconstruction_eps
    result = verify_decomposition(dec, DensityMatrix(target.matrix + offset, DIMS), tol)
    assert result.ok is ok
    if not ok:
        assert result.failure.startswith("reconstruction defect")


@pytest.mark.parametrize("tol", TOLERANCES, ids=TOL_IDS)
@pytest.mark.parametrize("scale, ok", [(0.5, True), (2.0, False)], ids=["inside", "outside"])
def test_term_weight_gate(tol, scale, ok):
    """Weights (1 + e, -e) on two copies of I/2 (x) I/2 mix to I/4 exactly."""
    e = scale * tol.abs_eps
    dec = SeparableDecomposition(DIMS, [1.0 + e, -e], [[0, 0], [0, 0]], [[MIXED], [MIXED]])
    result = verify_decomposition(dec, DensityMatrix(np.eye(4) / 4, DIMS), tol)
    assert result.ok is ok
    if not ok:
        assert result.failure == f"term 1: negative weight {-e:.3e}"


def test_negative_weight_named_although_the_mixture_matches():
    dec = SeparableDecomposition(DIMS, [1.5, -0.5], [[0, 0], [0, 0]], [[MIXED], [MIXED]])
    assert np.array_equal(dec.assemble(), np.eye(4) / 4)
    result = verify_decomposition(dec, DensityMatrix(np.eye(4) / 4, DIMS))
    assert (result.ok, result.failure) == (False, "term 1: negative weight -5.000e-01")


def phi_plus_at(delta):
    """(1 - p) I/4 + p |Phi+><Phi+| with p = (1 + 4 delta)/3: its partial
    transpose has lowest eigenvalue -delta, and its necessary excess
    |rho_{00,11}| - sqrt(rho_{01,01} rho_{10,10}) is +delta."""
    p = (1.0 + 4.0 * delta) / 3.0
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return check_density((1.0 - p) * np.eye(4) / 4 + p * np.outer(phi, phi), DIMS)


@pytest.mark.parametrize("tol", TOLERANCES, ids=TOL_IDS)
@pytest.mark.parametrize(
    "scale, verdict", [(0.5, INCONCLUSIVE), (2.0, INSEPARABLE)], ids=["inside", "outside"]
)
def test_peres_gate(tol, scale, verdict):
    delta = scale * tol.abs_eps
    for subsystem in (1, 2):
        report = peres_check(phi_plus_at(delta), subsystem, tol)
        assert report.verdict == verdict
        if verdict == INSEPARABLE:
            assert report.witness.subsystem == subsystem
            assert report.witness.value == pytest.approx(-delta, rel=1e-6)


@pytest.mark.parametrize("tol", TOLERANCES, ids=TOL_IDS)
@pytest.mark.parametrize(
    "scale, verdict", [(0.5, INCONCLUSIVE), (2.0, INSEPARABLE)], ids=["inside", "outside"]
)
def test_necessary_gate(tol, scale, verdict):
    delta = scale * tol.abs_eps
    report = necessary_check(phi_plus_at(delta), tol)
    assert report.verdict == verdict
    if verdict == INSEPARABLE:
        w = report.witness
        assert w.magnitude - w.bound == pytest.approx(delta, rel=1e-6)


@pytest.mark.parametrize("scale, ok", [(0.5, True), (2.0, False)], ids=["inside", "outside"])
def test_werner_threshold_slack(scale, ok):
    """The Werner builder accepts s up to s* + NORM_SLACK, as the certificate
    accepts a spin norm up to 1 + NORM_SLACK."""
    s = werner_threshold(2, 3) + scale * NORM_SLACK
    if ok:
        dec = werner_separable_decomposition(2, 3, s)
        assert not any(residual_flags(dec))
    else:
        with pytest.raises(ValueError, match="above the threshold"):
            werner_separable_decomposition(2, 3, s)


@pytest.mark.parametrize("scale, kept", [(0.5, False), (2.0, True)], ids=["dropped", "kept"])
def test_werner_residual_floor(scale, kept):
    """The Werner builder keeps the residual (1 - s/s*) I/N only above
    WEIGHT_FLOOR, as the certificate does."""
    s = werner_threshold(2, 3) * (1.0 - scale * WEIGHT_FLOOR)
    dec = werner_separable_decomposition(2, 3, s)
    assert residual_flags(dec) == [False] * (len(dec.weights) - kept) + [True] * kept
    if kept:
        assert dec.weights[-1] == pytest.approx(scale * WEIGHT_FLOOR, rel=1e-2)
    assert verify_decomposition(dec, werner_density(WernerSpec(2, 3, s)))


def werner_at_norm(norm):
    """The two-qubit Werner state whose spin L1 norm is ``norm``: 3 s."""
    rho = werner_density(WernerSpec(2, 2, norm / 3))
    assert spin_l1_norm(to_spin(rho)) == pytest.approx(norm, abs=1e-15)
    return rho


@pytest.mark.parametrize(
    "scale, verdict", [(0.5, SEPARABLE), (2.0, INCONCLUSIVE)], ids=["inside", "outside"]
)
def test_norm_gate(scale, verdict):
    report = sufficient_certificate(werner_at_norm(1.0 + scale * NORM_SLACK))
    assert report.verdict == verdict
    assert (report.witness is not None) == (verdict == SEPARABLE)


def holds_residual(dec):
    """Whether the last term is I/d_a in every slot, and whether any slot
    holds I/d_a at all."""
    mixed = [(np.eye(d, dtype=complex) / d).tobytes() for d in dec.dims]
    last = [slot[k].tobytes() for slot, k in zip(dec.factors, dec.index[-1])]
    anywhere = any(m in {f.tobytes() for f in slot} for m, slot in zip(mixed, dec.factors))
    return last == mixed, anywhere


@pytest.mark.parametrize("scale, residual", [(2.0, True), (0.5, False)], ids=["kept", "dropped"])
def test_residual_gate(scale, residual):
    rho = werner_at_norm(1.0 - scale * WEIGHT_FLOOR)
    dec = sufficient_certificate(rho).witness
    assert holds_residual(dec) == (residual, residual)
    if residual:
        norm = spin_l1_norm(to_spin(rho))
        assert dec.weights[-1] == pytest.approx(1.0 - norm, rel=1e-6)


def test_residual_exactly_at_the_floor_is_dropped(monkeypatch):
    """The residual's bound is open.  1 - l1 is exact near l1 = 1 and is
    never the double 1e-14, so the floor is moved onto it."""
    rho = werner_at_norm(1.0 - 2.0 * WEIGHT_FLOOR)
    monkeypatch.setattr(separability, "WEIGHT_FLOOR", 1.0 - spin_l1_norm(to_spin(rho)))
    assert holds_residual(sufficient_certificate(rho).witness) == (False, False)


@pytest.mark.parametrize("scale, kept", [(0.5, False), (2.0, True)], ids=["absent", "present"])
def test_coefficient_floor(scale, kept):
    """I/4 plus one spin coefficient c at label (1, 2): the witness carries c
    only when |c| >= WEIGHT_FLOOR."""
    c = scale * WEIGHT_FLOOR
    table = np.zeros((4, 4), dtype=complex)
    table[0, 0], table[1, 2] = 1.0, c
    m = from_spin(SpinCoefficients(DIMS, table))
    rho = check_density((m + m.conj().T) / 2, DIMS)
    assert to_spin(rho).table[1, 2] == pytest.approx(c, rel=1e-6)
    dec = sufficient_certificate(rho).witness
    carried = to_spin(DensityMatrix(dec.assemble(), DIMS)).table[1, 2]
    assert (len(dec.weights) > 1) is kept
    assert carried == pytest.approx(c if kept else 0.0, rel=1e-6, abs=1e-3 * WEIGHT_FLOOR)


@pytest.mark.parametrize(
    "value, code",
    [
        (MIN_TOL, 0),
        (MAX_TOL, 0),
        (math.nextafter(MIN_TOL, 0.0), 3),
        (math.nextafter(MAX_TOL, 1.0), 3),
    ],
    ids=["min", "max", "below-min", "above-max"],
)
def test_tol_range_is_closed(capsys, value, code):
    assert main(["--tol", repr(value), "werner", "--p", "2", "--n", "2"]) == code
    err = capsys.readouterr().err
    if code:
        assert err == (
            f"error: --tol must be finite, at least {MIN_TOL:.3g} and at most {MAX_TOL:.3g}, "
            f"got {value!r}\n"
        )
    else:
        assert err == ""
