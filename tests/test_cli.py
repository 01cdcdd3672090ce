import argparse
import dataclasses
import importlib.util
import itertools
import json
import math
import os
import runpy
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep import (
    DEFAULT_TOLERANCE,
    INCONCLUSIVE,
    INSEPARABLE,
    SEPARABLE,
    CertificateReport,
    DimVector,
    NecessaryViolation,
    NegativeEigenvalue,
    SpinCoefficients,
    WernerSpec,
    composite_spin,
    decode,
    random_density,
    spin_matrix,
    verify_decomposition,
    werner_density,
)
import spinsep.cli
from spinsep.cli import MIN_TOL, main, report_text
from spinsep.composite import kron_all
from spinsep.werner import PRIME_LIMIT
from spinsep.io import read_decomposition_file, read_density_file, write_density_file

from reference_io import coefficients_document, density_document, report_document

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "docs" / "examples"


@pytest.fixture
def werner_file(tmp_path):
    w = werner_density(WernerSpec(2, 2, 0.5))
    path = tmp_path / "werner_half.json"
    write_density_file(path, w.matrix, w.dims)
    return path


class TestBasis:
    def test_single_label_matches_library(self, capsys):
        assert main(["basis", "--d", "3", "--label", "1,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dims"] == [3]
        entry = doc["matrices"][0]
        got = np.array([[complex(re, im) for re, im in row] for row in entry["matrix"]])
        assert np.abs(got - spin_matrix(3, 1, 1)).max() < 1e-15

    def test_full_qubit_family(self, capsys):
        assert main(["basis", "--d", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["matrices"]) == 4
        for entry in doc["matrices"]:
            got = np.array([[complex(re, im) for re, im in row] for row in entry["matrix"]])
            assert np.array_equal(got, spin_matrix(2, entry["j"], entry["k"]))

    def test_composite_dims(self, capsys):
        assert main(["basis", "--dims", "2,3", "--label", "5,4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        got = np.array(
            [[complex(re, im) for re, im in row] for row in doc["matrices"][0]["matrix"]]
        )
        d = DimVector((2, 3))
        assert np.abs(got - composite_spin(d, decode(d, 5), decode(d, 4))).max() < 1e-15

    def test_stdout_bytes(self, capsys):
        """The exact documents, signed zeros and last digits included."""
        o, one, minus = [0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]
        qubit = [
            {"j": 0, "k": 0, "matrix": [[one, o], [o, one]]},
            {"j": 0, "k": 1, "matrix": [[o, one], [one, o]]},
            {"j": 1, "k": 0, "matrix": [[one, o], [o, minus]]},
            {"j": 1, "k": 1, "matrix": [[o, one], [minus, o]]},
        ]
        assert main(["basis", "--d", "2"]) == 0
        doc = {"format_version": 1, "dims": [2], "matrices": qubit}
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"

        z, y = [-0.0, 0.0], [0.0, -0.0]
        a, b = [-0.5000000000000004, -0.8660254037844384], [-0.4999999999999998, 0.8660254037844387]
        c, e = [0.5000000000000004, 0.8660254037844384], [0.4999999999999998, -0.8660254037844387]
        matrix = [
            [o, o, o, o, one, o],
            [o, o, y, o, o, a],
            [z, o, o, b, o, o],
            [z, minus, z, o, o, o],
            [z, z, c, o, o, y],
            [e, z, z, z, o, o],
        ]
        assert main(["basis", "--dims", "2,3", "--label", "5,4"]) == 0
        doc = {"format_version": 1, "dims": [2, 3], "matrices": [{"j": 5, "k": 4, "matrix": matrix}]}
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"

    def test_bad_dimension_exits_semantic(self, capsys):
        assert main(["basis", "--d", "1"]) == 3

    @pytest.mark.parametrize("label", ["1", "1,2,3"])
    def test_label_needs_two_integers(self, capsys, label):
        assert main(["basis", "--d", "2", "--label", label]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --label takes two integers j,k, got {label!r}\n"

    @pytest.mark.parametrize("label", ["4,0", "0,-1"])
    def test_label_out_of_range_exits_3(self, capsys, label):
        assert main(["basis", "--dims", "2,2", "--label", label]) == 3
        captured = capsys.readouterr()
        j, k = label.split(",")
        assert captured.out == ""
        assert captured.err == f"error: label ({j},{k}) out of range for total dimension 4\n"


class TestTransform:
    def test_round_trip_both_directions(self, tmp_path, capsys, rng):
        d = DimVector((2, 3))
        rho = random_density(d, rng)
        src = tmp_path / "rho.json"
        coeff = tmp_path / "rho.coeffs.json"
        back = tmp_path / "rho.back.json"
        write_density_file(src, rho.matrix, d)
        assert main(["transform", "--input", str(src), "--output", str(coeff)]) == 0
        assert (
            main(
                [
                    "transform",
                    "--input",
                    str(coeff),
                    "--direction",
                    "from-spin",
                    "--output",
                    str(back),
                ]
            )
            == 0
        )
        matrix, dims = read_density_file(back)
        assert dims == d
        assert np.abs(matrix - rho.matrix).max() < 1e-10

    def test_mixed_has_single_unit_entry(self, tmp_path, capsys):
        d = DimVector((2, 2))
        src = tmp_path / "mixed.json"
        write_density_file(src, np.eye(4) / 4, d)
        assert main(["transform", "--input", str(src)]) == 0
        doc = json.loads(capsys.readouterr().out)
        table = np.array(
            [[complex(re, im) for re, im in row] for row in doc["coefficients"]]
        )
        assert abs(table[0, 0] - 1.0) < 1e-12
        table[0, 0] = 0.0
        assert np.abs(table).max() < 1e-12

    def test_truncated_file_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "dims": [2, 2], "matrix": [[')
        assert main(["transform", "--input", str(bad)]) == 2

    @pytest.mark.parametrize(
        "content",
        [b"[" * 200000, b'{"format_version": 1, "dims": [2], "matrix": "\xff"}'],
        ids=["deeply-nested", "not-utf-8"],
    )
    def test_unparseable_file_is_format_error_naming_it(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["transform", "--input", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_integer_too_large_for_a_double_is_format_error(self, tmp_path, capsys):
        doc = density_document(np.eye(2) / 2, DimVector((2,)))
        doc["matrix"][1][0][1] = 10**400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["transform", "--input", str(bad)]) == 2
        assert "matrix: entry (1,0)" in capsys.readouterr().err

    def test_dims_mismatch_is_semantic_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = {
            "format_version": 1,
            "dims": [2, 3],
            "matrix": [[[1.0, 0.0]]],
        }
        bad.write_text(json.dumps(doc))
        assert main(["transform", "--input", str(bad)]) == 3

    @pytest.mark.parametrize("direction", ["to-spin", "from-spin"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_output_exits_3(self, tmp_path, capsys, direction, to_file):
        # NaN has no JSON token, so nothing may be written.
        table = np.eye(4, dtype=complex)
        table[1, 2] = np.nan
        src = tmp_path / "nan.json"
        if direction == "to-spin":
            doc = density_document(table / 4, DimVector((2, 2)))
        else:
            doc = coefficients_document(SpinCoefficients(DimVector((2, 2)), table))
        # The library writers refuse NaN, so the text is written directly.
        src.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        argv = ["transform", "--input", str(src), "--direction", direction]
        assert main(argv + (["--output", str(out)] if to_file else [])) == 3
        assert not out.exists()
        # The from-spin input is a coefficient file holding a NaN token.
        assert capsys.readouterr() == (
            "",
            f"error: --input {src}: an entry is NaN or infinite, "
            "and JSON cannot hold NaN or infinity\n",
        )

    @pytest.mark.parametrize("direction", ["to-spin", "from-spin"])
    def test_overflowing_output_exits_3_without_warnings(self, tmp_path, capsys, direction):
        # Finite entries of 1e308 overflow in the transform; only the error is printed.
        table = np.full((4, 4), 1e308, dtype=complex)
        src = tmp_path / "huge.json"
        if direction == "to-spin":
            doc = density_document(table, DimVector((2, 2)))
        else:
            doc = coefficients_document(SpinCoefficients(DimVector((2, 2)), table))
        src.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["transform", "--input", str(src), "--direction", direction]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err == (
            f"error: --input {src}: the transform overflows a double, "
            "and JSON cannot hold NaN or infinity\n"
        )

    def test_strict_rejects_invalid_density(self, tmp_path):
        d = DimVector((2,))
        src = tmp_path / "nondensity.json"
        write_density_file(src, np.diag([1.5, -0.5]).astype(complex), d)
        assert main(["transform", "--input", str(src), "--strict"]) == 4
        assert main(["transform", "--input", str(src)]) == 0


class TestCertify:
    def test_entangled_werner(self, werner_file, capsys):
        assert main(["certify", "--input", str(werner_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "inseparable-certified"
        assert doc["checks"]["necessary"]["verdict"] == "inseparable-certified"
        assert doc["checks"]["peres"]["2"]["verdict"] == "inseparable-certified"
        assert doc["checks"]["sufficient"]["verdict"] == "inconclusive"

    def test_json_report_bytes(self, werner_file, capsys):
        """The exact report: key order, witness fields in dataclass order after
        their kind, digit tuples as arrays."""
        necessary = {
            "verdict": "inseparable-certified",
            "witness": {
                "kind": "necessary-violation",
                "j": [0, 1],
                "k": [1, 0],
                "u": [0, 0],
                "v": [1, 1],
                "bound": 0.125,
                "magnitude": 0.24999999999999994,
            },
        }
        peres = {
            str(a): {
                "verdict": "inseparable-certified",
                "witness": {"kind": "negative-eigenvalue", "subsystem": a, "value": -0.12499999999999996},
            }
            for a in (1, 2)
        }
        full = {
            "dims": [2, 2],
            "l1_norm": 1.4999999999999996,
            "checks": {
                "necessary": necessary,
                "peres": peres,
                "sufficient": {"verdict": "inconclusive", "witness": None},
            },
            "verdict": "inseparable-certified",
        }
        for flags, doc in (([], full), (["--necessary"], {**full, "checks": {"necessary": necessary}})):
            assert main(["certify", "--input", str(werner_file), "--json", *flags]) == 0
            assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"

    def test_boundary_werner_with_decomposition(self, tmp_path, capsys):
        w = werner_density(WernerSpec(2, 2, 1 / 3))
        src = tmp_path / "w3.json"
        out = tmp_path / "w3.dec.json"
        write_density_file(src, w.matrix, w.dims)
        code = main(
            [
                "certify",
                "--input",
                str(src),
                "--sufficient",
                "--emit-decomposition",
                str(out),
            ]
        )
        assert code == 0
        dec = read_decomposition_file(out)
        result = verify_decomposition(dec, w)
        assert result, result.failure

    def test_random_mixed_density_certified(self, tmp_path, capsys, rng):
        from conftest import mixed_to_norm

        rho = mixed_to_norm(DimVector((2, 2)), 0.9, rng)
        src = tmp_path / "mixed.json"
        write_density_file(src, rho.matrix, rho.dims)
        assert main(["certify", "--input", str(src), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "separable-certified"
        assert doc["l1_norm"] == pytest.approx(0.9, abs=1e-9)

    def test_single_subsystem_exits_semantic(self, tmp_path, rng):
        rho = random_density(DimVector((4,)), rng)
        src = tmp_path / "single.json"
        write_density_file(src, rho.matrix, rho.dims)
        assert main(["certify", "--input", str(src)]) == 3

    @pytest.mark.parametrize("flag", ["--peres", "--sufficient"])
    def test_single_subsystem_refused_by_every_check(self, tmp_path, capsys, flag):
        """Peres and the certificate would run on one subsystem; the CLI refuses first."""
        src = tmp_path / "single.json"
        write_density_file(src, np.eye(4) / 4, DimVector((4,)))
        assert main(["certify", "--input", str(src), flag]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: certification needs at least two subsystems\n"

    def test_invalid_density_exits_4(self, tmp_path):
        src = tmp_path / "bad.json"
        write_density_file(src, np.eye(4).astype(complex), DimVector((2, 2)))
        assert main(["certify", "--input", str(src)]) == 4

    @pytest.mark.parametrize(
        "entry, value", [((0, 0), np.nan), ((1, 1), np.inf), ((0, 1), np.nan)]
    )
    def test_non_finite_density_exits_4(self, tmp_path, capsys, entry, value):
        m = np.eye(4, dtype=complex) / 4
        m[entry] = m[entry[::-1]] = value
        src = tmp_path / "nonfinite.json"
        # The library writers refuse NaN and infinity, so the text is written directly.
        src.write_text(json.dumps(density_document(m, DimVector((2, 2)))))
        assert main(["certify", "--input", str(src), "--all", "--json"]) == 4
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["certify", "--all"], ["transform", "--strict"]])
    def test_failed_eigenvalue_solve_exits_4(self, tmp_path, capsys, command):
        """Hermitian with trace one, but (m + m^dag)/2 overflows and the
        eigenvalue solve fails."""
        src = tmp_path / "huge.json"
        m = np.diag([1e308, -1e308, 0.5, 0.5]).astype(complex)
        write_density_file(src, m, DimVector((2, 2)))
        assert main([*command, "--input", str(src)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid density: eigenvalue solve failed; largest entry magnitude is 1.000e+308\n"
        )

    def test_emitted_witness_is_not_verified_twice(self, tmp_path, monkeypatch):
        import spinsep.cli

        def fail(*args):
            raise AssertionError("the certificate already verified its witness")

        monkeypatch.setattr(spinsep.cli, "verify_decomposition", fail)
        w = werner_density(WernerSpec(2, 2, 1 / 3))
        src = tmp_path / "w.json"
        out = tmp_path / "w.dec.json"
        write_density_file(src, w.matrix, w.dims)
        argv = ["certify", "--input", str(src), "--sufficient", "--emit-decomposition", str(out)]
        assert main(argv) == 0
        assert verify_decomposition(read_decomposition_file(out), w)

    def test_certificate_verification_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        import spinsep.separability
        from spinsep import VerificationResult

        monkeypatch.setattr(
            spinsep.separability,
            "verify_decomposition",
            lambda *args: VerificationResult(False, "forced failure"),
        )
        w = werner_density(WernerSpec(2, 2, 1 / 3))
        src = tmp_path / "w.json"
        write_density_file(src, w.matrix, w.dims)
        assert main(["certify", "--input", str(src), "--sufficient"]) == 3
        assert "forced failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "check, named, value",
        [
            ("peres_check", "peres[2]", "-0.25"),
            ("necessary_check", "necessary", "0.375"),
        ],
    )
    def test_contradicting_checks_exit_3_without_a_file(
        self, check, named, value, tmp_path, monkeypatch, capsys, rng
    ):
        """A necessary or Peres check patched to say inseparable on a certified
        separable input: the contradiction is reported, not resolved."""
        import spinsep.cli
        from conftest import mixed_to_norm
        from spinsep import CertificateReport, NecessaryViolation, NegativeEigenvalue

        if check == "peres_check":
            real = spinsep.cli.peres_check

            def patched(rho, r, tol):
                if r != 2:
                    return real(rho, r, tol)
                witness = NegativeEigenvalue(2, -0.25)
                return CertificateReport("inseparable-certified", witness=witness)
        else:

            def patched(rho, tol):
                violation = NecessaryViolation((0, 0), (1, 1), (0, 1), (1, 0), 0.125, 0.375)
                return CertificateReport("inseparable-certified", witness=violation)

        monkeypatch.setattr(spinsep.cli, check, patched)
        rho = mixed_to_norm(DimVector((2, 2)), 0.9, rng)
        src, out = tmp_path / "mixed.json", tmp_path / "dec.json"
        write_density_file(src, rho.matrix, rho.dims)
        argv = ["certify", "--input", str(src), "--all", "--json", "--emit-decomposition", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: contradiction: sufficient says separable")
        norm = spinsep.cli.sufficient_certificate(rho).l1_norm
        for text in (f"spin L1 norm {norm!r}", f"{named} says inseparable", value):
            assert text in captured.err
        assert not out.exists()

    def test_human_report_lines(self, werner_file, capsys):
        assert main(["certify", "--input", str(werner_file)]) == 0
        out = capsys.readouterr().out
        assert "spin L1 norm" in out
        assert "verdict: inseparable-certified" in out

    def test_flag_subset_runs_only_requested_checks(self, werner_file, capsys):
        assert main(["certify", "--input", str(werner_file), "--necessary", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["checks"]) == {"necessary"}

    def test_emit_without_certification_writes_nothing(self, werner_file, tmp_path, capsys):
        out = tmp_path / "dec.json"
        code = main(
            [
                "certify",
                "--input",
                str(werner_file),
                "--sufficient",
                "--emit-decomposition",
                str(out),
            ]
        )
        assert code == 0
        assert not out.exists()
        assert "no decomposition emitted" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "spelling", ["A.json", "./A.json", "sub/../A.json", "absolute", "hard-link"]
    )
    def test_decomposition_over_its_own_input_exits_3(
        self, tmp_path, monkeypatch, capsys, spelling
    ):
        """A certified witness written over the input, under any spelling or
        through a hard link, would destroy the density: refused before
        anything is printed, the input keeps its bytes."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        target = tmp_path / "A.json"
        w = werner_density(WernerSpec(2, 2, 1 / 3))
        write_density_file(target, w.matrix, w.dims)
        before = target.read_bytes()
        emit = {"absolute": str(target), "hard-link": "B.json"}.get(spelling, spelling)
        if spelling == "hard-link":
            os.link("A.json", emit)
        assert main(["certify", "--input", "A.json", "--all", "--emit-decomposition", emit]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --emit-decomposition would overwrite --input: {emit}, A.json\n"
        )
        assert target.read_bytes() == before

    def test_missing_input_beside_an_existing_decomposition_path(
        self, tmp_path, monkeypatch, capsys
    ):
        """The same-file check leaves a missing input to the read's own error."""
        monkeypatch.chdir(tmp_path)
        Path("E.json").write_text("kept\n")
        assert main(["certify", "--input", "nope.json", "--emit-decomposition", "E.json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 2] No such file or directory: 'nope.json'\n"
        assert Path("E.json").read_text() == "kept\n"

    def test_missing_input_is_named_as_given(self, tmp_path, monkeypatch, capsys):
        """The input is opened by the path as given, not as pathlib normalises it."""
        monkeypatch.chdir(tmp_path)
        assert main(["certify", "--input", "./nope.json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 2] No such file or directory: './nope.json'\n"


# Floats as reports may hold them: any finite double, its edge cases and
# integral values, each also as a numpy scalar.
report_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 1.0, -2.0, 3e16]
)
report_floats = report_floats | report_floats.map(np.float64)
# Every subset of the checks that certify can run, as (necessary, peres, sufficient).
CHECK_SUBSETS = [flags for flags in itertools.product([False, True], repeat=3) if any(flags)]


def check_names(b: int, flags) -> list[str]:
    necessary, peres, sufficient = flags
    return (
        ["necessary"] * necessary
        + [f"peres[{r}]" for r in range(1, b + 1) if peres]
        + ["sufficient"] * sufficient
    )


@st.composite
def certify_reports(draw):
    """(dims, norm, reports, overall) of a report on b = 2..6 subsystems: the
    checks of any subset certify runs, each with any verdict text and a witness
    of no kind (none, or an object such as a decomposition), a necessary
    violation or a negative eigenvalue."""
    b = draw(st.integers(2, 6))
    digits = st.tuples(*[st.integers(0, 12)] * b)
    witnesses = (
        st.sampled_from([None, object()])
        | st.builds(NecessaryViolation, digits, digits, digits, digits, report_floats, report_floats)
        | st.builds(NegativeEigenvalue, st.integers(1, b), report_floats)
    )
    verdicts = st.sampled_from([SEPARABLE, INSEPARABLE, INCONCLUSIVE]) | st.text()
    reports = {
        name: CertificateReport(draw(verdicts), witness=draw(witnesses))
        for name in check_names(b, draw(st.sampled_from(CHECK_SUBSETS)))
    }
    dims = draw(st.lists(st.integers(2, 12), min_size=b, max_size=b))
    return dims, draw(report_floats), reports, draw(verdicts)


class TestReportText:
    """``report_text`` against ``json.dumps(report_document(...), indent=2)``."""

    @settings(max_examples=300, deadline=None)
    @given(certify_reports())
    def test_equals_json_dumps_of_the_reference(self, case):
        assert report_text(*case) == json.dumps(report_document(*case), indent=2)

    def test_witness_kind_is_part_of_the_shape(self):
        """Reports that differ only in a witness's kind each get their own frame."""
        violation = NecessaryViolation((0, 1), (1, 0), (0, 0), (1, 1), 0.125, 0.25)
        for witness in (None, violation, NegativeEigenvalue(1, -0.5), object(), violation):
            reports = {"necessary": CertificateReport(INSEPARABLE, witness=witness)}
            case = ([2, 3], 1.5, reports, INSEPARABLE)
            assert report_text(*case) == json.dumps(report_document(*case), indent=2)

    @settings(max_examples=100, deadline=None)
    @given(certify_reports(), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
    def test_non_finite_float_raises(self, case, bad, data):
        """NaN or infinity in any float field raises, as ``allow_nan=False`` does."""
        dims, norm, reports, overall = case
        fields = [(None, "norm")] + [
            (name, field)
            for name, report in reports.items()
            for field in ("bound", "magnitude", "value")
            if hasattr(report.witness, field)
        ]
        name, field = data.draw(st.sampled_from(fields))
        if name is None:
            norm = bad
        else:
            witness = dataclasses.replace(reports[name].witness, **{field: bad})
            reports = {**reports, name: dataclasses.replace(reports[name], witness=witness)}
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            report_text(dims, norm, reports, overall)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("check", ["necessary_check", "peres_check", "sufficient_certificate"])
    def test_non_finite_value_prints_nothing(self, check, bad, werner_file, monkeypatch, capsys):
        if check == "peres_check":
            report = CertificateReport(INSEPARABLE, witness=NegativeEigenvalue(1, bad))
            monkeypatch.setattr(spinsep.cli, check, lambda rho, r, tol: report)
        else:
            violation = NecessaryViolation((0, 1), (1, 0), (0, 0), (1, 1), 0.125, bad)
            report = CertificateReport(INSEPARABLE, witness=violation)
            if check == "sufficient_certificate":  # its norm is the report's
                report = CertificateReport(INCONCLUSIVE, l1_norm=bad)
            monkeypatch.setattr(spinsep.cli, check, lambda rho, tol: report)
        assert main(["certify", "--input", str(werner_file), "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: Out of range float values are not JSON compliant: {bad!r}\n"


def exact_trace_density(dims: DimVector) -> np.ndarray:
    """Near-mixed density with a dyadic diagonal summing to exactly one."""
    n = dims.size
    diag = np.full(n, 1024 // n)
    diag[-1] += 1024 - diag.sum()
    m = np.full((n, n), 0.01 / n, dtype=complex)
    m[np.diag_indices(n)] = diag / 1024
    return m


class TestTolerance:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_below_float_resolution_exits_3(self, tmp_path, capsys, dims):
        d = DimVector(dims)
        src = tmp_path / "exact.json"
        write_density_file(src, exact_trace_density(d), d)
        assert main(["certify", "--input", str(src), "--all", "--json"]) == 0
        capsys.readouterr()
        assert main(["--tol", "1e-17", "certify", "--input", str(src), "--all", "--json"]) == 3
        assert "--tol" in capsys.readouterr().err

    def test_werner_output_certified_at_the_least_tol(self, tmp_path, capsys):
        """W(2,6) at s*: its strided trace misses one by 2 ulps, more than the least
        --tol, while the exact sum of its diagonal is one, so certify takes it."""
        out = str(tmp_path / "w.json")
        assert main(["werner", "--p", "2", "--n", "6", "--output", out]) == 0
        capsys.readouterr()
        assert abs(read_density_file(out)[0].trace() - 1.0) > MIN_TOL
        assert main(["--tol", repr(MIN_TOL), "certify", "--input", out, "--all"]) == 0
        assert capsys.readouterr().out.endswith("verdict: inconclusive\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-3", "0.5", "10"])
    def test_out_of_range_or_non_finite_exits_3(self, werner_file, capsys, value):
        assert main([f"--tol={value}", "certify", "--input", str(werner_file)]) == 3
        assert capsys.readouterr().err.startswith("error: --tol must be")


class TestWernerCommand:
    def test_threshold_printed(self, capsys):
        assert main(["werner", "--p", "2", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "0.2" in out

    def test_emit_decomposition_verifies(self, tmp_path, capsys):
        out = tmp_path / "dec.json"
        code = main(
            ["werner", "--p", "3", "--n", "2", "--s", "0.25", "--emit-decomposition", str(out)]
        )
        assert code == 0
        dec = read_decomposition_file(out)
        w = werner_density(WernerSpec(3, 2, 0.25))
        result = verify_decomposition(dec, w)
        assert result, result.failure

    def test_matrix_output(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(["werner", "--p", "2", "--n", "2", "--s", "0.5", "--output", str(out)]) == 0
        matrix, dims = read_density_file(out)
        expected = werner_density(WernerSpec(2, 2, 0.5))
        assert dims == expected.dims
        assert np.abs(matrix - expected.matrix).max() < 1e-15

    def test_composite_p_decomposition_rejected(self, tmp_path, capsys):
        out = tmp_path / "dec.json"
        code = main(
            ["werner", "--p", "4", "--n", "2", "--s", "0.1", "--emit-decomposition", str(out)]
        )
        assert code == 3
        assert not out.exists()

    def test_composite_p_reports_bound(self, capsys):
        assert main(["werner", "--p", "4", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "necessary-condition bound" in out

    def test_large_prime_p_answers_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["werner", "--p", str(2**61 - 1), "--n", "2"]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == f"separability threshold: {1 / (1 + (2**61 - 1))!r}\n"

    def test_huge_composite_p_reports_bound(self, capsys):
        assert main(["werner", "--p", str(10**30), "--n", "2"]) == 0
        assert capsys.readouterr().out.startswith("necessary-condition bound: ")

    @pytest.mark.parametrize("p", [PRIME_LIMIT, 2**89 - 1], ids=["psi13", "mersenne-89"])
    def test_undecidable_p_exits_3_naming_the_limit(self, capsys, p):
        assert main(["werner", "--p", str(p), "--n", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot tell if {p} is prime: the test is exact only below {PRIME_LIMIT}\n"
        )

    @pytest.mark.parametrize("flag", ["--output", "--emit-decomposition"])
    def test_request_too_large_to_allocate_exits_3(self, tmp_path, capsys, flag):
        # 2^40 basis states: the first array alone would take 8 TiB.
        out = tmp_path / "out.json"
        assert main(["werner", "--p", "2", "--n", "40", flag, str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_failed_output_write_removes_the_decomposition(self, tmp_path, capsys):
        """The decomposition is written first; a density that cannot be
        written takes it away again, so a failed run leaves no file."""
        dec, out = tmp_path / "dec.json", tmp_path / "absent" / "w.json"
        argv = ["werner", "--p", "2", "--n", "2", "--output", str(out)]
        assert main(argv + ["--emit-decomposition", str(dec)]) == 3
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_above_threshold_decomposition_rejected(self, tmp_path):
        out = tmp_path / "dec.json"
        code = main(
            ["werner", "--p", "2", "--n", "2", "--s", "0.5", "--emit-decomposition", str(out)]
        )
        assert code == 3

    @pytest.mark.parametrize("p", ["2", "4"])
    @pytest.mark.parametrize("s", ["1.5", "-0.1", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", [None, "--output", "--emit-decomposition"])
    def test_s_outside_unit_interval_exits_3(self, tmp_path, capsys, p, s, flag):
        out = tmp_path / "out.json"
        argv = ["werner", "--p", p, "--n", "2", f"--s={s}"]
        assert main(argv + ([flag, str(out)] if flag else [])) == 3
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "p, n", [("0", "0"), ("2", "2000"), ("4", "1"), ("1", "3"), ("-3", "2")]
    )
    def test_p_or_n_out_of_range_exits_3(self, capsys, p, n):
        assert main(["werner", "--p", p, "--n", n]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("p", ["2", "4"])
    def test_overflowing_bound_names_p_and_n(self, capsys, p):
        assert main(["werner", "--p", p, "--n", "2000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--p {p} --n 2000" in captured.err
        assert "1/(1 + p^(n-1))" in captured.err

    def test_huge_n_exits_3_at_once(self, capsys):
        assert main(["werner", "--p", "3", "--n", "10000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --p 3 --n 10000000: p^(n-1) overflows a double, "
            "so 1/(1 + p^(n-1)) cannot be computed\n"
        )

    @pytest.mark.parametrize("flag", ["--output", "--emit-decomposition"])
    def test_composite_p_needs_s_for_an_output(self, tmp_path, capsys, flag):
        out = tmp_path / "out.json"
        assert main(["werner", "--p", "4", "--n", "2", flag, str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("necessary-condition bound: 0.2 ")
        assert captured.err == "error: --s is required for composite dimensions\n"
        assert not out.exists()

    @pytest.mark.parametrize("with_output", [False, True], ids=["emit", "emit-and-output"])
    def test_verification_failure_exits_3_without_a_file(self, tmp_path, capsys, with_output):
        """At --tol 2^-52 the factors' rounded traces fail the gate."""
        dec_path, rho_path = tmp_path / "dec.json", tmp_path / "w.json"
        argv = ["--tol", repr(spinsep.cli.MIN_TOL), "werner", "--p", "3", "--n", "3"]
        argv += ["--emit-decomposition", str(dec_path)]
        argv += ["--output", str(rho_path)] * with_output
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: decomposition failed verification: term 0, factor 0: trace")
        assert not dec_path.exists() and not rho_path.exists()

    @pytest.mark.parametrize("p, s, code", [("3", [], 0), ("4", ["--s", "0.1"], 3)])
    def test_prime_test_and_bound_run_once(self, tmp_path, monkeypatch, p, s, code):
        calls = []

        def counted(name):
            real = getattr(spinsep.cli, name)

            def call(*args):
                calls.append(name)
                return real(*args)

            return call

        for name in ("is_prime", "werner_bound"):
            monkeypatch.setattr(spinsep.cli, name, counted(name))
        argv = ["werner", "--p", p, "--n", "3", "--output", str(tmp_path / "w.json"), *s]
        assert main(argv + ["--emit-decomposition", str(tmp_path / "d.json")]) == code
        assert calls == ["is_prime", "werner_bound"]

    def test_prime_test_fails_before_the_bound(self, capsys):
        """Both would fail: the prime test is undecidable at PRIME_LIMIT and
        p^(n-1) overflows; the prime test's error is the one reported."""
        assert main(["werner", "--p", str(PRIME_LIMIT), "--n", "10000000"]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot tell if {PRIME_LIMIT} is prime")

    @pytest.mark.parametrize(
        "spelling", ["A.json", "./A.json", "sub/../A.json", "absolute", "hard-link"]
    )
    def test_output_and_decomposition_on_one_file_exit_3(
        self, tmp_path, monkeypatch, capsys, spelling
    ):
        """Both files written to one path, or to two hard links of one file,
        would leave the density where the decomposition is reported: refused
        before anything is printed or written, and the file keeps its bytes."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        target = tmp_path / "A.json"
        target.write_text("kept\n")
        emit = {"absolute": str(target), "hard-link": "B.json"}.get(spelling, spelling)
        if spelling == "hard-link":
            os.link("A.json", emit)
        argv = ["werner", "--p", "2", "--n", "2", "--output", "A.json"]
        assert main(argv + ["--emit-decomposition", emit]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --output and --emit-decomposition are the same file: A.json, {emit}\n"
        )
        assert target.read_text() == "kept\n"

    @pytest.mark.parametrize("spelling", ["sub/../A.json", "absolute"])
    def test_output_and_decomposition_on_one_new_file_exit_3(
        self, tmp_path, monkeypatch, capsys, spelling
    ):
        """Before either file exists, their resolved spellings are compared."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        emit = str(tmp_path / "A.json") if spelling == "absolute" else spelling
        argv = ["werner", "--p", "2", "--n", "2", "--output", "A.json"]
        assert main(argv + ["--emit-decomposition", emit]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --output and --emit-decomposition are the same file: A.json, {emit}\n"
        )
        assert not (tmp_path / "A.json").exists()

    def test_density_built_once(self, tmp_path, monkeypatch):
        import spinsep.cli

        calls = []

        def counting(spec):
            calls.append(spec)
            return werner_density(spec)

        monkeypatch.setattr(spinsep.cli, "werner_density", counting)
        rho_path, dec_path = tmp_path / "w.json", tmp_path / "w.dec.json"
        argv = ["werner", "--p", "2", "--n", "2", "--output", str(rho_path)]
        assert main(argv + ["--emit-decomposition", str(dec_path)]) == 0
        assert calls == [WernerSpec(2, 2, 1 / 3)]
        assert np.array_equal(read_density_file(rho_path)[0], werner_density(calls[0]).matrix)
        assert verify_decomposition(read_decomposition_file(dec_path), werner_density(calls[0]))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["werner", "--p", "3", "--n", "2", "--emit-decomposition", ""], "--emit-decomposition"),
        (["werner", "--p", "3", "--n", "2", "--output", ""], "--output"),
        (["werner", "--p", "3", "--n", "2", "--output", "", "--emit-decomposition", "D.json"],
         "--output"),
        (["werner", "--p", "3", "--n", "2", "--output", "R.json", "--emit-decomposition", ""],
         "--emit-decomposition"),
        (["certify", "--input", str(GOLDEN_DIR / "maximally_mixed_2x2.density.json"), "--all",
          "--emit-decomposition", ""], "--emit-decomposition"),
        (["basis", "--d", "2", "--output", ""], "--output"),
        (["transform", "--input", str(GOLDEN_DIR / "maximally_mixed_2x2.density.json"),
          "--output", ""], "--output"),
        (["permute", "--input", str(GOLDEN_DIR / "maximally_mixed_2x2.density.json"),
          "--sigma", "2,1", "--output", ""], "--output"),
        (["transform", "--input", "missing.json", "--output", ""], "--output"),
    ],
    ids=["werner-emit", "werner-output", "werner-output-of-two", "werner-emit-of-two",
         "certify-emit", "basis-output", "transform-output", "permute-output",
         "transform-output-of-missing-input"],
)
def test_empty_output_path_exits_3(tmp_path, monkeypatch, capsys, argv, flag):
    """An empty path names no file: refused before anything is printed
    or written, or any input is read, not taken as "no file" or as the
    working directory."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} is an empty path\n"
    assert list(tmp_path.iterdir()) == []


class TestPermute:
    def test_identity_preserves_numeric_content(self, tmp_path, capsys, rng):
        d = DimVector((2, 3))
        rho = random_density(d, rng)
        src = tmp_path / "rho.json"
        out = tmp_path / "same.json"
        write_density_file(src, rho.matrix, d)
        assert main(["permute", "--input", str(src), "--sigma", "1,2", "--output", str(out)]) == 0
        assert json.loads(src.read_text()) == json.loads(out.read_text())

    def test_swap_exchanges_factors(self, tmp_path, rng):
        a = random_density(DimVector((2,)), rng).matrix
        b = random_density(DimVector((3,)), rng).matrix
        src = tmp_path / "prod.json"
        out = tmp_path / "swapped.json"
        write_density_file(src, kron_all((a, b)), DimVector((2, 3)))
        assert main(["permute", "--input", str(src), "--sigma", "2,1", "--output", str(out)]) == 0
        matrix, dims = read_density_file(out)
        assert dims == DimVector((3, 2))
        assert np.abs(matrix - kron_all((b, a))).max() < 1e-12

    def test_length_mismatch_exits_semantic(self, tmp_path, rng):
        rho = random_density(DimVector((2, 2)), rng)
        src = tmp_path / "rho.json"
        write_density_file(src, rho.matrix, rho.dims)
        assert main(["permute", "--input", str(src), "--sigma", "1,2,3"]) == 3

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_entry_exits_3(self, tmp_path, capsys, value, to_file):
        """Named as transform names it, not by json's "Out of range float values"."""
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = value
        src = tmp_path / "nonfinite.json"
        # The library writers refuse NaN and infinity, so the text is written directly.
        src.write_text(json.dumps(density_document(m, DimVector((2, 2)))))
        out = tmp_path / "out.json"
        argv = ["permute", "--input", str(src), "--sigma", "2,1"]
        assert main(argv + (["--output", str(out)] if to_file else [])) == 3
        assert not out.exists()
        assert capsys.readouterr() == (
            "",
            f"error: --input {src}: an entry is NaN or infinite, "
            "and JSON cannot hold NaN or infinity\n",
        )


class TestLibraryWriters:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_density_refused_without_a_file(self, tmp_path, value):
        m = np.eye(4, dtype=complex) / 4
        m[2, 2] = value
        path = tmp_path / "nonfinite.json"
        with pytest.raises(ValueError):
            write_density_file(path, m, DimVector((2, 2)))
        assert not path.exists()


class TestGoldenFiles:
    def test_round_trip_identity(self, tmp_path):
        for name in (
            "maximally_mixed_2x2.density.json",
            "werner_2qubit_third.density.json",
        ):
            path = GOLDEN_DIR / name
            matrix, dims = read_density_file(path)
            copy = tmp_path / name
            write_density_file(copy, matrix, dims)
            assert json.loads(path.read_text()) == json.loads(copy.read_text())

    def test_regenerated_goldens_are_byte_identical(self, tmp_path, capsys):
        script = GOLDEN_DIR.parent.parent / "scripts" / "regenerate_goldens.py"
        spec = importlib.util.spec_from_file_location("regenerate_goldens", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main(tmp_path)
        names = sorted(p.name for p in GOLDEN_DIR.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name

    def test_golden_decomposition_verifies(self):
        dec = read_decomposition_file(GOLDEN_DIR / "werner_2qubit_third.decomposition.json")
        w = werner_density(WernerSpec(2, 2, 1 / 3))
        result = verify_decomposition(dec, w)
        assert result, result.failure

    def test_golden_werner_certifies(self, capsys):
        path = GOLDEN_DIR / "werner_2qubit_third.density.json"
        assert main(["certify", "--input", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "separable-certified"


class TestDeterminism:
    def test_identical_invocations_identical_output(self, tmp_path, rng):
        rho = werner_density(WernerSpec(2, 2, 1 / 3))
        src = tmp_path / "w.json"
        write_density_file(src, rho.matrix, rho.dims)
        out1 = tmp_path / "dec1.json"
        out2 = tmp_path / "dec2.json"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "certify",
                        "--input",
                        str(src),
                        "--sufficient",
                        "--emit-decomposition",
                        str(out),
                    ]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_tol_flag_threads_through(self, tmp_path, rng):
        # a generous tolerance accepts a slightly off-trace matrix under --strict
        d = DimVector((2,))
        m = np.diag([0.6, 0.4005]).astype(complex)
        src = tmp_path / "loose.json"
        write_density_file(src, m, d)
        assert main(["transform", "--input", str(src), "--strict"]) == 4
        assert main(["--tol", "1e-2", "transform", "--input", str(src), "--strict"]) == 0


class TestParserReuse:
    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        assert main(["werner", "--p", "2", "--n", "2"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for p in (2, 3, 5, 7, 11):
            for n in (2, 3):
                assert main(["werner", "--p", str(p), "--n", str(n)]) == 0
        assert built == []

    def test_json_flag_does_not_stick(self, werner_file, capsys):
        assert main(["certify", "--input", str(werner_file), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "inseparable-certified"
        assert main(["certify", "--input", str(werner_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("dims: 2,2 (N=4)\n")
        assert out.endswith("verdict: inseparable-certified\n")

    def test_s_does_not_stick(self, tmp_path, capsys):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["werner", "--p", "3", "--n", "2", "--s", "0.1", "--output", str(first)]) == 0
        assert main(["werner", "--p", "3", "--n", "2", "--output", str(second)]) == 0
        for path, s in ((first, 0.1), (second, 0.25)):
            matrix, _ = read_density_file(path)
            assert np.array_equal(matrix, werner_density(WernerSpec(3, 2, s)).matrix)

    def test_tol_does_not_stick(self, werner_file, monkeypatch, capsys):
        seen = []
        check = spinsep.cli.check_density

        def recording(matrix, dims, tol):
            seen.append(tol)
            return check(matrix, dims, tol)

        monkeypatch.setattr(spinsep.cli, "check_density", recording)
        assert main(["--tol", "1e-6", "certify", "--input", str(werner_file)]) == 0
        assert main(["certify", "--input", str(werner_file)]) == 0
        assert seen[0].abs_eps == 1e-6
        assert seen[1] == DEFAULT_TOLERANCE

    @pytest.mark.parametrize(
        "argv, code, stream, text",
        [
            (["--help"], 0, "out", "{basis,transform,certify,werner,permute}"),
            (["certify", "--help"], 0, "out", "--emit-decomposition"),
            (["certify"], 2, "err", "the following arguments are required: --input"),
        ],
    )
    def test_repeated_exits_print_the_same(self, capsys, argv, code, stream, text):
        printed = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            printed.append(getattr(capsys.readouterr(), stream))
        assert printed[0] == printed[1]
        assert printed[0].startswith("usage: spinsep") and text in printed[0]


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    """``python -m spinsep`` exits with main()'s status."""
    monkeypatch.setattr("sys.argv", ["spinsep", "werner", "--p", "2", "--n", "2"])
    monkeypatch.delitem(sys.modules, "spinsep.__main__", raising=False)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("spinsep", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"separability threshold: {1 / 3!r}\n"


def test_python_dash_m_runs_the_cli_module(monkeypatch, capsys):
    """``python -m spinsep.cli`` exits with main()'s status."""
    monkeypatch.setattr("sys.argv", ["spinsep", "werner", "--p", "2", "--n", "2"])
    # runpy warns when the module it runs as a script is already imported.
    monkeypatch.delitem(sys.modules, "spinsep.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("spinsep.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"separability threshold: {1 / 3!r}\n"
