"""Smoke tests: each script in scripts/ runs end to end on tiny arguments."""

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, argv, monkeypatch):
    module = load_script(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module.main()


MUTATIONS = load_script("mutation_gate").MUTATIONS


@pytest.fixture(scope="module")
def src_texts():
    return {p: p.read_text() for p in (SCRIPTS.parent / "src").rglob("*.py")}


@pytest.mark.parametrize("m", MUTATIONS, ids=range(len(MUTATIONS)))
def test_mutation_old_text_occurs_once_in_src(m, src_texts):
    assert m.old != m.new
    assert src_texts[SCRIPTS.parent / "src" / "spinsep" / m.file].count(m.old) == 1
    assert sum(text.count(m.old) for text in src_texts.values()) == 1


def test_mutation_gate_lists_its_mutants(monkeypatch, capsys):
    start = time.perf_counter()
    assert run_script("mutation_gate", ["--list"], monkeypatch) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    run = [m for m in MUTATIONS if not m.equivalent]
    assert len(run) >= 20
    assert sum(line.startswith("[") for line in lines) == len(MUTATIONS)
    assert sum(line.strip().startswith("equivalent: ") for line in lines) == len(MUTATIONS) - len(run)


@pytest.mark.parametrize("p", ["2", "4"])
def test_werner_scan(monkeypatch, capsys, p):
    run_script("werner_scan", ["--p", p, "--n", "2", "--steps", "3"], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"p={p} n=2  ")
    assert sum(line.endswith("<- s*") for line in lines) == 1


@pytest.mark.parametrize("p", ["3", "4"])
def test_werner_scan_overflowing_bound_names_p_and_n(monkeypatch, capsys, p):
    with pytest.raises(SystemExit) as exc:
        run_script("werner_scan", ["--p", p, "--n", "2000"], monkeypatch)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--p {p} --n 2000" in captured.err


def test_separable_neighborhood(monkeypatch, capsys):
    run_script("separable_neighborhood", ["--dims", "2,2", "--samples", "2"], monkeypatch)
    out = capsys.readouterr().out
    assert out.startswith("dims=(2, 2)  N=4  samples=2\n")
    assert "every blend at lambda* was certified" in out


def test_bench_assemble(monkeypatch, capsys, tmp_path):
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--cases", "werner-3-5", "--repeat", "1"]
    run_script("bench_assemble", argv, monkeypatch)
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")
    case = json.loads(out.read_text())["cases"]["werner-3-5"]
    assert case["dims"] == [3] * 5 and case["terms"] == 6564
    assert case["assemble_s"] > 0 and case["peak_mb"] > 0 and case["defect"] < 1e-12
    assert "build_s" not in case and "build_peak_mb" not in case


def test_bench_assemble_times_the_witness_build(monkeypatch, capsys, tmp_path):
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--cases", "mixed-3^5", "--repeat", "1"]
    run_script("bench_assemble", argv, monkeypatch)
    assert ", build " in capsys.readouterr().out
    case = json.loads(out.read_text())["cases"]["mixed-3^5"]
    assert case["dims"] == [3] * 5 and case["verified"] is True
    assert case["build_s"] > 0 and case["build_peak_mb"] > case["peak_mb"] > 0


@pytest.mark.parametrize(
    "name, argv, named",
    [
        ("werner_scan", ["--steps", "-1"], "--steps must be non-negative"),
        ("werner_scan", ["--p", "0"], "need d >= 2"),
        ("werner_scan", ["--n", "1"], "need n >= 2"),
        ("separable_neighborhood", ["--samples", "0"], "--samples must be at least 1"),
        ("separable_neighborhood", ["--dims", "2,x"], "--dims 2,x: invalid literal"),
        ("separable_neighborhood", ["--dims", "1,2"], "--dims 1,2: every dimension"),
    ],
    ids=["steps-negative", "p-0", "n-1", "samples-0", "dims-not-integers", "dims-1"],
)
def test_bad_argument_is_a_usage_error(monkeypatch, capsys, name, argv, named):
    with pytest.raises(SystemExit) as exc:
        run_script(name, argv, monkeypatch)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--cases", "werner-2-3"], "--cases: unknown case 'werner-2-3'"),
        (["--repeat", "0"], "--repeat must be at least 1"),
    ],
)
def test_bench_assemble_bad_argument(monkeypatch, capsys, tmp_path, argv, named):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        run_script("bench_assemble", ["--out", str(out), *argv], monkeypatch)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_bench_assemble_times_verification(monkeypatch, capsys, tmp_path):
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--cases", "distinct-2^7", "--repeat", "1"]
    run_script("bench_assemble", argv, monkeypatch)
    assert " verify " in capsys.readouterr().out
    case = json.loads(out.read_text())["cases"]["distinct-2^7"]
    assert case["verified"] is True and case["verify_s"] > 0


def test_bench_psd(monkeypatch, capsys, tmp_path):
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--sizes", "2^5", "--repeat", "1", "--rounds", "1"]
    run_script("bench_psd", argv, monkeypatch)
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")
    doc = json.loads(out.read_text())
    case = doc["cases"]["2^5"]
    assert doc["threads"] == doc["rounds"] == 1 and case["dims"] == [2] * 5
    assert case["screen_s"] > 0 and case["eigvalsh_s"] > 0
    assert case["speedup"] == case["eigvalsh_s"] / case["screen_s"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--sizes", "2^9"], "--sizes: unknown size '2^9'"),
        (["--repeat", "0"], "--repeat must be at least 1"),
        (["--rounds", "0"], "--rounds must be at least 1"),
    ],
)
def test_bench_psd_bad_argument(monkeypatch, capsys, tmp_path, argv, named):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        run_script("bench_psd", ["--out", str(out), *argv], monkeypatch)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
