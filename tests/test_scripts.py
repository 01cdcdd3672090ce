"""Smoke tests: each script in scripts/ runs end to end on tiny arguments."""

import contextlib
import importlib.util
import inspect
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spinsep import spin

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


def test_mutation_gate_runs_only_the_listed_mutants(tmp_path, monkeypatch, capsys):
    """--only runs the unmutated check, then each listed mutant in the order given,
    on a stub suite that fails whenever a mutation is applied."""
    gate = load_script("mutation_gate")
    picked = [i for i, m in enumerate(gate.MUTATIONS) if not m.equivalent][:3][::-1]
    spinsep_dir = tmp_path / "src" / "spinsep"
    spinsep_dir.mkdir(parents=True)
    for i in picked:
        m = gate.MUTATIONS[i]
        with open(spinsep_dir / m.file, "a") as fh:
            fh.write(m.old + "\n")
    runs = []

    def tier1(repo):
        texts = "".join(f.read_text() for f in sorted((repo / "src" / "spinsep").iterdir()))
        applied = [i for i in picked if gate.MUTATIONS[i].new in texts]
        runs.append(applied)
        return (1, "1 failed", "tests/stub.py::t") if applied else (0, "1 passed", "")

    monkeypatch.setattr(gate, "ROOT", tmp_path)
    monkeypatch.setattr(gate, "_tier1", tier1)
    monkeypatch.setattr(sys, "argv", ["mutation_gate.py", "--only", ",".join(map(str, picked))])
    assert gate.main() == 0
    assert runs == [[]] + [[i] for i in picked]
    assert capsys.readouterr().out.splitlines()[-1] == "3 run, 0 wrong"


@pytest.mark.parametrize(
    "only, named",
    [("1,x", "not a list of integers: '1,x'"), ("-1", "no mutant -1"), ("9999", "no mutant 9999")],
)
def test_mutation_gate_refuses_a_bad_only(monkeypatch, capsys, only, named):
    with pytest.raises(SystemExit) as exc:
        run_script("mutation_gate", ["--only", only], monkeypatch)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


# The gate in its own process, with a one-file ROOT and, in place of the
# unmutated tier-1 run, a child that writes its pid and waits.
GATE_UNDER_SIGTERM = """
import subprocess, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import mutation_gate as gate
gate.ROOT, pid_file = Path(sys.argv[2]), sys.argv[3]
WAIT = "import os, sys, time; open(sys.argv[1], 'w').write(str(os.getpid())); time.sleep(60)"
def tier1(repo):
    subprocess.run([sys.executable, "-c", WAIT, pid_file])
    return 0, "", ""
gate._tier1 = tier1
sys.argv = sys.argv[:1]
sys.exit(gate.main())
"""


def test_mutation_gate_removes_its_copy_on_sigterm(tmp_path):
    """A SIGTERM during the unmutated run stops the suite's child and removes
    the copy; the gate exits 128 + SIGTERM.  No tier-1 run is started."""
    root, tmp, pid_file = tmp_path / "root", tmp_path / "tmp", tmp_path / "child.pid"
    (root / "src").mkdir(parents=True)
    (root / "src" / "a.py").write_text("")
    tmp.mkdir()
    argv = [sys.executable, "-c", GATE_UNDER_SIGTERM, str(SCRIPTS), str(root), str(pid_file)]
    gate = subprocess.Popen(argv, env=dict(os.environ, TMPDIR=str(tmp)))
    child = None
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()):
            assert gate.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child = int(pid_file.read_text())
        assert [p.name[:14] for p in tmp.iterdir()] == ["mutation-gate-"]
        gate.send_signal(signal.SIGTERM)
        assert gate.wait(timeout=30) == 128 + signal.SIGTERM
        assert list(tmp.iterdir()) == []
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
        child = None
    finally:
        gate.kill()
        gate.wait()
        if child is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)


def test_uncovered_lines_over_one_test_class():
    """Run as a program on the spin_matrix tests: pytest's summary, then each
    listed line as file:line: text.  Those tests run all of spin_matrix but
    not spin_power, and never import __main__.py."""
    root = SCRIPTS.parent
    argv = [sys.executable, str(SCRIPTS / "uncovered_lines.py"), "tests/test_spin.py::TestSpinMatrix"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    summary = next(i for i, line in enumerate(lines) if re.fullmatch(r"\d+ passed in .*", line))
    listed = [re.fullmatch(r"(src/spinsep/\w+\.py):(\d+): (.*)", line) for line in lines[summary + 1 :]]
    assert listed and all(listed)
    for m in listed:
        assert (root / m[1]).read_text().splitlines()[int(m[2]) - 1].strip() == m[3]
    in_spin = {int(m[2]) for m in listed if m[1] == "src/spinsep/spin.py"}
    for function, ran in ((spin.spin_matrix, True), (spin.spin_power, False)):
        body, first = inspect.getsourcelines(function)
        assert in_spin.isdisjoint(range(first, first + len(body))) is ran
    assert "src/spinsep/__main__.py:4: raise SystemExit(main())" in lines


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
    assert not {"build_s", "build_peak_mb", "check_s", "check_eigvalsh_s"} & case.keys()


def test_bench_assemble_times_the_witness_build(monkeypatch, capsys, tmp_path):
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--cases", "mixed-3^5", "--repeat", "1"]
    run_script("bench_assemble", argv, monkeypatch)
    assert ", build " in capsys.readouterr().out
    case = json.loads(out.read_text())["cases"]["mixed-3^5"]
    assert case["dims"] == [3] * 5 and case["verified"] is True
    assert case["build_s"] > 0 and case["build_peak_mb"] > case["peak_mb"] > 0
    assert case["check_s"] > 0 and case["check_eigvalsh_s"] > 0


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
        (["--cases", "werner-2-13"], "known: werner-2-8, werner-3-5, werner-7-3, werner-2-10, "
         "werner-2-11, werner-2-12, mixed-"),
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

