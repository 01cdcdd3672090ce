"""Mutation gate: every listed one-line mutation of src/ must fail tier-1.

Each entry names a file under src/spinsep/, an exact old text that occurs
once in src/, its replacement, and why the mutant is wrong.  An entry with
an ``equivalent`` reason is a mutant that no test can catch, because it
changes no result; it must survive.

The script copies the repository to a temporary directory, checks that the
unmutated copy passes, then applies one mutation at a time there and runs
the tier-1 suite with -x.  It names every mutant that survives.  The
working tree is never written.  tests/test_scripts.py checks that every old
text still occurs exactly once in src/, so the list cannot drift; that
check is left out of the mutant runs, since any mutation fails it.

Usage: python scripts/mutation_gate.py [--list]
Exit status: 0 if every mutant is killed and every equivalent survives,
1 otherwise, 2 if the unmutated copy fails tier-1 or an old text no longer
occurs exactly once.  A full run takes about fifteen minutes on two cores.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors",
         "--deselect", "tests/test_scripts.py::test_mutation_old_text_occurs_once_in_src"]
# Left out of the copy: history, caches, and the benchmark's working files and reports.
SKIP = {".git", "__pycache__", ".hypothesis", ".pytest_cache", "perfbench/work",
        "perfbench/results"}


class Mutation(NamedTuple):
    file: str  # under src/spinsep/
    old: str
    new: str
    reason: str
    equivalent: str = ""  # why no test can catch it


MUTATIONS = [
    # Gates of a separable verdict, each loosened past its bound.
    Mutation("linalg.py", "return lo >= -tol.abs_eps, asym, trace, lo",
             "return lo >= -10 * tol.abs_eps, asym, trace, lo",
             "a factor eigenvalue of -5e-9 passes at the default tolerance"),
    Mutation("decompositions.py", "if not (abs(total - 1.0) <= tol.abs_eps):",
             "if not (abs(total - 1.0) <= 10 * tol.abs_eps):",
             "weights summing to 1 + 5e-9 pass"),
    Mutation("decompositions.py", "if not (defect <= tol.reconstruction_eps):",
             "if not (defect <= 10 * tol.reconstruction_eps):",
             "a mixture 5e-8 from its target verifies"),
    Mutation("separability.py", "if norm > 1.0 + NORM_SLACK:", "if norm > 1.0 + 1e-6:",
             "a spin norm of 1 + 5e-7 is certified"),
    Mutation("separability.py", "if 1.0 - norm > WEIGHT_FLOOR else 0.0",
             "if 1.0 - norm >= WEIGHT_FLOOR else 0.0",
             "a residual exactly at WEIGHT_FLOOR becomes a term"),
    Mutation("separability.py", "mult = 1 + np.sign(", "mult = 1 + 0 * np.sign(",
             "every label is expanded once, ignoring its conjugate partner"),
    Mutation("decompositions.py", "bad = np.flatnonzero(~np.isfinite(w) | ~(w >= -tol.abs_eps))",
             "bad = np.flatnonzero(~(w >= -tol.abs_eps))",
             "an infinite weight is not named as non-finite"),
    Mutation("decompositions.py", "if not ok.all():", "if False:",
             "factors the screen rejects are never checked, so bad factors verify"),
    # check_density's one-factorisation shortcut.
    Mutation("linalg.py", "tau = eps - n * (n + 1)", "tau = 2 * eps - n * (n + 1)",
             "the shift allows eigenvalues down to -2 abs_eps"),
    Mutation("linalg.py", "np.abs(m - mh).max() <= eps and ", "",
             "a non-Hermitian matrix may take the shortcut"),
    Mutation("linalg.py", " and abs(m.trace() - 1.0) <= eps:", ":",
             "a matrix of trace 2 may take the shortcut"),
    Mutation("linalg.py", "(3 * n * float(max(parts.max(), -parts.min()))",
             "(3 * float(max(parts.max(), -parts.min()))",
             "nu no longer bounds ||H||_2, so the rounding bound fails"),
    Mutation("linalg.py", "twice.flat[:: n + 1] += 2 * tau", "twice.flat[:: n + 1] += tau",
             "2H is shifted by tau, not 2 tau"),
    Mutation("linalg.py", "if not np.isfinite(m).all():", "if False:",
             "a DensityMatrix holds NaN or infinite entries"),
    # Decomposition assembly.
    Mutation("decompositions.py", "new[1:, 1:] = np.logical_or.accumulate(idx[1:] != idx[:-1], axis=1)",
             "new[1:, 1:] = idx[1:] != idx[:-1]",
             "a run at depth a no longer ends where a shorter prefix changes"),
    Mutation("decompositions.py", "h = int(np.argmin(", "h = 0 * int(np.argmin(",
             "the meeting depth is forced to 0"),
    Mutation("decompositions.py",
             "if runs * tables[a].shape[0] <= len(outer) * tables[a].shape[1]:", "if True:",
             "the scatter branch is forced on"),
    Mutation("decompositions.py",
             "order = slice(None) if in_order else np.lexsort(self.index.T[::-1])",
             "order = np.lexsort(self.index.T[::-1])",
             "a certificate's rows, already in order, are sorted anyway"),
    # Necessary check.
    Mutation("separability.py", "swap[:, 1:] = digit_table(DimVector((2,) * (b - 1)))",
             "swap[:, 1:] = digit_table(DimVector((2,) * (b - 1)))[::-1]",
             "a tie between violations names another witness"),
    # File formats.
    Mutation("io.py", "if not set(map(type, level)) <= {float, int}:",
             "if not set(map(type, level)) <= {float, int, bool}:",
             "true and false are read as numbers"),
    Mutation("io.py", "if not (set(map(type, level)) <= {list} and set(map(len, level)) <= {n}):",
             "if not set(map(type, level)) <= {list}:",
             "ragged or misshapen matrices escape as a bare ValueError"),
    Mutation("io.py", "except OverflowError:\n        return None",
             "except ZeroDivisionError:\n        return None",
             "an integer too large for a double escapes as OverflowError"),
    Mutation("io.py", "if type(version) is not int or version != FORMAT_VERSION:",
             "if version != FORMAT_VERSION:",
             "format_version true is read as version 1"),
    Mutation("io.py", "return json.dumps(doc, indent=2, allow_nan=False)",
             "return json.dumps(doc, indent=2)",
             "NaN and Infinity are written, which JSON lacks"),
    # The CLI's --tol bounds, the prime test and the Werner bound.
    Mutation("cli.py", "if not (MIN_TOL <= value <= MAX_TOL):", "if not (MIN_TOL <= value):",
             "a --tol above 1e-2 is accepted"),
    Mutation("cli.py", "if not (MIN_TOL <= value <= MAX_TOL):",
             "if not (MIN_TOL < value <= MAX_TOL):",
             "--tol exactly 2^-52 is refused"),
    Mutation("werner.py", "PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
             "PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
             "41 is not prime, and the test is no longer exact below PRIME_LIMIT"),
    Mutation("werner.py", "if n >= PRIME_LIMIT:", "if n > PRIME_LIMIT:",
             "PRIME_LIMIT itself is called prime"),
    Mutation("werner.py", "return 1.0 / (1.0 + p ** (n - 1))", "return 1.0 / (1.0 + p ** n)",
             "the threshold is 1/(1 + p^n)"),
    # The core value types: each states its check once.
    Mutation("composite.py", "if len(dims) < 1:", "if len(dims) < 0:",
             "DimVector(()) is accepted"),
    Mutation("composite.py", "if any(d < 2 for d in dims):", "if any(d < 1 for d in dims):",
             "a subsystem of dimension 1 is accepted"),
    Mutation("composite.py", "if m.shape != (dims.size, dims.size):",
             "if m.shape[0] != dims.size:",
             "a matrix with the wrong column count passes as square"),
    Mutation("linalg.py", "if not (0 < self.abs_eps < math.inf):", "if not (0 < self.abs_eps):",
             "an infinite tolerance passes every gate"),
    Mutation("linalg.py", "if not (0 < self.abs_eps < math.inf):",
             "if not (0 <= self.abs_eps < math.inf):",
             "a zero tolerance is accepted"),
    Mutation("linalg.py", '"reconstruction_eps", 10 * self.abs_eps)',
             '"reconstruction_eps", 1e-8)',
             "the reconstruction bound ignores abs_eps"),
    Mutation("linalg.py", '"reconstruction_eps", 10 * self.abs_eps)',
             '"reconstruction_eps", 100 * self.abs_eps)',
             "the reconstruction bound is 100 x abs_eps"),
    Mutation("decompositions.py", "self.dims = dims = DimVector(dims)", "self.dims = dims",
             "a decomposition on plain-tuple dims fails with AttributeError in assemble"),
    # Equivalent mutants.
    Mutation("decompositions.py",
             "del step  # (T - 1, b) integers: gone before the kernel's allocations", "pass",
             "the row steps live until assemble returns",
             equivalent="it frees memory earlier and changes no value"),
    Mutation("linalg.py", "if tau > 0 and", "if tau >= 0 and",
             "a zero shift may take the shortcut",
             equivalent="at tau = 0, abs_eps = c (2 nu + abs_eps), so a factorisation of "
             "2H still proves lo >= -2 c nu >= -abs_eps; the shortcut stays sound"),
    Mutation("werner.py", "if (p.bit_length() - 1) * (n - 1) >= 1024:",
             "if (p.bit_length() - 1) * (n - 1) >= 1025:",
             "p^(n-1) of exactly 1024 bits skips the shortcut",
             equivalent="p >= 2^(bit_length - 1), so p^(n-1) >= 2^1024 and 1 + p^(n-1) "
             "overflows a double: the same ValueError is raised after the power"),
]


def _ignore(directory: str, names: list[str]) -> set[str]:
    rel = Path(directory).relative_to(ROOT)
    return {name for name in names if name in SKIP or (rel / name).as_posix() in SKIP}


def _tier1(repo: Path) -> tuple[int, str]:
    """Return code and summary line of tier-1 run in ``repo``."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(TIER1, cwd=repo, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()[-200:]


def _show(i: int, m: Mutation) -> str:
    tag = " (equivalent)" if m.equivalent else ""
    return f"[{i:2d}] {m.file}: {m.reason}{tag}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print the mutations and exit")
    args = parser.parse_args()

    if args.list:
        for i, m in enumerate(MUTATIONS):
            print(_show(i, m))
            if m.equivalent:
                print(f"     equivalent: {m.equivalent}")
        return 0
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(ROOT, repo, ignore=_ignore)
        code, summary = _tier1(repo)
        print(f"unmutated copy: {summary}", flush=True)
        if code != 0:
            return 2
        wrong = []
        for i, m in enumerate(MUTATIONS):
            path = repo / "src" / "spinsep" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{_show(i, m)}: old text occurs {text.count(m.old)} times")
                return 2
            start = time.perf_counter()
            path.write_text(text.replace(m.old, m.new))
            try:
                code, summary = _tier1(repo)
            finally:
                path.write_text(text)
            killed = code != 0
            verdict = "killed" if killed else "survived" if m.equivalent else "SURVIVED"
            print(f"{verdict:8s} {time.perf_counter() - start:5.1f} s  {_show(i, m)}  -- {summary}",
                  flush=True)
            if killed == bool(m.equivalent):
                wrong.append(i)
    for i in wrong:
        m = MUTATIONS[i]
        what = "listed as equivalent, but killed" if m.equivalent else "survived"
        print(f"{what}: {_show(i, m)}")
    print(f"{len(MUTATIONS)} run, {len(wrong)} wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
