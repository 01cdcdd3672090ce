"""Mutation gate: every listed one-line mutation of src/ must fail tier-1.

Each entry names a file under src/spinsep/, an exact old text that occurs
once in src/, its replacement, and why the mutant is wrong.  An entry with
an ``equivalent`` reason is a mutant that no test can catch, because it
changes no result; it must survive.

The script copies the repository to a temporary directory, checks that the
unmutated copy passes, then applies one mutation at a time there and runs
the tier-1 suite with -x, each run starting with no bytecode, pytest cache
or hypothesis example database left by an earlier one.  A fixed
--hypothesis-seed makes every run draw the same examples, so a mutant is
killed by what it changes, not by a lucky draw, and a kill can be replayed
(hypothesis also draws literals found in the source, which a mutant may
change).  Each killed line ends with the first failing test; every
survivor is named.  The working tree is never written, and a SIGTERM
removes the copy and stops the running suite.
tests/test_scripts.py checks that every old text still occurs exactly once
in src/, so the list cannot drift; that check is left out of the mutant
runs, since any mutation fails it.

Usage: python scripts/mutation_gate.py [--list]
Exit status: 0 if every mutant is killed and every equivalent survives,
1 otherwise, 2 if the unmutated copy fails tier-1 or an old text no longer
occurs exactly once.  A full run took 21 and 27 minutes in two runs on two cores.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--hypothesis-seed=0",
         "--deselect", "tests/test_scripts.py::test_mutation_old_text_occurs_once_in_src"]
# State a run leaves behind, removed from the copy before each run.
STATE = ("__pycache__", ".hypothesis", ".pytest_cache")
# Left out of the copy: history, state, and the benchmark's working files and reports.
SKIP = {".git", *STATE, "perfbench/work", "perfbench/results"}


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
    Mutation("io.py",
             "if not all(issubclass(t, (int, float)) and t is not bool "
             "for t in set(map(type, level))):",
             "if False:",
             "numeric strings and numpy float32s are read as numbers"),
    Mutation("io.py", "if not (lists and set(map(len, level)) <= {n}):", "if not lists:",
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
    Mutation("linalg.py",
             'object.__setattr__(self, "dims", DimVector(self.dims))\n        m = as_square',
             "m = as_square",
             "a density on plain-tuple dims fails with AttributeError in as_square"),
    Mutation("transform.py",
             'object.__setattr__(self, "dims", DimVector(self.dims))\n        object.__setattr__',
             "object.__setattr__",
             "a coefficient table on plain-tuple dims fails with AttributeError in as_square"),
    # Gates of an inseparable verdict and of a term weight, loosened and tightened.
    Mutation("decompositions.py",
             "bad = np.flatnonzero(~np.isfinite(w) | ~(w >= -tol.abs_eps))",
             "bad = np.flatnonzero(~np.isfinite(w))",
             "weights (1.5, -0.5) whose mixture matches the target verify"),
    Mutation("decompositions.py", "~(w >= -tol.abs_eps))", "~(w >= -10 * tol.abs_eps))",
             "a term weight of -5e-9 verifies at the default tolerance"),
    Mutation("separability.py", "if lo < -tol.abs_eps:", "if lo < -10 * tol.abs_eps:",
             "a partial-transpose eigenvalue of -5e-9 is not called inseparable"),
    Mutation("separability.py", "if lo < -tol.abs_eps:", "if lo < -0.1 * tol.abs_eps:",
             "a partial-transpose eigenvalue of -5e-10 is called inseparable"),
    Mutation("separability.py", "if not excess[p, r] > tol.abs_eps:",
             "if not excess[p, r] > 10 * tol.abs_eps:",
             "a necessary excess of 5e-9 is not called inseparable"),
    Mutation("separability.py", "if not excess[p, r] > tol.abs_eps:",
             "if not excess[p, r] > 0.1 * tol.abs_eps:",
             "a necessary excess of 5e-10 is called inseparable"),
    Mutation("cli.py", 'if len(dims) < 2:\n        raise ValueError("certification',
             'if False:\n        raise ValueError("certification',
             "certify --peres and --sufficient run on a single subsystem"),
    # The Werner builder's threshold slack and residual floor.
    Mutation("werner.py", "s <= s_star + NORM_SLACK", "s <= s_star + 1e-6",
             "an s of s* + 2e-12 gets a decomposition"),
    Mutation("werner.py", "1.0 - mu > WEIGHT_FLOOR", "1.0 - mu > 1e-9",
             "a residual of weight 2e-14 is dropped"),
    # Refusals of misfitting input, each flipped back to the form that let it through.
    Mutation("cli.py", "if same or out and emit and Path(out).resolve() == Path(emit).resolve():",
             "if False:",
             "werner --output A --emit-decomposition A writes the density over the decomposition"),
    Mutation("cli.py", "Path(out).resolve() == Path(emit).resolve()", "Path(out) == Path(emit)",
             "sub/../A.json and an absolute path are not seen as the file A.json"),
    Mutation("cli.py", "if emit and Path(emit).exists() and Path(emit).samefile(args.input):",
             "if False:",
             "certify --emit-decomposition A --input A writes the witness over the density"),
    Mutation("cli.py", "Path(emit).samefile(args.input)", "Path(emit) == Path(args.input)",
             "certify does not see sub/../A.json, an absolute path or a hard link as its "
             "--input A.json"),
    Mutation("cli.py", 'if getattr(args, flag[2:].replace("-", "_"), None) == "":', "if False:",
             "an empty path is not refused: certify and werner ignore it and exit 0, "
             "the rest work first, then fail on the directory \".\""),
    Mutation("projections.py", "if not np.isfinite(theta).all():", "if False:",
             "an infinite phase pair warns inside the sum, and NaN is named by the sum rule"),
    Mutation("io.py", 'what = "factor entry" if finite[: len(dec.weights)].all() else "weight"',
             'what = "factor entry"',
             "an infinite weight is reported as a non-finite factor entry"),
    Mutation("io.py", "if not (finite := np.isfinite(values)).all():", "if False:",
             "a NaN weight or factor entry is written as the bare token nan, which JSON lacks"),
    Mutation("cli.py", "_refuse_non_finite(args.input, matrix, out)", "pass",
             "permute names a NaN entry by json's \"Out of range float values\", not by --input"),
    Mutation("decompositions.py",
             "if (w := self.weights).ndim != 1 or index.size != w.size * len(dims):", "if False:",
             "2-D weights are accepted, and a weight count off the index rows fails in reshape"),
    Mutation("projections.py", "if not b.min() >= 0:", "if b.min() < 0:",
             "a NaN amplitude is refused only by the sum rule, under its message"),
    Mutation("werner.py", "if not s >= 0.0:", "if s < 0.0:",
             "a NaN s is reported as above the threshold"),
    # The stacked converter takes what the walk takes, and the walk names the fault.
    Mutation("io.py", "issubclass(t, (int, float)) and t is not bool",
             "issubclass(t, (int, float))", "true and false are read as numbers"),
    Mutation("io.py", "lists = all(issubclass(t, list) for t", "lists = all(t is list for t",
             "a list subclass, which the walk takes, leaves its slot without a stack"),
    Mutation("io.py", "_check_entries(m, d, what.format(t=t, a=a))", "pass",
             "a malformed matrix reaches the caller as no stack, a TypeError"),
    Mutation("cli.py", "if same or out and emit", "if out and emit",
             "werner --output C --emit-decomposition D, a hard link to C, writes the density "
             "over the decomposition"),
    # Phases are integer exponents, each evaluated once by eta; integer
    # parameters are taken whole, never truncated.
    Mutation("spin.py", "exponent = operator.index(exponent) % d",
             "exponent = operator.index(exponent)",
             "eta takes the angle of the unreduced exponent, and a quarter turn past d "
             "indexes outside the table"),
    Mutation("spin.py", "return eta(2 * d, exponent)", "return eta(d, exponent)",
             "alpha is eta, a whole step where the even-d correction needs half of one"),
    Mutation("spin.py", "_check_dim(d)\n    return eta(2 * d, exponent)",
             "return eta(2 * d, exponent)", "alpha(1) is evaluated as eta(2, 1)"),
    Mutation("composite.py", "dims = tuple(operator.index(d) for d in dims)",
             "dims = tuple(int(d) for d in dims)", "DimVector((2.7, 3)) is (2, 3)"),
    Mutation("projections.py", 'object.__setattr__(self, "r", operator.index(self.r))',
             'object.__setattr__(self, "r", int(self.r))',
             "ProjectionSpec(3, (1, 0), 1.5) names P_u(1)"),
    Mutation("projections.py", "r_vec = [operator.index(r) for r in r_vec]",
             "r_vec = [int(r) for r in r_vec]",
             "a cyclic family given offsets [0.9, 0] is built at offset 0"),
    Mutation("spin.py", "exponent = operator.index(exponent) % d", "exponent = exponent % d",
             "eta(4, 0.5) is exp(i pi/4)"),
    Mutation("spin.py", "if operator.index(m) < 0:", "if m < 0:",
             "spin_power(3, (1, 1), 2.0) is (1.0, SpinLabel(2.0, 2.0))"),
    Mutation("composite.py", "digits = tuple(map(operator.index, digits))",
             "digits = tuple(digits)", "encode((2, 3), (1.5, 0)) is 4.5"),
    Mutation("composite.py", "if not (0 <= operator.index(index) < dims.size):",
             "if not (0 <= index < dims.size):",
             "decode((2, 3), 2.5) fails inside numpy, not on the integer check"),
    Mutation("composite.py", "sigma = tuple(map(operator.index, sigma))",
             "sigma = tuple(map(int, sigma))", "permute_dims((2, 3), (2.7, 1)) is (3, 2)"),
    Mutation("werner.py", "if operator.index(self.d) < 2:", "if self.d < 2:",
             "WernerSpec(2.0, 2, 0.5) is built and fails only at .dims"),
    Mutation("werner.py", "if operator.index(self.n) < 2:", "if self.n < 2:",
             "WernerSpec(3, 2.5, 0.5) is built and fails only at .dims"),
    Mutation("werner.py", "n = operator.index(n)\n    if n < 42:", "if n < 42:",
             "is_prime(7.0) is True, and a numpy integer above 41 has no bit_length"),
    # Equal slots share one read-only stack, screened and rendered once.
    Mutation("decompositions.py", "shared.setdefault((stack.shape, stack.tobytes()), stack)",
             "shared.setdefault(stack.shape, stack)",
             "slots whose stacks differ only in content share the first one's stack"),
    Mutation("decompositions.py", "stack.flags.writeable = False", "pass",
             "a write into one slot's stack changes every slot that shares it"),
    Mutation("decompositions.py", "stacks, rejected = {id(slot): slot for slot in dec.factors}, {}",
             "stacks, rejected = {id(slot): dec.factors[0] for slot in dec.factors}, {}",
             "every slot takes slot 0's screen, so a bad entry of another stack verifies"),
    Mutation("io.py", 'pieces[:, 1:-1:2] = b",\\n        "',
             'pieces[:, 1:-1:2] = b\',\\n      "factors": [\\n        \'',
             "every slot opens with slot 0's \"factors\" key, so the file is not JSON"),
    Mutation("io.py", 'step = min(CHUNK_TERMS, max(1, CHUNK_BYTES // len(b"".join(pieces[0]))))',
             "step = CHUNK_TERMS",
             "a W(5,3) file is joined in 1.8 MB chunks, which spill a core's cache"),
    Mutation("spin.py", "if operator.index(d) < 2:", "if d < 2:",
             "eta(3.0, 1) is exp(2 pi i/3)"),
    Mutation("spin.py", "0 <= operator.index(j) < d and 0 <= operator.index(k) < d",
             "0 <= j < d and 0 <= k < d",
             "spin_dagger(3, SpinLabel(1.5, 1)) is (1.5, SpinLabel(1.5, 2))"),
    Mutation("werner.py", "n, p = operator.index(n), p if", "n, p = n, p if",
             "werner_bound(3, 2.5) and werner_threshold(3, 2.5) are 0.1614"),
    Mutation("werner.py", "p if isinstance(p, int) else operator.index(p)", "p",
             "werner_bound and werner_threshold of a numpy integer p fail on bit_length"),
    # A decomposition file is read by its distinct blocks only if it
    # re-renders byte for byte; the JSON path reads any other.
    Mutation("io.py", "    if at != len(raw):", "    if False:",
             "data after the final newline is read as the file before it, which json refuses"),
    Mutation("io.py", "if not raw.startswith(chunk, at):",
             "if not at and not raw.startswith(chunk, at):",
             "only the header is compared, so a weight json refuses, respelled at the written "
             "length, is read as a number"),
    Mutation("io.py", 'chain(decomposition_chunks(dec), [b"\\n"])', "decomposition_chunks(dec)",
             "the final newline is not expected, so every written file is read through its "
             "JSON tree"),
    Mutation("io.py", "    at = 0\n    for chunk in", "    return dec\n    at = 0\n    for chunk in",
             "a file is read by its blocks without re-rendering, so a weight json refuses is "
             "read as a number"),
    Mutation("io.py", "if Path(path).is_file():", "if True:",
             "a named pipe is read by the canonical path first, and the JSON path then waits "
             "for bytes that are gone"),
    Mutation("decompositions.py", "sorted(min(uses) for uses in rejected.values())",
             "sorted(uses[-1] for uses in rejected.values())",
             "a bad entry of a shared stack is named at the last slot's first use"),
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
    Mutation("projections.py", "if not abs(float((b**2).sum()) - 1.0) <= 1e-9:",
             "if abs(float((b**2).sum()) - 1.0) > 1e-9:",
             "a NaN sum of squares passes the sum rule",
             equivalent="a NaN amplitude is refused by the non-negativity check before, and "
             "squares of non-negative amplitudes that are not NaN never sum to NaN"),
]


def _ignore(directory: str, names: list[str]) -> set[str]:
    rel = Path(directory).relative_to(ROOT)
    return {name for name in names if name in SKIP or (rel / name).as_posix() in SKIP}


def _tier1(repo: Path) -> tuple[int, str, str]:
    """Return code, summary line and first failing test of a tier-1 run in ``repo``."""
    for left in [p for name in STATE for p in repo.rglob(name)]:
        shutil.rmtree(left)
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(TIER1, cwd=repo, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    failed = (line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR ")))
    failed = next(failed, "")
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()[-200:], failed


def _stop(signum, frame):
    """Turn SIGTERM into SystemExit, so the copy is removed and the running
    tier-1 child is killed on the way out, as on any other exception."""
    raise SystemExit(128 + signum)


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
    signal.signal(signal.SIGTERM, _stop)
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(ROOT, repo, ignore=_ignore)
        code, summary, _ = _tier1(repo)
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
                code, summary, failed = _tier1(repo)
            finally:
                path.write_text(text)
            killed = code != 0
            verdict = "killed" if killed else "survived" if m.equivalent else "SURVIVED"
            print(f"{verdict:8s} {time.perf_counter() - start:5.1f} s  {_show(i, m)}  -- {summary}"
                  + (f"  {failed}" if killed else ""), flush=True)
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
