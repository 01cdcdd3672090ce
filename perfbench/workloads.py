"""The four benchmark workloads: seeded inputs, the timed program call, and
the harness's verdict on each output.

Inputs are generated with numpy from the seed and handed to the program
only as files and argv.  Expected outcomes come from how each input was
built or from the numpy oracle in check.py, never from spinsep itself.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import check
import spinsep.cli
import spinsep.decompositions
import spinsep.io
from spinsep.composite import DimVector
from spinsep.linalg import DensityMatrix

SEPARABLE = "separable-certified"
INSEPARABLE = "inseparable-certified"
INCONCLUSIVE = "inconclusive"
DOCUMENTED_ERROR_CODES = (2, 3, 4)

# Partial-transpose eigenvalues closer to zero than this are resampled, so
# the expected Peres verdict never hinges on rounding.
PT_MARGIN = 1e-7


@dataclass
class Case:
    name: str
    dims: tuple[int, ...]
    argv: list[str] | None = None
    matrix: np.ndarray | None = None  # the input density as the harness built it
    expect: dict = field(default_factory=dict)
    path: str | None = None  # the decomposition file the case writes or reads
    target: DensityMatrix | None = None

    @property
    def size(self) -> int:
        return math.prod(self.dims)


@dataclass
class Outcome:
    code: int | None = None  # CLI exit code; None after an uncaught exception
    stdout: str = ""
    error: str | None = None  # "Type: message" of an uncaught exception
    result: object = None  # verify-file: the VerificationResult
    terms: int = 0  # verify-file: terms the program parsed


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def random_pure(n: int, rng) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return _hermitian(np.outer(v, v.conj()))


def random_full_rank(n: int, rng) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return _hermitian(m / np.trace(m).real)


def write_density(path: str, matrix: np.ndarray, dims) -> None:
    check.write_json(path, check.density_document(matrix, dims))


def run_cli(argv: list[str]) -> tuple[float, Outcome]:
    """Call the CLI in-process with its output captured; the elapsed time covers main() only."""
    out, err = io.StringIO(), io.StringIO()
    outcome = Outcome()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            outcome.code = spinsep.cli.main(argv)
        except SystemExit as exc:
            outcome.code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # a traceback is a case failure, not a harness failure
            outcome.error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    outcome.stdout = out.getvalue()
    return elapsed, outcome


def _report(outcome: Outcome) -> dict:
    """The JSON report at the start of certify --json output."""
    return json.JSONDecoder().raw_decode(outcome.stdout.lstrip())[0]


def _exit_failure(outcome: Outcome) -> str | None:
    if outcome.error is not None:
        return f"traceback: {outcome.error}"
    if outcome.code != 0:
        return f"exit {outcome.code}"
    return None


def _check_emitted(path: str, matrix: np.ndarray, dims) -> tuple[str | None, int]:
    """Harness verdict on an emitted decomposition file, and its term count."""
    if not os.path.exists(path):
        return "no decomposition written", 0
    try:
        dec = check.read_decomposition(path)
    except ValueError as err:
        return f"emitted file unreadable: {err}", 0
    finally:
        os.remove(path)
    failure = check.check_decomposition(dec, matrix, dims)
    return (None if failure is None else f"emitted decomposition: {failure}"), dec.terms


class Workload:
    name = ""
    stream = 0
    grid: list = []

    def __init__(self, grid=None):
        if grid is not None:
            self.grid = grid
        # Inconsistencies of the harness's own oracle; any makes the run incorrect.
        self.harness_errors: list[str] = []

    def generate(self, seed: int, workdir: str) -> list[Case]:
        """Seeded inputs, written to workdir; harness-only work."""
        raise NotImplementedError

    def prepare(self, cases: list[Case], workdir: str) -> None:
        """Set-up that needs the program (verify-file writes its files here)."""

    def run(self, case: Case) -> tuple[float, Outcome]:
        return run_cli(case.argv)

    def check(self, case: Case, outcome: Outcome) -> tuple[str | None, int]:
        """(failure reason or None, decomposition terms emitted)."""
        raise NotImplementedError


class CertifySeparable(Workload):
    """certify --all --json --emit-decomposition on near-mixed densities."""

    name = "certify-separable"
    stream = 0
    # (dims, spin-norm target); None draws a target in [0.3, 0.95).
    grid = [
        ((2, 2), 1.0),
        ((2, 2), None),
        ((2, 3), None),
        ((2, 2, 2), 1.0),
        ((3, 3), None),
        ((3, 3), 1.0),
        ((2, 2, 3), None),
        ((4, 4), None),
        ((2, 2, 2, 2), None),
        ((2, 8), None),
        ((2, 2, 2, 2, 2), None),
        ((2, 2, 2, 2, 2), 1.0),
    ]

    def generate(self, seed, workdir):
        rng = _rng(seed, self.stream)
        cases = []
        for i, (dims, target) in enumerate(self.grid):
            n = math.prod(dims)
            if target is None:
                target = float(rng.uniform(0.3, 0.95))
            rho = random_pure(n, rng)
            lam = target / check.spin_l1_norm(rho, dims)
            m = _hermitian(lam * rho + (1.0 - lam) * np.eye(n) / n)
            name = f"sep{i}-{'x'.join(map(str, dims))}"
            src = os.path.join(workdir, f"{name}.density.json")
            out = os.path.join(workdir, f"{name}.decomposition.json")
            write_density(src, m, dims)
            argv = ["certify", "--input", src, "--all", "--json", "--emit-decomposition", out]
            cases.append(Case(name, dims, argv, m, {"l1": check.spin_l1_norm(m, dims)}, out))
        return cases

    def check(self, case, outcome):
        failure = _exit_failure(outcome)
        if failure is None:
            try:
                report = _report(outcome)
                verdict = report["verdict"]
                sufficient = report["checks"]["sufficient"]["verdict"]
                l1 = float(report["l1_norm"])
            except (ValueError, KeyError, TypeError) as err:
                failure = f"unreadable report: {err!r}"
            else:
                if verdict != SEPARABLE or sufficient != SEPARABLE:
                    failure = f"verdict {verdict} (sufficient {sufficient}) at norm {case.expect['l1']:.6f}"
                elif not (abs(l1 - case.expect["l1"]) <= 1e-9):
                    failure = f"l1_norm {l1!r}, harness {case.expect['l1']!r}"
        emitted, terms = _check_emitted(case.path, case.matrix, case.dims)
        return failure or emitted, terms


class CertifyEntangled(Workload):
    """certify --all --json on inputs above the norm bound, plus malformed ones."""

    name = "certify-entangled"
    stream = 1
    shapes = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 4), (3, 4), (2, 2, 3), (4, 4), (2, 2, 2, 2)]
    # (kind, count per shape) for the random inputs.
    kinds = [("noisy", 8), ("random", 6)]
    werner = [((2, 2), 6), ((2, 3), 6), ((3, 2), 6), ((2, 4), 6), ((3, 3), 6), ((5, 2), 6)]
    # Fixed malformed minority: (name, dims, corruption, global argv prefix).
    malformed = [
        ("nan-diagonal", (2, 2), "nan-diagonal", []),
        ("nan-offdiagonal", (2, 3), "nan-offdiagonal", []),
        ("inf-diagonal", (2, 2), "inf-diagonal", []),
        ("neg-inf-offdiagonal", (2, 3), "neg-inf-offdiagonal", []),
        ("not-hermitian", (2, 2), "not-hermitian", []),
        ("not-hermitian", (3, 3), "not-hermitian", []),
        ("tol-1e-17", (2, 2), "exact-trace", ["--tol", "1e-17"]),
        ("tol-1e-17", (3, 3), "exact-trace", ["--tol", "1e-17"]),
    ]

    def __init__(self, shapes=None, kinds=None, werner=None):
        super().__init__()
        for attr, value in (("shapes", shapes), ("kinds", kinds), ("werner", werner)):
            if value is not None:
                setattr(self, attr, value)

    def _expect(self, m, dims) -> dict | None:
        """Expected Peres verdicts and norm, or None when the input must be redrawn."""
        l1 = check.spin_l1_norm(m, dims)
        pt = [check.partial_transpose_min_eig(m, dims, r) for r in range(1, len(dims) + 1)]
        if not (l1 > 1.0 + 1e-6) or any(abs(x) < PT_MARGIN for x in pt):
            return None
        return {"l1": l1, "peres": [x < 0 for x in pt]}

    def generate(self, seed, workdir):
        rng = _rng(seed, self.stream)
        drafts = []
        for dims in self.shapes:
            n = math.prod(dims)
            for kind, count in self.kinds:
                for _ in range(count):
                    expect = None
                    while expect is None:
                        if kind == "noisy":
                            noise = rng.uniform(0.0, 0.6)
                            m = (1 - noise) * random_pure(n, rng) + noise * np.eye(n) / n
                        else:
                            m = random_full_rank(n, rng)
                        m = _hermitian(m)
                        expect = self._expect(m, dims)
                    drafts.append((kind, dims, m, expect, []))
        for (p, nsys), count in self.werner:
            s_star = check.werner_threshold(p, nsys)
            for _ in range(count):
                expect = None
                while expect is None:
                    s = float(rng.uniform(1.05 * s_star, min(1.0, 3.0 * s_star)))
                    m = _hermitian(check.werner_density(p, nsys, s))
                    expect = self._expect(m, (p,) * nsys)
                expect["necessary"] = True
                drafts.append(("werner", (p,) * nsys, m, expect, []))
        for label, dims, corruption, prefix in self.malformed:
            m = self._corrupt(random_full_rank(math.prod(dims), rng), corruption)
            drafts.append((label, dims, m, {"malformed": True}, prefix))

        cases = []
        for i, (kind, dims, m, expect, prefix) in enumerate(drafts):
            name = f"ent{i}-{kind}-{'x'.join(map(str, dims))}"
            src = os.path.join(workdir, f"{name}.density.json")
            write_density(src, m, dims)
            argv = prefix + ["certify", "--input", src, "--all", "--json"]
            cases.append(Case(name, dims, argv, m, expect))
        return cases

    @staticmethod
    def _corrupt(m: np.ndarray, how: str) -> np.ndarray:
        m = m.copy()
        if how == "nan-diagonal":
            # On a diagonal (classically correlated) density, the form in
            # which a NaN passes the eigenvalue solve unnoticed.
            m = np.diag(np.diag(m).real).astype(complex)
            m[0, 0] = np.nan
        elif how == "nan-offdiagonal":
            m[0, 1] = m[1, 0] = np.nan
        elif how == "inf-diagonal":
            m[1, 1] = np.inf
        elif how == "neg-inf-offdiagonal":
            m[0, 1] = m[1, 0] = -np.inf
        elif how == "not-hermitian":
            m[0, 1] += 0.05
        elif how == "exact-trace":
            # A valid near-mixed density whose diagonal is dyadic and sums to
            # exactly 1, so only the tolerance itself is out of range.
            n = m.shape[0]
            denominator = 1 << 10
            diag = np.full(n, denominator // n)
            diag[-1] += denominator - diag.sum()
            m = 0.1 * (m - np.diag(np.diag(m))) / n
            m[np.diag_indices(n)] = diag / denominator
        return m

    def check(self, case, outcome):
        expect = case.expect
        if expect.get("malformed"):
            if outcome.error is not None:
                return f"traceback on malformed input: {outcome.error}", 0
            if outcome.code not in DOCUMENTED_ERROR_CODES:
                return f"exit {outcome.code} on malformed input", 0
            return None, 0
        failure = _exit_failure(outcome)
        if failure is not None:
            return failure, 0
        try:
            report = _report(outcome)
            checks = report["checks"]
            verdict = report["verdict"]
            l1 = float(report["l1_norm"])
            necessary = checks["necessary"]["verdict"]
            sufficient = checks["sufficient"]["verdict"]
            peres = [checks["peres"][str(r)]["verdict"] for r in range(1, len(case.dims) + 1)]
        except (ValueError, KeyError, TypeError) as err:
            return f"unreadable report: {err!r}", 0
        if not (abs(l1 - expect["l1"]) <= 1e-8):
            return f"l1_norm {l1!r}, harness {expect['l1']!r}", 0
        if sufficient != INCONCLUSIVE:
            return f"sufficient check {sufficient} at norm {l1:.4f}", 0
        for r, (got, negative) in enumerate(zip(peres, expect["peres"]), start=1):
            if got != (INSEPARABLE if negative else INCONCLUSIVE):
                return f"peres[{r}] {got}, harness partial transpose negative={negative}", 0
        if expect.get("necessary") and necessary != INSEPARABLE:
            return f"necessary check {necessary} above the Werner threshold", 0
        if any(expect["peres"]) or necessary == INSEPARABLE:
            wanted = INSEPARABLE
        else:
            wanted = INCONCLUSIVE
        if verdict != wanted:
            return f"verdict {verdict}, expected {wanted}", 0
        return None, 0


class WernerEmit(Workload):
    """werner --emit-decomposition at the threshold and below it."""

    name = "werner-emit"
    stream = 2
    grid = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]

    def generate(self, seed, workdir):
        rng = _rng(seed, self.stream)
        cases = []
        for p, n in self.grid:
            s_star = check.werner_threshold(p, n)
            for below in (False, True):
                s = s_star * float(rng.uniform(0.3, 0.95)) if below else s_star
                name = f"werner-{p}-{n}-{'below' if below else 'threshold'}"
                out = os.path.join(workdir, f"{name}.decomposition.json")
                argv = ["werner", "--p", str(p), "--n", str(n), "--emit-decomposition", out]
                if below:
                    argv[5:5] = ["--s", repr(s)]
                cases.append(Case(name, (p,) * n, argv, check.werner_density(p, n, s), path=out))
        return cases

    def check(self, case, outcome):
        failure = _exit_failure(outcome)
        emitted, terms = _check_emitted(case.path, case.matrix, case.dims)
        return failure or emitted, terms


class VerifyFile(Workload):
    """read_decomposition_file then verify_decomposition on files written in set-up."""

    name = "verify-file"
    stream = 3
    # Certify inputs above this size are left out: the 2^5 file alone would
    # cost more set-up than the whole workload.
    max_certify_size = 16

    def __init__(self, certify_grid=None, werner_grid=None):
        super().__init__()
        self.certify = CertifySeparable(certify_grid)
        self.werner = WernerEmit(werner_grid)

    def generate(self, seed, workdir):
        # The same inputs the other two workloads build from this seed.
        cases = [c for c in self.certify.generate(seed, workdir) if c.size <= self.max_certify_size]
        for c in cases:
            c.argv = ["certify", "--input", c.argv[2], "--sufficient", "--emit-decomposition", c.path]
        cases += self.werner.generate(seed, workdir)
        for c in cases:
            c.name = f"verify-{c.name}"
        return cases

    def prepare(self, cases, workdir):
        """Write every file through the CLI, then derive the broken minority."""
        for c in cases:
            _, outcome = run_cli(c.argv)
            c.target = DensityMatrix(c.matrix, DimVector(c.dims))
            c.expect = {"setup": _exit_failure(outcome)}
            if c.expect["setup"] is None:
                dec = check.read_decomposition(c.path)
                c.expect["ok"] = check.check_decomposition(dec, c.matrix, c.dims) is None
                c.expect["terms"] = dec.terms
        by_name = {c.name: c for c in cases}
        broken = [
            ("negative-eigenvalue", "verify-werner-2-3-threshold", _split_negative),
            ("weight-sum", "verify-sep2-2x3", _bump_weight),
            ("nan-entry", "verify-sep3-2x2x2", _nan_entry),
        ]
        for label, source, corrupt in broken:
            base = by_name.get(source)
            if base is None or base.expect.get("ok") is not True:
                # Still a case, so the loss shows as a failure every pass.
                cases.append(Case(f"verify-broken-{label}", (), expect={"setup": f"{source} unusable"}))
                continue
            with open(base.path, encoding="utf-8") as fh:
                doc = json.load(fh)
            corrupt(doc)
            path = os.path.join(workdir, f"broken-{label}.decomposition.json")
            check.write_json(path, doc)
            if check.check_decomposition(check.read_decomposition(path), base.matrix, base.dims) is None:
                self.harness_errors.append(f"harness check accepted the broken file {label}")
            cases.append(Case(f"verify-broken-{label}", base.dims, None, base.matrix,
                              {"setup": None, "ok": False, "terms": len(doc["terms"])},
                              path, base.target))

    def run(self, case):
        outcome = Outcome()
        if case.expect["setup"] is not None:
            return 0.0, outcome
        start = perf_counter()
        try:
            dec = spinsep.io.read_decomposition_file(case.path)
            outcome.result = spinsep.decompositions.verify_decomposition(dec, case.target)
            outcome.terms = len(dec.terms)
        except Exception as exc:  # a traceback is a case failure, not a harness failure
            outcome.error = f"{type(exc).__name__}: {exc}"
        return perf_counter() - start, outcome

    def check(self, case, outcome):
        expect = case.expect
        if expect["setup"] is not None:
            return f"set-up could not write the file: {expect['setup']}", 0
        if outcome.error is not None:
            return f"traceback: {outcome.error}", 0
        ok = bool(outcome.result.ok)
        if ok != expect["ok"]:
            return f"verify ok={ok}, harness ok={expect['ok']}", 0
        if ok and outcome.terms != expect["terms"]:
            return f"parsed {outcome.terms} terms, file has {expect['terms']}", 0
        return None, 0


def _split_negative(doc: dict) -> None:
    """Split term 0 into two halves whose first factors are A + D and A - D.

    The sum, the weights and the traces are unchanged; A + D has the
    eigenvalue -EPS, so only the factor positivity check can reject it.
    """
    eps = 1e-3
    term = doc["terms"][0]
    pairs = np.asarray(term["factors"][0], dtype=float)
    a = pairs[..., 0] + 1j * pairs[..., 1]
    vals, vecs = np.linalg.eigh(a)
    u, v = vecs[:, -1], vecs[:, 0]  # range and kernel of the rank-one projection
    delta = eps * (np.outer(u, u.conj()) - np.outer(v, v.conj()))
    halves = []
    for sign in (1.0, -1.0):
        f = a + sign * delta
        halves.append({
            "weight": term["weight"] / 2.0,
            "factors": [np.stack([f.real, f.imag], axis=-1).tolist()] + term["factors"][1:],
        })
    doc["terms"][0:1] = halves


def _bump_weight(doc: dict) -> None:
    doc["terms"][0]["weight"] += 1e-6


def _nan_entry(doc: dict) -> None:
    doc["terms"][0]["factors"][0][0][0][0] = float("nan")


WORKLOADS = {w.name: w for w in (CertifySeparable, CertifyEntangled, WernerEmit, VerifyFile)}
