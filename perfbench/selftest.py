"""Self-test of the benchmark harness; runs in seconds and needs no arguments.

    python3 perfbench/selftest.py

It checks the numpy oracle against spinsep on small inputs, proves that
the decomposition check rejects a perturbed weight, a factor with a
negative eigenvalue and a NaN entry, runs a tiny grid of all four
workloads, and confirms that the benchmark refuses to run without the
library's sources.  Kept out of tests/ so the tier-1 suite does not run it.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
import spinsep  # noqa: E402
import workloads  # noqa: E402
from spinsep.io import decomposition_document  # noqa: E402


def oracle_matches_spinsep(rng) -> None:
    for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 4)]:
        n = math.prod(dims)
        m = workloads.random_full_rank(n, rng)
        dv = spinsep.DimVector(dims)
        ours = check.spin_l1_norm(m, dims)
        theirs = spinsep.spin_l1_norm(spinsep.spin_table(m, dv))
        assert abs(ours - theirs) <= 1e-10 * max(1.0, theirs), (dims, ours, theirs)
        rho = spinsep.DensityMatrix(m, dv)
        for r in range(1, len(dims) + 1):
            pt = np.linalg.eigvalsh(spinsep.partial_transpose(rho, r))[0]
            assert abs(check.partial_transpose_min_eig(m, dims, r) - pt) <= 1e-12, (dims, r)
    for p, n in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        s = check.werner_threshold(p, n)
        assert s == spinsep.werner_threshold(p, n)
        ours = check.werner_density(p, n, s)
        theirs = spinsep.werner_density(spinsep.WernerSpec(p, n, s)).matrix
        assert np.abs(ours - theirs).max() <= 1e-15, (p, n)


def check_rejects_broken(rng, workdir: Path) -> None:
    dims = (2, 3)
    m = workloads.random_pure(6, rng)
    lam = 0.7 / check.spin_l1_norm(m, dims)
    m = lam * m + (1 - lam) * np.eye(6) / 6
    good = decomposition_document(
        spinsep.sufficient_certificate(spinsep.DensityMatrix(m, spinsep.DimVector(dims))).witness
    )
    path = workdir / "good.json"

    def verdict(doc):
        check.write_json(path, doc)  # through a file, as the workloads read them
        return check.check_decomposition(check.read_decomposition(path), m, dims)

    assert verdict(good) is None, verdict(good)
    cases = [
        (workloads._bump_weight, "weights sum"),
        (workloads._split_negative, "negative eigenvalue"),
        (workloads._nan_entry, "non-finite entry"),
        (lambda doc: doc["terms"][1].__setitem__("weight", float("nan")), "non-finite weight"),
    ]
    for corrupt, reason in cases:
        doc = json.loads(json.dumps(good))
        corrupt(doc)
        got = verdict(doc)
        assert got is not None and reason in got, (reason, got)
        print(f"selftest: check rejects {reason!r}: {got}")


def tiny_grids(workdir: Path) -> None:
    tiny = [
        workloads.CertifySeparable([((2, 2), 1.0), ((2, 3), None)]),
        workloads.CertifyEntangled(
            shapes=[(2, 2), (2, 3)], kinds=[("noisy", 1), ("random", 1)],
            werner=[((2, 2), 1), ((3, 2), 1)],
        ),
        workloads.WernerEmit([(2, 2), (3, 2)]),
        workloads.VerifyFile(workloads.CertifySeparable.grid[:4], [(2, 3)]),
    ]
    for workload in tiny:
        sub = workdir / workload.name
        sub.mkdir()
        cases = workload.generate(7, str(sub))
        workload.prepare(cases, str(sub))
        result = run.run_pass(workload, cases)
        assert not workload.harness_errors, workload.harness_errors
        assert len(result["results"]) == len(cases) and run.pass_stats(result)["s"] > 0
        failed = [r for r in result["results"] if r["failure"]]
        print(f"selftest: {workload.name}: {len(cases)} cases, {len(failed)} failed")
        for r in failed:
            print(f"selftest:   {r['case']}: {r['failure']}")
    broken = [c for c in cases if c.name.startswith("verify-broken-")]
    assert len(broken) == 3 and all(c.expect["ok"] is False for c in broken)


def refuses_without_sources(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "results"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "werner-emit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and not proc.stdout, (proc.returncode, proc.stdout)


def benchmark_json_matches() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def main() -> int:
    rng = np.random.default_rng(2024)
    (run.HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.HERE / "work"))
    try:
        oracle_matches_spinsep(rng)
        check_rejects_broken(rng, workdir)
        tiny_grids(workdir)
        refuses_without_sources(workdir)
        benchmark_json_matches()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
