"""Closed-loop benchmark of the spinsep library and CLI.

    python3 perfbench/run.py --workload certify-separable --seed 1 --seconds 10 --trace 0

One client: each case starts only after the previous one has finished and
been checked.  Set-up (interpreter start, imports, seeded input generation
and one untimed warm-up pass over all but the largest cases) is measured
as setup_s; then whole passes over the workload's fixed grid run until
--seconds have elapsed.  Timings are scaled for machine speed (see
calibrate.py).  With --trace 1 half the time runs untraced and half
traced, and the per-layer metrics come from the traced passes.

The last line of stdout is the result as one JSON object; the full report,
with the environment and every failure, is written to perfbench/results/.
"""

import os
import time

# Before numpy is imported anywhere: one BLAS / OpenMP thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402  (imports numpy, after the thread pinning)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("certify-separable", "certify-entangled", "werner-emit", "verify-file")
GENERATE_REPEATS = 3
SEGMENT_S = 0.5


def _process_age_s() -> float:
    """Seconds since this process started (interpreter start-up), 0 where /proc is absent."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


STARTUP_S = _process_age_s()


def summary(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    out = {"n": len(s), "median": statistics.median(s) if s else None, "tail": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * len(s))
        if rank >= 1 and len(s) - rank >= 10:
            out["tail"] = {"percentile": p, "value": s[rank - 1]}
            break
    return out


def environment(seed: int, numpy) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "spinsep").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(workload, cases, tracer=None, timed=True) -> dict:
    """One pass over the grid; only the program calls are timed.

    A timed pass is cut into segments of at least SEGMENT_S of program
    time; the calibration kernel runs at each cut, and every case in a
    segment gets the scale NOMINAL_S / (mean kernel time at its two ends).
    The warm-up pass is neither checked nor calibrated.
    """
    results, segment, since = [], [], 0.0
    before = calibrate.kernel_s() if timed else None

    def close_segment():
        nonlocal before, segment, since
        after = calibrate.kernel_s()
        for r in segment:
            r["scale"] = calibrate.NOMINAL_S / ((before + after) / 2)
        before, segment, since = after, [], 0.0

    for case in cases:
        if timed and since >= SEGMENT_S:
            close_segment()
        if tracer is not None:
            tracer.enabled = True
        elapsed, outcome = workload.run(case)
        if tracer is not None:
            tracer.enabled = False
        failure, terms = workload.check(case, outcome) if timed else (None, 0)
        r = {"case": case.name, "size": case.size, "s": elapsed, "failure": failure, "terms": terms}
        results.append(r)
        segment.append(r)
        since += elapsed
    if timed:
        close_segment()
    return {"results": results, "terms": sum(r["terms"] for r in results)}


def timed_passes(workload, cases, seconds: float, tracer=None) -> list[dict]:
    """Whole passes until `seconds` of wall time have elapsed; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        p = run_pass(workload, cases, tracer)
        if tracer is not None:
            p["trace"] = tracer.snapshot()
        passes.append(p)
    return passes


def pass_stats(p: dict) -> dict:
    """Scaled and raw program time of a pass, and its correct cases per second."""
    correct = sum(r["failure"] is None for r in p["results"])
    raw = sum(r["s"] for r in p["results"])
    scaled = sum(r["s"] * r["scale"] for r in p["results"])
    return {"raw_s": raw, "s": scaled, "cases_per_s": correct / scaled, "raw_cases_per_s": correct / raw}


def end_to_end(passes: list[dict], setup_s: float) -> tuple[dict, dict]:
    """(metrics as reported, statistics behind each); times are scaled by calibration."""
    largest = max(r["size"] for r in passes[0]["results"])
    largest_cases = [r for p in passes for r in p["results"] if r["size"] == largest]
    per_pass = [pass_stats(p) for p in passes]
    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(r["failure"] is not None for p in passes for r in p["results"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = {
        "cases_per_s": summary([q["cases_per_s"] for q in per_pass]),
        "largest_case_s": summary([r["s"] * r["scale"] for r in largest_cases]),
        "case_s": summary([r["s"] * r["scale"] for p in passes for r in p["results"]]),
        "pass_s": summary([q["s"] for q in per_pass]),
        "raw_cases_per_s": summary([q["raw_cases_per_s"] for q in per_pass]),
        "raw_largest_case_s": summary([r["s"] for r in largest_cases]),
        "raw_pass_s": summary([q["raw_s"] for q in per_pass]),
        "scale": summary([r["scale"] for p in passes for r in p["results"]]),
        "largest_case_size": largest,
    }
    values = {
        "cases_per_s": (stats["cases_per_s"]["median"], "1/s"),
        "largest_case_s": (stats["largest_case_s"]["median"], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "decomp_terms": (statistics.median(p["terms"] for p in passes), "count"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    return values, stats


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seconds > 0):
        return fail("--seconds must be positive")
    if not (SRC / "spinsep" / "__init__.py").is_file():
        return fail(f"no spinsep sources under {SRC}; run from a checkout of the repository")

    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import numpy
    import spinsep
    import spinsep.cli  # noqa: F401
    import_s = time.perf_counter() - t
    if Path(spinsep.__file__).resolve().parent != SRC / "spinsep":
        return fail(f"imported spinsep from {spinsep.__file__}, not from {SRC}")
    import layers
    import workloads

    t = time.perf_counter()
    kernel_start = calibrate.kernel_s()
    kernel_spent = time.perf_counter() - t
    workload = workloads.WORKLOADS[args.workload]()
    (HERE / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work")
    try:
        generate_times = []
        for _ in range(GENERATE_REPEATS):
            t = time.perf_counter()
            cases = workload.generate(args.seed, workdir)
            generate_times.append(time.perf_counter() - t)
        t = time.perf_counter()
        workload.prepare(cases, workdir)
        prepare_s = time.perf_counter() - t
        # The warm-up leaves out the cases of the largest N: they share the
        # caches of the smaller shapes with the same local dimensions, and at
        # 2^5 they would double the set-up of certify-separable.
        largest = max(c.size for c in cases)
        t = time.perf_counter()
        run_pass(workload, [c for c in cases if c.size < largest], timed=False)
        warmup_s = time.perf_counter() - t
        # Everything from process start to the end of the warm-up, with input
        # generation counted once, at its median, scaled like the passes.
        raw_setup_s = (STARTUP_S + (time.perf_counter() - T0) - kernel_spent
                       - sum(generate_times) + statistics.median(generate_times))
        setup_scale = calibrate.NOMINAL_S / ((kernel_start + calibrate.kernel_s()) / 2)
        setup_s = raw_setup_s * setup_scale
        setup = {
            "startup_s": STARTUP_S,
            "import_s": import_s,
            "generate_s": generate_times,
            "prepare_s": prepare_s,
            "warmup_s": warmup_s,
            "raw_setup_s": raw_setup_s,
            "scale": setup_scale,
        }

        if args.trace == 0:
            passes = timed_passes(workload, cases, args.seconds)
            traced = []
        else:
            passes = timed_passes(workload, cases, args.seconds / 2)
            tracer = layers.install()
            try:
                traced = timed_passes(workload, cases, args.seconds / 2, tracer)
            finally:
                tracer.unwrap()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = passes + traced
    values, stats = end_to_end(passes, setup_s)
    attempted = sum(len(p["results"]) for p in every)
    failures = [(r["case"], r["failure"]) for p in every for r in p["results"] if r["failure"]]
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, numpy),
        "setup": setup,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "statistics": stats,
        "passes": {"untraced": len(passes), "traced": len(traced)},
        "cases_per_pass": len(cases),
        "failures": sorted({f"{c}: {why}" for c, why in failures}),
        "harness_errors": workload.harness_errors,
    }
    if args.trace == 0:
        metrics = {k: values[k] for k in ("cases_per_s", "largest_case_s", "setup_s", "peak_rss_mb")}
    else:
        per_pass = [layers.metrics(p["trace"]) for p in traced]
        metrics = {k: (statistics.median(m[k] for m in per_pass), unit)
                   for k, unit in layers.UNITS.items() if k in per_pass[0]}
        untraced_s = statistics.median(pass_stats(p)["s"] for p in passes)
        traced_s = statistics.median(pass_stats(p)["s"] for p in traced)
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["trace"] = traced[-1]["trace"]

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    for name, (value, unit) in values.items():
        detail = stats.get(name)
        extra = f"  (n={detail['n']}, tail={detail['tail']})" if isinstance(detail, dict) else ""
        print(f"{args.workload}  {name} = {value!r} {unit}{extra}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{args.workload}  {name} = {value!r} {unit}")
    for line in report["failures"]:
        print(f"{args.workload}  FAILED {line}")
    for line in workload.harness_errors:
        print(f"{args.workload}  HARNESS ERROR {line}")
    print(f"{args.workload}  report: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not workload.harness_errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
