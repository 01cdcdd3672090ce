"""Time ``check_density`` against the eigvalsh-only reference check.

For each size the input is a seeded ``random_density``.  Each (size, check)
pair runs ``--rounds`` times, the two checks alternating, each time in a
fresh interpreter with the BLAS on one thread: one untimed call, then
``--repeat`` timed calls.  A check's time is its best call over all rounds.
"screen" is the library's ``check_density``, which passes a density after
one shifted Cholesky factorisation; "eigvalsh" is ``reference_check_density``
from ``tests/reference_density.py``, which solves the spectrum every time.
Both must accept the input.

Usage: python scripts/bench_psd.py --out BENCH_psd.json [--sizes 2^5,5^3] [--repeat 20]
       [--rounds 3]
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = {f"{d}^{b}": (d,) * b for d, b in [(2, 5), (5, 3), (3, 5), (2, 8), (3, 6)]}
CHECKS = ("screen", "eigvalsh")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _time_one(size: str, check: str, repeat: int) -> float:
    """In the child: the best of ``repeat`` timed calls of one check."""
    import time

    import numpy as np

    from spinsep import DimVector, check_density, random_density

    if check == "screen":
        call = check_density
    else:
        spec = importlib.util.spec_from_file_location(
            "reference_density", ROOT / "tests" / "reference_density.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        call = module.reference_check_density
    dims = DimVector(SIZES[size])
    m = random_density(dims, np.random.default_rng(0)).matrix
    call(m, dims)
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call(m, dims)
        best = min(best, time.perf_counter() - start)
    return best


def run_child(size: str, check: str, repeat: int) -> float:
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, __file__, "--child", size, check, str(repeat)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    return float(out)


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        size, check, repeat = sys.argv[2:5]
        print(repr(_time_one(size, check, int(repeat))))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--sizes", default=",".join(SIZES))
    parser.add_argument("--repeat", type=int, default=20)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    sizes = args.sizes.split(",")
    unknown = [s for s in sizes if s not in SIZES]
    if unknown:
        parser.error(f"--sizes: unknown size {unknown[0]!r}; choose from {', '.join(SIZES)}")
    for flag in ("repeat", "rounds"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be at least 1, got {getattr(args, flag)}")

    cases = {}
    for size in sizes:
        times = dict.fromkeys(CHECKS, float("inf"))
        for r in range(args.rounds):
            for check in CHECKS[:: 1 if r % 2 == 0 else -1]:
                times[check] = min(times[check], run_child(size, check, args.repeat))
        case = {"dims": list(SIZES[size]), **{f"{c}_s": t for c, t in times.items()}}
        case["speedup"] = times["eigvalsh"] / times["screen"]
        cases[size] = case
        print(f"{size:>4}  screen {times['screen']:.4f} s  eigvalsh {times['eigvalsh']:.4f} s"
              f"  x{case['speedup']:.1f}")
    doc = {"repeat": args.repeat, "rounds": args.rounds, "threads": 1, "cases": cases}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
