"""Time ``SeparableDecomposition.assemble`` and ``verify_decomposition`` on
fixed large cases.

Each case is built once: Werner decompositions at their threshold,
certificate witnesses of seeded random densities blended toward I/N until
their spin L1 norm is 0.95, built with verification off, and a seeded
mixture of random product pure states in which every term has its own
factors.  The script then records, per case, the best wall time of
``--repeat`` calls to ``assemble``, the tracemalloc peak of one more call,
the largest entrywise distance of the result from the target density, and
the best wall time of ``--repeat`` calls to ``verify_decomposition``
against it.  For a certificate witness it also records ``build_s``, the
best wall time of ``--repeat`` builds, and ``build_peak_mb``, the
tracemalloc peak of one more, both with verification off, and the best
wall times of ``--repeat`` checks of its target by ``check_density``
(``check_s``) and by the eigvalsh-only ``reference_check_density`` of
tests/reference_density.py (``check_eigvalsh_s``).  Run as a script, the
BLAS runs on one thread unless the environment says otherwise.

The Werner cases werner-2-11 and werner-2-12 run only when ``--cases``
names them: building and assembling (2,12) peaks near 1.9 GB.

Usage: python scripts/bench_assemble.py --out BENCH.json [--cases werner-3-5,...]
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # Before numpy is imported, so that the BLAS reads them.
    for _var in THREAD_VARS:
        os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

from spinsep import (  # noqa: E402
    DensityMatrix,
    DimVector,
    SeparableDecomposition,
    VerificationResult,
    WernerSpec,
    check_density,
    random_density,
    spin_l1_norm,
    sufficient_certificate,
    to_spin,
    verify_decomposition,
    werner_density,
    werner_separable_decomposition,
    werner_threshold,
)
from spinsep import separability  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from reference_density import reference_check_density  # noqa: E402

WERNER = {f"werner-{p}-{n}": (p, n) for p, n in [(2, 8), (3, 5), (7, 3), (2, 10), (2, 11), (2, 12)]}
LARGE = ("werner-2-11", "werner-2-12")  # left out of the default --cases
MIXED = {f"mixed-{d}^{b}": (d,) * b for d, b in [(2, 7), (3, 5), (4, 4), (2, 8), (3, 6)]}
DISTINCT = {"distinct-2^7": (2000, 7)}
NORM = 0.95


def werner_case(p: int, n: int):
    target = werner_density(WernerSpec(p, n, werner_threshold(p, n)))
    return werner_separable_decomposition(p, n), target


def best_time(repeat: int, call):
    """The best wall time of ``repeat`` calls, and the last call's result."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def traced_peak_mb(call) -> float:
    """The tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def mixed_case(dims: tuple[int, ...], seed: int, repeat: int):
    """The witness, its target, and the build and density-check figures."""
    dims = DimVector(dims)
    rho0 = random_density(dims, np.random.default_rng(seed))
    lam = NORM / spin_l1_norm(to_spin(rho0))
    n = dims.size
    m = lam * rho0.matrix + (1 - lam) * np.eye(n) / n
    check_s, rho = best_time(repeat, lambda: check_density(m, dims))
    check_eigvalsh_s, _ = best_time(repeat, lambda: reference_check_density(m, dims))
    # Verification would assemble the witness once more before timing starts.
    accept = mock.Mock(return_value=VerificationResult(True))
    with mock.patch.object(separability, "verify_decomposition", accept):
        build_s, report = best_time(repeat, lambda: sufficient_certificate(rho))
        peak = traced_peak_mb(lambda: sufficient_certificate(rho))
    return report.witness, rho, {"build_s": build_s, "build_peak_mb": peak, "check_s": check_s,
                                 "check_eigvalsh_s": check_eigvalsh_s}


def distinct_case(terms: int, b: int, seed: int):
    """Terms w_t |psi_t><psi_t| with psi_t a product of random qubit states;
    the target is summed from the state vectors, apart from ``assemble``."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((b, terms, 2)) + 1j * rng.standard_normal((b, terms, 2))
    states /= np.linalg.norm(states, axis=2, keepdims=True)
    weights = rng.random(terms)
    weights /= weights.sum()
    factors = [s[:, :, None] * s[:, None, :].conj() for s in states]
    index = np.tile(np.arange(terms)[:, None], (1, b))
    dec = SeparableDecomposition(DimVector((2,) * b), weights, index, factors)
    psi = states[0]
    for s in states[1:]:
        psi = (psi[:, :, None] * s[:, None, :]).reshape(terms, -1)
    return dec, DensityMatrix((psi.T * weights) @ psi.conj(), dec.dims)


def measure(dec, target, repeat: int) -> dict:
    best, matrix = best_time(repeat, dec.assemble)
    verify, result = best_time(repeat, lambda: verify_decomposition(dec, target))
    return {
        "dims": list(dec.dims),
        "terms": len(dec.weights),
        "distinct_factors": [len(slot) for slot in dec.factors],
        "assemble_s": best,
        "peak_mb": traced_peak_mb(dec.assemble),
        "defect": float(np.abs(matrix - target.matrix).max()),
        "verify_s": verify,
        "verified": result.ok,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=str, required=True)
    default = [name for name in [*WERNER, *MIXED, *DISTINCT] if name not in LARGE]
    parser.add_argument("--cases", type=str, default=",".join(default))
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    names = args.cases.split(",")
    known = [*WERNER, *MIXED, *DISTINCT]
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(f"--cases: unknown case {unknown[0]!r}; known: {', '.join(known)}")
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")

    cases = {}
    for name in names:
        build = {}
        if name in WERNER:
            dec, target = werner_case(*WERNER[name])
        elif name in MIXED:
            dec, target, build = mixed_case(MIXED[name], args.seed, args.repeat)
        else:
            dec, target = distinct_case(*DISTINCT[name], args.seed)
        cases[name] = case = {**measure(dec, target, args.repeat), **build}
        built = (", build {build_s:.4f} s, {build_peak_mb:.1f} MB, check {check_s:.4f} s,"
                 " eigvalsh {check_eigvalsh_s:.4f} s".format(**build) if build else "")
        print(
            f"{name}: {case['assemble_s']:.4f} s, {case['peak_mb']:.1f} MB,"
            f" verify {case['verify_s']:.4f} s{built}"
        )
    doc = {
        "repeat": args.repeat,
        "seed": args.seed,
        "norm": NORM,
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cases": cases,
    }
    with open(args.out, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
