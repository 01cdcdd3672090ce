"""Machine-speed calibration for timings on a shared, drifting host.

On a shared host an unchanged pass can run a third slower for a minute at
a time, which no window length averages out.  So the harness times this
fixed kernel between cases (see run.run_pass) and scales each case by
NOMINAL_S / kernel time.  The kernel is harness-only numpy code, so a change to spinsep cannot
move it.  The scaled times still carry every change in the program, with
the host's drift divided out.  Raw times are kept in the report next to the
scaled ones.

The kernel is eigenvalue solves, small and medium.  Measured against
certify-entangled passes over three minutes on the host the bounds were set
on, the 10-second medians of pass time / kernel time spread 4%, against 32%
for the raw pass times.  JSON and dict kernels tracked the drift worse.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time on that host (Intel Xeon, 2 vCPUs at 2.1 GHz); scaled
# timings read as seconds at that speed.
NOMINAL_S = 0.00085
# About 80 ms of kernel per measurement, long enough to average the host's
# sub-second jitter.
REPEATS = 96


def _hermitian(d: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


# Bound at import, so the traced run's wrapper of np.linalg.eigvalsh never
# runs inside the kernel.
_eigvalsh = np.linalg.eigvalsh
_rng = np.random.default_rng(20000104)
_SMALL = [_hermitian(d, _rng) for d in (2, 2, 3, 4, 4, 8) * 8]
_MEDIUM = _hermitian(64, _rng)


def _kernel() -> None:
    for m in _SMALL:
        _eigvalsh(m)
    _eigvalsh(_MEDIUM)


def kernel_s() -> float:
    """Median wall time of the kernel over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)
