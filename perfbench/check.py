"""The harness's own correctness oracle, written in numpy alone.

Nothing here imports spinsep: expected verdicts and the acceptance of an
emitted decomposition must not depend on the code under test.  Every
comparison is written so that NaN fails it (``not (x <= eps)``).
"""

from __future__ import annotations

import json
import math

import numpy as np

# The program's documented default tolerances (README, linalg.Tolerance).
ABS_EPS = 1e-9
RECONSTRUCTION_EPS = 1e-8

# Entries of the product states built per chunk during reconstruction.
_CHUNK_ENTRIES = 1 << 20


def _digits(dims: tuple[int, ...]) -> np.ndarray:
    """(b, N) array of the big-endian digits of every flat index."""
    return np.indices(dims).reshape(len(dims), -1)


def spin_l1_norm(matrix: np.ndarray, dims: tuple[int, ...]) -> float:
    """Sum of spin-coefficient moduli off the identity label.

    The coefficient of label (j, k) is, up to a unit phase, the Fourier
    transform over the row digits i of a_k[i] = rho[i, i (+) k]; moduli
    are phase-blind, so a plain n-dimensional FFT gives them.
    """
    n = matrix.shape[0]
    digits = _digits(dims)
    radix = np.asarray(dims)[:, None, None]
    cols = np.ravel_multi_index(tuple((digits[:, :, None] + digits[:, None, :]) % radix), dims)
    shifted = matrix[np.arange(n)[:, None], cols]
    coeffs = np.fft.fftn(shifted.reshape(tuple(dims) + (n,)), axes=tuple(range(len(dims))))
    return float(np.abs(coeffs).sum() - abs(coeffs.flat[0]))


def partial_transpose_min_eig(matrix: np.ndarray, dims: tuple[int, ...], subsystem: int) -> float:
    """Smallest eigenvalue of the partial transpose on one subsystem (1-based)."""
    b = len(dims)
    t = matrix.reshape(tuple(dims) * 2)
    t = np.swapaxes(t, subsystem - 1, b + subsystem - 1).reshape(matrix.shape)
    return float(np.linalg.eigvalsh((t + t.conj().T) / 2.0)[0])


def werner_density(p: int, n: int, s: float) -> np.ndarray:
    """(1 - s)/p^n I + s |psi><psi|, psi the uniform sum of repeated-index kets."""
    size = p**n
    psi = np.zeros(size)
    step = sum(p**i for i in range(n))
    psi[np.arange(p) * step] = 1.0 / math.sqrt(p)
    return (1.0 - s) / size * np.eye(size, dtype=complex) + s * np.outer(psi, psi)


def werner_threshold(p: int, n: int) -> float:
    return 1.0 / (1.0 + p ** (n - 1))


def density_document(matrix: np.ndarray, dims: tuple[int, ...]) -> dict:
    """The density file format: entries as [real, imaginary] pairs."""
    pairs = np.stack([matrix.real, matrix.imag], axis=-1)
    return {"format_version": 1, "dims": list(dims), "matrix": pairs.tolist()}


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class Decomposition:
    """A decomposition file as arrays: weights (T,) and one (T, d, d) stack per subsystem."""

    def __init__(self, dims: tuple[int, ...], weights: np.ndarray, factors: list[np.ndarray]):
        self.dims = dims
        self.weights = weights
        self.factors = factors

    @property
    def terms(self) -> int:
        return len(self.weights)


def parse_decomposition(doc) -> Decomposition:
    """Arrays from a decomposition document; raises ValueError on a malformed tree."""
    try:
        dims = tuple(int(d) for d in doc["dims"])
        raw = doc["terms"]
        weights = np.array([t["weight"] for t in raw], dtype=float)
        factors = []
        for a, d in enumerate(dims):
            pairs = np.array([t["factors"][a] for t in raw], dtype=float)
            if pairs.shape != (len(raw), d, d, 2):
                raise ValueError(f"factor {a}: shape {pairs.shape}, expected {(len(raw), d, d, 2)}")
            factors.append(pairs[..., 0] + 1j * pairs[..., 1])
    except (KeyError, TypeError, IndexError) as err:
        raise ValueError(f"malformed decomposition: {err!r}") from err
    if any(len(t["factors"]) != len(dims) for t in raw):
        raise ValueError("a term has the wrong number of factors")
    return Decomposition(dims, weights, factors)


def read_decomposition(path) -> Decomposition:
    with open(path, encoding="utf-8") as fh:
        return parse_decomposition(json.load(fh))


def reconstruct(dec: Decomposition) -> np.ndarray:
    """sum_t w_t F_1[t] (x) ... (x) F_b[t], built in chunks of terms."""
    n = math.prod(dec.dims)
    chunk = max(1, _CHUNK_ENTRIES // (n * n))
    out = np.zeros((n, n), dtype=complex)
    for lo in range(0, dec.terms, chunk):
        hi = min(lo + chunk, dec.terms)
        prod = dec.factors[0][lo:hi]
        for f in dec.factors[1:]:
            c, m = prod.shape[0], prod.shape[1] * f.shape[1]
            prod = np.einsum("tij,tkl->tikjl", prod, f[lo:hi]).reshape(c, m, m)
        out += np.einsum("t,tij->ij", dec.weights[lo:hi], prod)
    return out


def check_decomposition(dec: Decomposition, target: np.ndarray, dims: tuple[int, ...]) -> str | None:
    """None when dec is a valid separable decomposition of target, else the first defect."""
    if tuple(dec.dims) != tuple(dims):
        return f"dims {dec.dims} != {tuple(dims)}"
    if dec.terms == 0:
        return "no terms"
    w = dec.weights
    if not np.all(np.isfinite(w)):
        return "non-finite weight"
    if not (w.min() >= -ABS_EPS):
        return f"negative weight {w.min():.3e}"
    total = float(w.sum())
    if not (abs(total - 1.0) <= ABS_EPS):
        return f"weights sum to {total!r}"
    for a, f in enumerate(dec.factors):
        if not np.all(np.isfinite(f)):
            return f"factor {a}: non-finite entry"
        asym = float(np.abs(f - f.conj().transpose(0, 2, 1)).max())
        if not (asym <= ABS_EPS):
            return f"factor {a}: not Hermitian ({asym:.3e})"
        tr_err = float(np.abs(np.trace(f, axis1=1, axis2=2) - 1.0).max())
        if not (tr_err <= ABS_EPS):
            return f"factor {a}: trace off by {tr_err:.3e}"
        lo = float(np.linalg.eigvalsh((f + f.conj().transpose(0, 2, 1)) / 2.0)[:, 0].min())
        if not (lo >= -ABS_EPS):
            return f"factor {a}: negative eigenvalue {lo:.3e}"
    defect = float(np.abs(reconstruct(dec) - target).max())
    if not (defect <= RECONSTRUCTION_EPS):
        return f"reconstruction defect {defect:.3e}"
    return None
