"""Reference contractions: the ``np.tensordot`` forms that ``np.dot`` replaced.

``apply_factored``, ``certificate_witness`` and ``assemble`` contract as
``transform._apply_factored``, ``separability.sufficient_certificate`` and
``SeparableDecomposition.assemble`` did with ``np.tensordot`` and
``np.moveaxis``.  The library hands ``np.dot`` the 2-D operands that
tensordot builds, of the same shape, values and memory order, so the
property tests in tests/test_contractions.py compare them bit for bit.
"""

import math

import numpy as np

from spinsep import SeparableDecomposition, spin_l1_norm, to_spin
from spinsep.composite import digit_table
from spinsep.separability import NORM_SLACK, WEIGHT_FLOOR, _label_table


def apply_factored(mats, table, dims):
    """(x)_i mats[i] applied to the row index of an (N, M) table, one axis at a time."""
    x = table.reshape(dims + (-1,))
    for axis, f in enumerate(mats):
        x = np.moveaxis(np.tensordot(f, x, axes=(1, axis)), 0, axis)
    return x.reshape(dims.size, -1)


def certificate_witness(rho):
    """The certificate witness of ``rho``, unverified, or None above the norm bound."""
    dims = rho.dims
    n, b = dims.size, len(dims)
    coeffs = to_spin(rho)
    norm = spin_l1_norm(coeffs)
    if norm > 1.0 + NORM_SLACK:
        return None
    neg = np.ravel_multi_index(-digit_table(dims).T, dims, mode="wrap")
    mult = 1 + np.sign(np.add.outer(neg * n, neg) - np.arange(n * n).reshape(n, n))
    mult[0, 0] = 0
    s = np.where(np.abs(coeffs.table) >= WEIGHT_FLOOR, mult * coeffs.table, 0.0)
    s = s.reshape(dims * 2).transpose(np.arange(2 * b).reshape(2, b).T.ravel())
    s = s.reshape([d * d for d in dims])
    tables = [_label_table(d) for d in dims]
    phased, modulus = s, np.abs(s)
    for phases, _ in tables:
        phased = np.tensordot(phased, phases, axes=(0, 0))
        modulus = np.tensordot(modulus, phases != 0, axes=(0, 0))
    merged = np.pad((modulus + phased.real) / n, (0, 1))
    merged[(-1,) * b] = 1.0 - norm if 1.0 - norm > WEIGHT_FLOOR else 0.0
    index = np.argwhere(merged >= WEIGHT_FLOOR)
    parts = merged[tuple(index.T)]
    factors = [(*p, np.eye(d, dtype=complex) / d) for d, (_, p) in zip(dims, tables)]
    return SeparableDecomposition(dims, parts / math.fsum(parts.tolist()), index, factors)


def assemble(dec):
    """``dec.assemble()`` with a tensordot per block and for the meeting product,
    its rows put in order by lexsort, not by a packed key."""
    dims, b, n = dec.dims, len(dec.dims), dec.dims.size
    if not len(dec.weights):
        return np.zeros((n, n), dtype=complex)
    tables = [f.reshape(len(f), -1) for f in dec.factors]
    step = dec.index[1:] - dec.index[:-1]
    in_order = (np.take_along_axis(step, (step != 0).argmax(axis=1)[:, None], 1) >= 0).all()
    order = slice(None) if in_order else np.lexsort(dec.index.T[::-1])
    idx = dec.index[order]
    new = np.ones((len(idx), b + 1), dtype=bool)
    new[1:, 0] = False
    new[1:, 1:] = np.logical_or.accumulate(idx[1:] != idx[:-1], axis=1)
    count, before = np.count_nonzero(new, axis=0), np.cumprod([1.0] + [d * d for d in dims])
    held, prefix = count * before[-1] / before, count * before
    below = np.maximum.accumulate(held[::-1])[::-1]
    h = int(np.argmin(np.maximum(below, prefix + held + n * n)))
    starts = np.flatnonzero(new[:, -1])
    value = np.add.reduceat(dec.weights[order], starts).reshape(-1, 1)
    for a in range(b - 1, h - 1, -1):
        outer = new[starts, a]
        runs = np.count_nonzero(outer)
        if runs * tables[a].shape[0] <= len(outer) * tables[a].shape[1]:
            block = np.zeros((runs, value.shape[1], len(tables[a])), value.dtype)
            block[np.cumsum(outer) - 1, :, idx[starts, a]] = value
            value = np.tensordot(block, tables[a], axes=(2, 0))
        else:
            value = value[:, :, None] * tables[a][idx[starts, a], None, :]
            if runs < len(outer):
                value = np.add.reduceat(value, np.flatnonzero(outer))
        value = value.reshape(runs, -1)
        starts = starts[outer]
    heads, rows = np.ones((len(starts), 1)), idx[starts]
    for a in range(h):
        heads = (heads[:, :, None] * tables[a][rows[:, a], None, :]).reshape(len(rows), -1)
    slots = [*range(h), *range(b - 1, h - 1, -1)]
    value = np.tensordot(heads, value, axes=(0, 0))
    value = value.reshape([dims[a] for a in slots for _ in range(2)])
    at = 2 * np.argsort(slots)
    return value.transpose([*at, *(at + 1)]).reshape(n, n)
