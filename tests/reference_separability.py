"""Reference oracle: the original per-element necessary check and
certificate expansion.

Both walk the label pairs one at a time in Python: the necessary check
over every pair of flat indices and every redistribution of their digits,
the certificate over every kept coefficient and every offset vector, with
weights |s| (1 + cos(theta + arg omega)) and merging on projection content
in a dict.  The property tests compare the library's array versions
against them.  Feed them valid densities only.
"""

import cmath
import math
from itertools import product as iter_product

import numpy as np

from spinsep import (
    INCONCLUSIVE,
    INSEPARABLE,
    NecessaryViolation,
    ProductTerm,
    ProjectionSpec,
    RootOfUnity,
    SeparableDecomposition,
    SpinLabel,
    spin_l1_norm,
    subgroup_projection,
    to_spin,
)
from spinsep.composite import digit_table, strides
from spinsep.separability import NORM_SLACK, WEIGHT_FLOOR


def reference_necessary(rho, tol):
    """(verdict, witness) of the diagonal-majorisation scan, worst excess first seen."""
    dims = rho.dims
    b = len(dims)
    m = rho.matrix
    n = dims.size
    digits = digit_table(dims)
    stride = np.asarray(strides(dims), dtype=np.int64)
    diag = np.clip(np.real(np.diagonal(m)), 0.0, None)
    worst = None
    for jf in range(n):
        jd = digits[jf]
        for kf in range(jf + 1, n):
            kd = digits[kf]
            if np.any(jd == kd):
                continue
            bound = math.sqrt(diag[jf] * diag[kf])
            for pattern in iter_product((0, 1), repeat=b - 1):
                ud, vd = [jd[0]], [kd[0]]
                for a, p in enumerate(pattern, start=1):
                    if p == 0:
                        ud.append(jd[a])
                        vd.append(kd[a])
                    else:
                        ud.append(kd[a])
                        vd.append(jd[a])
                uf = int(np.dot(ud, stride))
                vf = int(np.dot(vd, stride))
                magnitude = abs(m[uf, vf])
                excess = magnitude - bound
                if excess > tol.abs_eps and (
                    worst is None or excess > worst.magnitude - worst.bound
                ):
                    worst = NecessaryViolation(
                        tuple(int(x) for x in jd),
                        tuple(int(x) for x in kd),
                        tuple(int(x) for x in ud),
                        tuple(int(x) for x in vd),
                        bound,
                        magnitude,
                    )
    return (INCONCLUSIVE, None) if worst is None else (INSEPARABLE, worst)


def reference_reduced_generator(d, j, k):
    if (j, k) == (0, 0):
        return SpinLabel(0, 1), 0, 1.0 + 0.0j
    g = math.gcd(j, k)
    u = SpinLabel(j // g, k // g)
    beta = RootOfUnity(d, (-(u.j * u.k) * (g * (g - 1) // 2)) % d).value()
    if d % 2 == 0 and (u.j * u.k) % 2 == 1:
        beta *= RootOfUnity(d, -g, half_step=True).value()
    return u, g, beta


def _projection(d, j, k, r):
    spec = ProjectionSpec(d, SpinLabel(j, k), r)
    return subgroup_projection(spec).tobytes(), spec


def reference_certificate(rho):
    """The normalised certificate decomposition, unverified, and the number
    of expansions merged into its terms; None above the bound."""
    dims = rho.dims
    n = dims.size
    coeffs = to_spin(rho)
    norm = spin_l1_norm(coeffs)
    if norm > 1.0 + NORM_SLACK:
        return None
    table = coeffs.table
    digits = digit_table(dims)
    neg = (((-digits) % np.asarray(dims.dims)) @ np.asarray(strides(dims))).tolist()
    digit_rows = digits.tolist()
    merged = {}
    raw = 0
    for jf in range(n):
        for kf in range(n):
            partner = (neg[jf], neg[kf])
            if (jf, kf) == (0, 0) or partner < (jf, kf):
                continue
            jd, kd = digit_rows[jf], digit_rows[kf]
            s = complex(table[jf, kf])
            if abs(s) < WEIGHT_FLOOR:
                continue
            mult = 1.0 if partner == (jf, kf) else 2.0
            gens = []
            beta = 1.0 + 0.0j
            for d_i, j_i, k_i in zip(dims, jd, kd):
                u, t, b_i = reference_reduced_generator(d_i, j_i, k_i)
                gens.append((u, t))
                beta *= b_i
            theta = cmath.phase(beta * s)
            for offsets in iter_product(*[range(d_i) for d_i in dims]):
                arg_omega = -2.0 * math.pi * sum(
                    l * t / d_i for l, (_, t), d_i in zip(offsets, gens, dims)
                )
                weight = mult * abs(s) * (1.0 + math.cos(theta + arg_omega)) / n
                if weight < WEIGHT_FLOOR:
                    continue
                raw += 1
                parts = [
                    _projection(d_i, u.j, u.k, l)
                    for d_i, (u, _), l in zip(dims, gens, offsets)
                ]
                key = tuple(content for content, _ in parts)
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [weight, tuple(spec for _, spec in parts)]
                else:
                    entry[0] += weight
    terms = [
        ProductTerm(weight, tuple(subgroup_projection(sp) for sp in specs), specs)
        for weight, specs in merged.values()
    ]
    residual = 1.0 - norm
    if residual > WEIGHT_FLOOR:
        terms.append(
            ProductTerm(residual, tuple(np.eye(d, dtype=complex) / d for d in dims), None)
        )
    total = math.fsum(term.weight for term in terms)
    terms = [ProductTerm(t.weight / total, t.factors, t.factor_specs) for t in terms]
    return SeparableDecomposition(dims, tuple(terms)), raw
