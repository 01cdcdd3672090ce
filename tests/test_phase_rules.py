"""The phase rules, pinned bit for bit.

The projections P_u(r) and the certificate's label maps are rebuilt here
from closed-form integer exponents: (gamma eta^r S_u)^m carries
eta^(r m + u_j u_k m(m-1)/2), times alpha^m when d is even and u_j u_k is
odd, and S_{j,k} = beta (gamma S_u)^g with u = (j, k)/g, g = gcd(j, k),
carries beta = eta^(-u_j u_k g(g-1)/2), times alpha^(-g) under the same
parity rule.  Each root is evaluated once by ``eta`` or ``alpha`` and the
products and sums follow the library's order, so any change to the
exponent arithmetic or to the order of the float operations shows up as a
changed bit, which would change emitted decompositions.
"""

import math

import numpy as np
import pytest

from spinsep import ProjectionSpec, SpinLabel, alpha, eta, subgroup_projection, valid_generator
from spinsep.separability import _label_table

DIMS = range(2, 9)


def _half_step(d: int, j: int, k: int) -> bool:
    return d % 2 == 0 and (j * k) % 2 == 1


def _spin(d: int, j: int, k: int) -> np.ndarray:
    out = np.zeros((d, d), dtype=complex)
    for row in range(d):
        out[row, (row + k) % d] = eta(d, (j * row) % d)
    return out


def reference_projection(d: int, j: int, k: int, r: int) -> np.ndarray:
    acc = np.zeros((d, d), dtype=complex)
    for m in range(d):
        phase = eta(d, (r * m + j * k * (m * (m - 1) // 2)) % d)
        if _half_step(d, j, k):
            phase *= alpha(d, m)
        acc += phase * _spin(d, (m * j) % d, (m * k) % d)
    return acc / d


def reference_label_table(d: int):
    """(phases, hits, projections) with contents numbered first-seen."""
    content: dict[bytes, int] = {}
    projections, entries = [], []
    for label in range(d * d):
        j, k = divmod(label, d)
        if (j, k) == (0, 0):
            u, g, beta = (0, 1), 0, 1.0 + 0.0j
        else:
            g = math.gcd(j, k)
            u = (j // g, k // g)
            beta = eta(d, (-(u[0] * u[1]) * (g * (g - 1) // 2)) % d)
            if _half_step(d, *u):
                beta *= alpha(d, -g)
        for m in range(d):
            p = reference_projection(d, *u, m)
            if p.tobytes() not in content:
                content[p.tobytes()] = len(content)
                projections.append(p)
            entries.append((label, content[p.tobytes()], beta * eta(d, (-m * g) % d)))
    phases = np.zeros((d * d, len(content)), dtype=complex)
    hits = np.zeros((d * d, len(content)))
    for label, c, value in entries:
        phases[label, c], hits[label, c] = value, 1.0
    return phases, hits, projections


@pytest.mark.parametrize("d", DIMS)
def test_every_subgroup_projection_is_bit_identical(d):
    for j in range(d):
        for k in range(d):
            if not valid_generator(d, j, k):
                continue
            for r in range(d):
                got = subgroup_projection(ProjectionSpec(d, SpinLabel(j, k), r))
                ref = reference_projection(d, j, k, r)
                # tobytes also tells -0.0 from 0.0, which a file writes apart.
                assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes(), (j, k, r)


@pytest.mark.parametrize("d", DIMS)
def test_label_table_is_bit_identical(d):
    phases, projections = _label_table(d)
    ref_phases, ref_hits, ref_projections = reference_label_table(d)
    assert np.array_equal(phases, ref_phases)
    assert phases.tobytes() == ref_phases.tobytes()
    assert np.array_equal(phases != 0, ref_hits)
    for got, ref in zip(projections, ref_projections, strict=True):
        assert got.tobytes() == ref.tobytes()
