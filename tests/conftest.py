from functools import lru_cache

import numpy as np
import pytest

from spinsep import (
    DimVector,
    ProjectionSpec,
    SpinLabel,
    random_density,
    subgroup_projection,
    valid_generator,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_matrix(n, rng):
    """Unconstrained complex test matrix."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def mixed_to_norm(dims: DimVector, target: float, rng):
    """Random density blended toward the maximally mixed state so its
    spin L1 norm equals ``target`` (or is already below it)."""
    from spinsep import check_density, spin_l1_norm, to_spin

    rho0 = random_density(dims, rng)
    norm0 = spin_l1_norm(to_spin(rho0))
    lam = min(1.0, target / norm0)
    n = dims.size
    m = lam * rho0.matrix + (1.0 - lam) * np.eye(n) / n
    return check_density(m, dims)


@lru_cache(maxsize=None)
def projection_bytes(d: int) -> frozenset:
    """The bytes of every subgroup projection P_u(r) of a d-level system."""
    return frozenset(
        subgroup_projection(ProjectionSpec(d, SpinLabel(j, k), r)).tobytes()
        for j in range(d)
        for k in range(d)
        if valid_generator(d, j, k)
        for r in range(d)
    )


def residual_flags(dec) -> list:
    """Per term, whether it is the uniform residual: its factors are all
    I/d_a.  Asserts that every factor of every other term is bit-identical
    to a subgroup projection of its slot's d; those have rank one, so no
    other term can match."""
    mixed = [(np.eye(d, dtype=complex) / d).tobytes() for d in dec.dims]
    flags = []
    for term in dec.terms:
        blobs = [f.tobytes() for f in term.factors]
        flags.append(blobs == mixed)
        if not flags[-1]:
            assert all(blob in projection_bytes(d) for blob, d in zip(blobs, dec.dims))
    return flags
