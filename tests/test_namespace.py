"""The public names of ``spinsep``: the paper's named objects and the
decomposition types stay exported, and the helpers that only tests call
live under ``tests/`` instead, so a later move cannot drop or keep one
silently.  The decomposition types hold weights, index and factors only."""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

import spinsep

KEPT = [
    "ProductTerm",
    "SeparableDecomposition",
    "adjusted_basis",
    "m2_map",
    "m3_map",
    "projection_from_diagonal",
    "spin_dagger",
    "spin_matrix",
    "werner_spin_coeffs",
]
# (module, name): moved to tests/reference_identities.py, or deleted (tensor,
# RootOfUnity, strides: flat indices are numpy's C order).
GONE = [
    ("composite", "multi_add"),
    ("composite", "strides"),
    ("linalg", "tensor"),
    ("linalg", "trace_inner"),
    ("spin", "RootOfUnity"),
    ("transform", "conjugate_label"),
    ("transform", "l2_identity_check"),
    ("transform", "spin_table_by_trace"),
]


@pytest.mark.parametrize("name", KEPT)
def test_kept_names_are_exported(name):
    assert name in dir(spinsep)


@pytest.mark.parametrize("module, name", GONE)
def test_reference_names_are_gone(module, name):
    assert not hasattr(spinsep, name)
    assert not hasattr(importlib.import_module(f"spinsep.{module}"), name)


def test_one_decomposition_constructor():
    assert not hasattr(spinsep.SeparableDecomposition, "from_columns")


def test_product_term_fields():
    assert [f.name for f in dataclasses.fields(spinsep.ProductTerm)] == ["weight", "factors"]


def test_constructor_takes_four_columns():
    params = list(inspect.signature(spinsep.SeparableDecomposition.__init__).parameters)
    assert params == ["self", "dims", "weights", "index", "factors"]


def test_specs_keyword_refused():
    with pytest.raises(TypeError):
        spinsep.SeparableDecomposition(
            spinsep.DimVector((2,)), [1.0], [[0]], [[np.eye(2) / 2]], specs=[[None]]
        )


def test_value_types_state_their_fields_once():
    assert not hasattr(spinsep.DensityMatrix, "dim")
    assert not hasattr(spinsep.DimVector((2, 3)), "dims")
    assert [f.name for f in dataclasses.fields(spinsep.DensityMatrix)] == ["matrix", "dims"]
