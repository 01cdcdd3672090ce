"""The benchmark's traced run wraps spinsep at the names its callers look
up; a rename under src/ must fail here, not silently in ``--trace 1``."""

import importlib
from pathlib import Path

import numpy as np

import spinsep.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_wraps_every_name_and_unwrap_restores(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    eigvalsh = np.linalg.eigvalsh
    tracer = layers.install()  # AttributeError if a wrapped name is gone
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr).__wrapped__ is original, attr
        tracer.enabled = True
        out = tmp_path / "dec.json"
        argv = ["werner", "--p", "3", "--n", "2", "--emit-decomposition", str(out)]
        assert spinsep.cli.main(argv) == 0
        tracer.enabled = False
        metrics = layers.metrics(tracer.snapshot())
        assert metrics["decompositions.verify_calls"] == 1
        assert metrics["io.bytes_written"] == out.stat().st_size
        assert metrics["decompositions.factor_checks"] == 0
    finally:
        tracer.unwrap()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr
    assert np.linalg.eigvalsh is eigvalsh
    assert tracer._patches == []
