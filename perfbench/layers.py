"""Where the traced run wraps spinsep, and the per-layer metrics it derives.

Layers are the modules under src/spinsep/.  spin and composite sit below
all of them and are not timed on their own.  Each wrap point is the name a
caller looks up, so a call is seen exactly once: for example the CLI's
second verification goes through ``spinsep.cli.verify_decomposition`` and
the certificate's own through ``spinsep.separability.verify_decomposition``.
"""

from __future__ import annotations

import os

import numpy as np

import spinsep.cli
import spinsep.decompositions
import spinsep.io
import spinsep.projections
import spinsep.separability
import spinsep.werner
from spans import Tracer


def _bytes(counter: str):
    def after(tracer, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        if os.path.exists(path):
            tracer.counters[counter] += os.path.getsize(path)

    return after


def _distinct_factors(tracer, args, kwargs, result):
    dec = args[0] if args else kwargs["dec"]
    seen = {(f.shape, np.asarray(f).tobytes()) for term in dec.terms for f in term.factors}
    tracer.counters["decompositions.distinct_factors"] += len(seen)


def _raw_terms(tracer, args, kwargs, result):
    terms = getattr(result.witness, "terms", None)
    if terms is not None:
        tracer.counters["separability.terms_raw"] += len(terms)


def install() -> Tracer:
    """Wrap every traced name; the tracer records only while enabled."""
    t = Tracer()
    cli, sep, dec, io, proj, wer = (
        spinsep.cli, spinsep.separability, spinsep.decompositions, spinsep.io,
        spinsep.projections, spinsep.werner,
    )
    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "read_density_file", "io.read_density", _bytes("io.bytes_read"))
    t.wrap(io, "read_decomposition_file", "io.read_decomposition", _bytes("io.bytes_read"))
    t.wrap(cli, "write_decomposition_file", "io.write_decomposition", _bytes("io.bytes_written"))
    for owner in (cli, dec, wer, proj):
        t.wrap(owner, "check_density", "linalg.check_density")
    t.wrap(np.linalg, "eigvalsh", "linalg.eigvalsh")
    t.wrap(cli, "spin_table", "transform.to_spin")
    t.wrap(sep, "to_spin", "transform.to_spin")
    t.wrap(cli, "necessary_check", "separability.necessary")
    t.wrap(cli, "peres_check", "separability.peres")
    t.wrap(cli, "sufficient_certificate", "separability.certificate", _raw_terms)
    for owner in (cli, sep, dec):
        t.wrap(owner, "verify_decomposition", "decompositions.verify", _distinct_factors)
    t.wrap(dec.SeparableDecomposition, "assemble", "decompositions.assemble")
    for owner in (sep, wer, proj):
        t.wrap(owner, "subgroup_projection", "projections.subgroup_projection")
    t.wrap(wer, "cyclic_family_density", "projections.cyclic_family")
    t.wrap(cli, "werner_density", "werner.density")
    t.wrap(cli, "werner_separable_decomposition", "werner.decomposition")
    return t


def metrics(snapshot: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans, counters = snapshot["spans"], snapshot["counters"]
    edges = {(e["parent"], e["name"]): e for e in snapshot["edges"]}

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    factor_checks = edges.get(("decompositions.verify", "linalg.check_density"), {}).get("calls", 0)
    distinct = counters.get("decompositions.distinct_factors", 0)
    return {
        "decompositions.verify_s": span("decompositions.verify", "total_s"),
        "decompositions.verify_calls": span("decompositions.verify", "calls"),
        "decompositions.assemble_s": span("decompositions.assemble", "total_s"),
        "decompositions.factor_checks": factor_checks,
        # 0 when verification made no factor checks at all.
        "decompositions.distinct_factor_ratio": distinct / factor_checks if factor_checks else 0.0,
        "separability.certificate_self_s": span("separability.certificate", "self_s"),
        "separability.terms_raw": counters.get("separability.terms_raw", 0),
        "separability.necessary_s": span("separability.necessary", "total_s"),
        "separability.peres_s": span("separability.peres", "total_s"),
        "transform.to_spin_s": span("transform.to_spin", "total_s"),
        "transform.to_spin_calls": span("transform.to_spin", "calls"),
        "io.read_density_s": span("io.read_density", "total_s"),
        "io.read_decomposition_s": span("io.read_decomposition", "total_s"),
        "io.bytes_read": counters.get("io.bytes_read", 0),
        "io.write_decomposition_s": span("io.write_decomposition", "total_s"),
        "io.bytes_written": counters.get("io.bytes_written", 0),
        "linalg.check_density_s": span("linalg.check_density", "total_s"),
        "linalg.check_density_calls": span("linalg.check_density", "calls"),
        "linalg.eigvalsh_calls": span("linalg.eigvalsh", "calls"),
        "projections.subgroup_projection_calls": span("projections.subgroup_projection", "calls"),
        "projections.cyclic_family_s": span("projections.cyclic_family", "total_s"),
        "projections.cyclic_family_calls": span("projections.cyclic_family", "calls"),
        "werner.density_s": span("werner.density", "total_s"),
        "werner.decomposition_self_s": span("werner.decomposition", "self_s"),
        "cli.self_s": span("cli.main", "self_s"),
    }


_VERIFY = "cases_per_s, largest_case_s on certify-separable, werner-emit, verify-file; none on certify-entangled"
_ENTANGLED = "cases_per_s on certify-entangled"
# Per-layer metric -> (unit, better, the end-to-end metrics and workloads it moves).
PER_LAYER = {
    "decompositions.verify_s": ("s", "lower", _VERIFY),
    "decompositions.verify_calls": ("count", "lower", _VERIFY),
    "decompositions.assemble_s": ("s", "lower", _VERIFY),
    "decompositions.factor_checks": ("count", "lower", _VERIFY),
    "decompositions.distinct_factor_ratio": ("ratio", "higher", _VERIFY),
    "separability.certificate_self_s": ("s", "lower", "largest_case_s, decomp_terms on certify-separable"),
    "separability.terms_raw": ("count", "lower", "largest_case_s, decomp_terms on certify-separable"),
    "separability.necessary_s": ("s", "lower", _ENTANGLED),
    "separability.peres_s": ("s", "lower", _ENTANGLED),
    "transform.to_spin_s": ("s", "lower", _ENTANGLED),
    "transform.to_spin_calls": ("count", "lower", _ENTANGLED),
    "io.read_density_s": ("s", "lower", _ENTANGLED),
    "io.read_decomposition_s": ("s", "lower", "cases_per_s on verify-file"),
    "io.bytes_read": ("bytes", "lower", "cases_per_s on certify-entangled and verify-file"),
    "io.write_decomposition_s": ("s", "lower", "cases_per_s, peak_rss_mb on certify-separable (2x8) and werner-emit"),
    "io.bytes_written": ("bytes", "lower", "cases_per_s, peak_rss_mb on certify-separable (2x8) and werner-emit"),
    "linalg.check_density_s": ("s", "lower", "every workload; failed_ratio on malformed and broken cases"),
    "linalg.check_density_calls": ("count", "lower", "every workload"),
    "linalg.eigvalsh_calls": ("count", "lower", "every workload"),
    "projections.subgroup_projection_calls": ("count", "lower", "cases_per_s on certify-separable"),
    "projections.cyclic_family_s": ("s", "lower", "cases_per_s on werner-emit"),
    "projections.cyclic_family_calls": ("count", "lower", "cases_per_s on werner-emit"),
    "werner.density_s": ("s", "lower", "cases_per_s on werner-emit"),
    "werner.decomposition_self_s": ("s", "lower", "cases_per_s on werner-emit"),
    "cli.self_s": ("s", "lower", _ENTANGLED),
    "trace.overhead_ratio": ("ratio", "lower", "none; traced pass time over untraced, minus one"),
}
UNITS = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
