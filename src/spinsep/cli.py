"""Command-line front end.

Subcommands wrap the library constructors and certificates around the JSON
file formats.  Exit codes: 0 success, 2 parse/format error, 3 semantic
error (dims, primality, permutation, an out-of-range --tol or werner --p,
--n or --s, output with NaN or infinite entries, or a built decomposition
failing its own verification, as under a --tol too tight for double
rounding), 4 invalid density (any certify input, or transform --strict).
"""

from __future__ import annotations

import argparse
import math
import sys

from .composite import DimVector, composite_spin, decode, permute_dims, reorder_subsystems
from .decompositions import VerificationError, verify_decomposition
from .io import (
    FileFormatError,
    coefficients_document,
    density_document,
    document_text,
    read_coefficients_file,
    read_density_file,
    write_decomposition_file,
)
from .linalg import DEFAULT_TOLERANCE, InvalidDensityError, Tolerance, check_density
from .projections import is_prime
from .separability import (
    INCONCLUSIVE,
    INSEPARABLE,
    SEPARABLE,
    NecessaryViolation,
    NegativeEigenvalue,
    necessary_check,
    peres_check,
    sufficient_certificate,
)
from .transform import from_spin, spin_l1_norm, spin_table
from .werner import (
    WernerSpec,
    werner_density,
    werner_separable_decomposition,
    werner_threshold,
)

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_SEMANTIC = 3
EXIT_INVALID_DENSITY = 4

# Smallest accepted --tol: tolerances below the spacing of doubles near one
# cannot be resolved on entries of magnitude at most one.
MIN_TOL = sys.float_info.epsilon


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as err:
        raise ValueError(f"{what} must be a comma-separated list of integers: {text!r}") from err


def _emit_document(doc: dict, path: str | None) -> None:
    """Print or write ``doc``; ValueError on NaN or infinity, which JSON lacks."""
    text = document_text(doc)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")


def cmd_basis(args, tol: Tolerance) -> int:
    if args.d is not None:
        dims = DimVector((args.d,))
    else:
        dims = DimVector(_parse_int_list(args.dims, "--dims"))
    n = dims.size
    if args.label is not None:
        j, k = _parse_int_list(args.label, "--label")
        if not (0 <= j < n and 0 <= k < n):
            raise ValueError(f"label ({j},{k}) out of range for total dimension {n}")
        labels = [(j, k)]
    else:
        labels = [(j, k) for j in range(n) for k in range(n)]
    matrices = []
    for j, k in labels:
        m = composite_spin(dims, decode(dims, j), decode(dims, k))
        matrices.append({"j": j, "k": k, "matrix": density_document(m, dims)["matrix"]})
    doc = {"format_version": 1, "dims": list(dims), "matrices": matrices}
    _emit_document(doc, args.output)
    return EXIT_OK


def cmd_transform(args, tol: Tolerance) -> int:
    if args.direction == "to-spin":
        matrix, dims = read_density_file(args.input)
        if args.strict:
            check_density(matrix, dims, tol)
        coeffs = spin_table(matrix, dims)
        _emit_document(coefficients_document(coeffs), args.output)
    else:
        coeffs = read_coefficients_file(args.input)
        matrix = from_spin(coeffs)
        _emit_document(density_document(matrix, coeffs.dims), args.output)
    return EXIT_OK


def _witness_json(witness) -> dict | None:
    if isinstance(witness, NecessaryViolation):
        return {
            "kind": "necessary-violation",
            "j": list(witness.j),
            "k": list(witness.k),
            "u": list(witness.u),
            "v": list(witness.v),
            "bound": witness.bound,
            "magnitude": witness.magnitude,
        }
    if isinstance(witness, NegativeEigenvalue):
        return {
            "kind": "negative-eigenvalue",
            "subsystem": witness.subsystem,
            "value": witness.value,
        }
    return None


def cmd_certify(args, tol: Tolerance) -> int:
    matrix, dims = read_density_file(args.input)
    if len(dims) < 2:
        raise ValueError("certification needs at least two subsystems")
    rho = check_density(matrix, dims, tol)
    run_all = args.all or not (args.necessary or args.peres or args.sufficient)

    checks: dict[str, object] = {}
    if run_all or args.necessary:
        checks["necessary"] = necessary_check(rho, tol)
    if run_all or args.peres:
        checks["peres"] = {
            r: peres_check(rho, r, tol) for r in range(1, len(dims) + 1)
        }
    sufficient = None
    if run_all or args.sufficient:
        sufficient = sufficient_certificate(rho, tol)
        checks["sufficient"] = sufficient

    norm = sufficient.l1_norm if sufficient is not None else spin_l1_norm(spin_table(matrix, dims))
    flat_reports = []
    for name, report in checks.items():
        if name == "peres":
            flat_reports.extend(report.values())
        else:
            flat_reports.append(report)
    if any(r.verdict == INSEPARABLE for r in flat_reports):
        overall = INSEPARABLE
    elif any(r.verdict == SEPARABLE for r in flat_reports):
        overall = SEPARABLE
    else:
        overall = INCONCLUSIVE

    if args.json:
        doc = {
            "dims": list(dims),
            "l1_norm": norm,
            "checks": {},
            "verdict": overall,
        }
        for name, report in checks.items():
            if name == "peres":
                doc["checks"]["peres"] = {
                    str(r): {"verdict": rep.verdict, "witness": _witness_json(rep.witness)}
                    for r, rep in report.items()
                }
            else:
                doc["checks"][name] = {
                    "verdict": report.verdict,
                    "witness": _witness_json(report.witness),
                }
        _emit_document(doc, None)
    else:
        dims_text = ",".join(str(d) for d in dims)
        print(f"dims: {dims_text} (N={dims.size})")
        print(f"spin L1 norm: {norm!r}")
        for name, report in checks.items():
            if name == "peres":
                for r, rep in report.items():
                    print(f"peres[{r}]: {rep.verdict}")
            else:
                print(f"{name}: {report.verdict}")
        print(f"verdict: {overall}")

    if args.emit_decomposition:
        if sufficient is not None and sufficient.verdict == SEPARABLE:
            # The certificate verified its witness before returning it.
            write_decomposition_file(args.emit_decomposition, sufficient.witness)
            print(f"wrote {args.emit_decomposition}")
        else:
            print("no decomposition emitted (not certified separable)")
    return EXIT_OK


def cmd_werner(args, tol: Tolerance) -> int:
    p, n, s = args.p, args.n, args.s
    # Checks d >= 2, n >= 2 and s in [0, 1] before anything is printed.
    WernerSpec(p, n, 0.0 if s is None else s)
    if is_prime(p):
        s_star = werner_threshold(p, n)
        print(f"separability threshold: {s_star!r}")
    else:
        s_star = None
        bound = 1.0 / (1.0 + p ** (n - 1))
        print(
            f"necessary-condition bound: {bound!r} "
            "(exact threshold unknown for composite dimension)"
        )
    if args.output is None and not args.emit_decomposition:
        return EXIT_OK
    if s is None:
        if s_star is None:
            raise ValueError("--s is required for composite dimensions")
        s = s_star

    rho = werner_density(WernerSpec(p, n, s))
    if args.output is not None:
        _emit_document(density_document(rho.matrix, rho.dims), args.output)

    if args.emit_decomposition:
        dec = werner_separable_decomposition(p, n, s)
        result = verify_decomposition(dec, rho, tol)
        if not result:
            raise VerificationError(f"decomposition failed verification: {result.failure}")
        write_decomposition_file(args.emit_decomposition, dec)
        print(f"wrote {args.emit_decomposition} ({len(dec.terms)} terms, verified)")
    return EXIT_OK


def cmd_permute(args, tol: Tolerance) -> int:
    matrix, dims = read_density_file(args.input)
    sigma = _parse_int_list(args.sigma, "--sigma")
    if len(sigma) != len(dims):
        raise ValueError(
            f"permutation length {len(sigma)} does not match {len(dims)} subsystems"
        )
    out = reorder_subsystems(matrix, dims, sigma)
    _emit_document(density_document(out, permute_dims(dims, sigma)), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsep",
        description="Spin-basis transforms and separability certificates for density matrices.",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"override the absolute tolerance, at least {MIN_TOL:.2g} "
        "(reconstruction tolerance becomes 10x this)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="emit spin basis matrices")
    group = p_basis.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int, help="single subsystem dimension")
    group.add_argument("--dims", type=str, help="comma-separated dimensions")
    p_basis.add_argument("--label", type=str, help="single flat label j,k")
    p_basis.add_argument("--output", type=str, default=None)
    p_basis.set_defaults(func=cmd_basis)

    p_tr = sub.add_parser("transform", help="convert between matrix and spin coefficients")
    p_tr.add_argument("--input", type=str, required=True)
    p_tr.add_argument(
        "--direction", choices=("to-spin", "from-spin"), default="to-spin"
    )
    p_tr.add_argument("--output", type=str, default=None)
    p_tr.add_argument("--strict", action="store_true", help="validate the input density")
    p_tr.set_defaults(func=cmd_transform)

    p_cert = sub.add_parser("certify", help="run separability certificates")
    p_cert.add_argument("--input", type=str, required=True)
    p_cert.add_argument("--necessary", action="store_true")
    p_cert.add_argument("--peres", action="store_true")
    p_cert.add_argument("--sufficient", action="store_true")
    p_cert.add_argument("--all", action="store_true")
    p_cert.add_argument("--emit-decomposition", type=str, default=None)
    p_cert.add_argument("--json", action="store_true", help="machine-readable report")
    p_cert.set_defaults(func=cmd_certify)

    p_w = sub.add_parser("werner", help="Werner family: matrix, threshold, decomposition")
    p_w.add_argument("--p", type=int, required=True)
    p_w.add_argument("--n", type=int, required=True)
    p_w.add_argument("--s", type=float, default=None)
    p_w.add_argument("--output", type=str, default=None)
    p_w.add_argument("--emit-decomposition", type=str, default=None)
    p_w.set_defaults(func=cmd_werner)

    p_perm = sub.add_parser("permute", help="reorder tensor factors")
    p_perm.add_argument("--input", type=str, required=True)
    p_perm.add_argument("--sigma", type=str, required=True, help="image list, e.g. 2,1")
    p_perm.add_argument("--output", type=str, default=None)
    p_perm.set_defaults(func=cmd_permute)

    return parser


def _tolerance(value: float | None) -> Tolerance:
    if value is None:
        return DEFAULT_TOLERANCE
    if not (math.isfinite(value) and value >= MIN_TOL):
        raise ValueError(f"--tol must be finite and at least {MIN_TOL:.3g}, got {value!r}")
    return Tolerance(abs_eps=value, reconstruction_eps=10 * value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _tolerance(args.tol))
    except FileFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except InvalidDensityError as err:
        print(f"error: invalid density: {err}", file=sys.stderr)
        return EXIT_INVALID_DENSITY
    except (ValueError, OSError, OverflowError, VerificationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    raise SystemExit(main())
