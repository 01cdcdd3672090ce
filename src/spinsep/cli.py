"""Command-line front end.

Subcommands wrap the library constructors and certificates around the JSON
file formats.  Exit codes: 0 success, 2 parse/format error, 3 semantic error
(dims, primality, permutation, a --tol outside 2^-52 ~ 2.2204e-16 to 1e-2,
werner --p, --n or --s out of range, werner --output and --emit-decomposition
naming one file, certify --emit-decomposition naming its own --input (either
refusal holds for any spelling of a file and for its hard links), an
empty --output or --emit-decomposition path, refused by every command before
any work, a --p from 3317044064679887385961981 up that no Miller-Rabin base
2..41 shows composite, NaN or infinite output, a built decomposition failing
its own verification, as under a --tol too tight for double rounding, certify
checks that contradict each other, or a request too large to allocate), 4
invalid density (any certify input, or transform --strict, including a failed
eigenvalue solve).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .composite import DimVector, composite_spin, decode, permute_dims, reorder_subsystems
from .decompositions import VerificationError, verify_decomposition
from .io import (
    FileFormatError,
    coefficients_document,
    density_document,
    document,
    document_text,
    matrix_entries,
    read_coefficients_file,
    read_density_file,
    write_decomposition_file,
    write_file,
)
from .linalg import DEFAULT_TOLERANCE, InvalidDensityError, Tolerance, check_density
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
    is_prime,
    werner_bound,
    werner_density,
    werner_separable_decomposition,
)

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_SEMANTIC = 3
EXIT_INVALID_DENSITY = 4

# Smallest accepted --tol: tolerances below the spacing of doubles near one
# cannot be resolved on entries of magnitude at most one.
MIN_TOL = sys.float_info.epsilon
# Largest accepted --tol: a looser one would pass a matrix whose trace is
# far from one, and certify a witness of another density.
MAX_TOL = 1e-2


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
        write_file(path, [text.encode()])
        print(f"wrote {path}")


def _refuse_non_finite(path: str, given: np.ndarray, out: np.ndarray) -> None:
    if not np.isfinite(out).all():
        finite = np.isfinite(given).all()
        why = "the transform overflows a double" if finite else "an entry is NaN or infinite"
        raise ValueError(f"--input {path}: {why}, and JSON cannot hold NaN or infinity")


def cmd_basis(args, tol: Tolerance) -> None:
    if args.d is not None:
        dims = DimVector((args.d,))
    else:
        dims = DimVector(_parse_int_list(args.dims, "--dims"))
    n = dims.size
    if args.label is not None:
        label = _parse_int_list(args.label, "--label")
        if len(label) != 2:
            raise ValueError(f"--label takes two integers j,k, got {args.label!r}")
        j, k = label
        if not (0 <= j < n and 0 <= k < n):
            raise ValueError(f"label ({j},{k}) out of range for total dimension {n}")
        labels = [(j, k)]
    else:
        labels = [(j, k) for j in range(n) for k in range(n)]
    matrices = []
    for j, k in labels:
        m = composite_spin(dims, decode(dims, j), decode(dims, k))
        matrices.append({"j": j, "k": k, "matrix": matrix_entries(m)})
    _emit_document(document(dims, "matrices", matrices), args.output)


def cmd_transform(args, tol: Tolerance) -> None:
    if args.direction == "to-spin":
        given, dims = read_density_file(args.input)
        if args.strict:
            check_density(given, dims, tol)
        coeffs = spin_table(given, dims)
        out, doc = coeffs.table, coefficients_document(coeffs)
    else:
        coeffs = read_coefficients_file(args.input)
        given, out = coeffs.table, from_spin(coeffs)
        doc = density_document(out, coeffs.dims)
    _refuse_non_finite(args.input, given, out)
    _emit_document(doc, args.output)


# A witness reports as its kind, then its fields in dataclass order.
_KINDS = {NecessaryViolation: "necessary-violation", NegativeEigenvalue: "negative-eigenvalue"}


def _report_json(report) -> dict:
    """A check's verdict and its witness as plain values (None if it has none)."""
    kind = _KINDS.get(type(report.witness))
    witness = None if kind is None else {"kind": kind, **vars(report.witness)}
    return {"verdict": report.verdict, "witness": witness}


def cmd_certify(args, tol: Tolerance) -> None:
    emit = args.emit_decomposition
    if emit and Path(emit).exists() and Path(emit).samefile(args.input):
        raise ValueError(f"--emit-decomposition would overwrite --input: {emit}, {args.input}")
    matrix, dims = read_density_file(args.input)
    if len(dims) < 2:
        raise ValueError("certification needs at least two subsystems")
    rho = check_density(matrix, dims, tol)
    run_all = args.all or not (args.necessary or args.peres or args.sufficient)

    reports = {}
    if run_all or args.necessary:
        reports["necessary"] = necessary_check(rho, tol)
    if run_all or args.peres:
        reports.update((f"peres[{r}]", peres_check(rho, r, tol)) for r in range(1, len(dims) + 1))
    sufficient = None
    if run_all or args.sufficient:
        reports["sufficient"] = sufficient = sufficient_certificate(rho, tol)

    norm = sufficient.l1_norm if sufficient is not None else spin_l1_norm(spin_table(matrix, dims))
    verdicts = {r.verdict for r in reports.values()}
    # Only the sufficient check certifies separable; a necessary or Peres
    # check that disagrees means a bug or a tolerance too loose to trust.
    if {SEPARABLE, INSEPARABLE} <= verdicts:
        against = "; ".join(
            f"{name} says inseparable with witness {_report_json(r)['witness']}"
            for name, r in reports.items()
            if r.verdict == INSEPARABLE
        )
        raise ValueError(
            f"contradiction: sufficient says separable at spin L1 norm {norm!r}, but {against}"
        )
    overall = next((v for v in (INSEPARABLE, SEPARABLE) if v in verdicts), INCONCLUSIVE)

    if args.json:
        checks: dict[str, dict] = {}
        for name, report in reports.items():
            check, _, r = name.rstrip("]").partition("[")  # "peres[2]": checks["peres"]["2"]
            if r:
                checks.setdefault(check, {})[r] = _report_json(report)
            else:
                checks[check] = _report_json(report)
        doc = {"dims": list(dims), "l1_norm": norm, "checks": checks, "verdict": overall}
        _emit_document(doc, None)
    else:
        dims_text = ",".join(str(d) for d in dims)
        print(f"dims: {dims_text} (N={dims.size})")
        print(f"spin L1 norm: {norm!r}")
        for name, report in reports.items():
            print(f"{name}: {report.verdict}")
        print(f"verdict: {overall}")

    if emit:
        if sufficient is not None and sufficient.verdict == SEPARABLE:
            # The certificate verified its witness before returning it.
            write_decomposition_file(emit, sufficient.witness)
            print(f"wrote {emit}")
        else:
            print("no decomposition emitted (not certified separable)")


def cmd_werner(args, tol: Tolerance) -> None:
    p, n, s, out, emit = args.p, args.n, args.s, args.output, args.emit_decomposition
    same = out and emit and Path(out).exists() and Path(emit).exists() and Path(out).samefile(emit)
    if same or out and emit and Path(out).resolve() == Path(emit).resolve():
        raise ValueError(f"--output and --emit-decomposition are the same file: {out}, {emit}")
    # Checks d >= 2, n >= 2 and s in [0, 1] before anything is printed.
    WernerSpec(p, n, 0.0 if s is None else s)
    prime, bound = is_prime(p), werner_bound(p, n)
    if prime:
        print(f"separability threshold: {bound!r}")
    else:
        print(
            f"necessary-condition bound: {bound!r} "
            "(exact threshold unknown for composite dimension)"
        )
    if out is None and not emit:
        return
    if s is None:
        if not prime:
            raise ValueError("--s is required for composite dimensions")
        s = bound

    rho = werner_density(WernerSpec(p, n, s))
    dec = werner_separable_decomposition(p, n, s) if emit else None
    if dec is not None and not (result := verify_decomposition(dec, rho, tol)):
        raise VerificationError(f"decomposition failed verification: {result.failure}")
    if dec is not None:
        write_decomposition_file(emit, dec)
    if out is not None:
        try:
            _emit_document(density_document(rho.matrix, rho.dims), out)
        except OSError:
            # A failed run leaves no output: the decomposition file goes too.
            if dec is not None:
                Path(emit).unlink(missing_ok=True)
            raise
    if dec is not None:
        print(f"wrote {emit} ({len(dec.weights)} terms, verified)")


def cmd_permute(args, tol: Tolerance) -> None:
    matrix, dims = read_density_file(args.input)
    sigma = _parse_int_list(args.sigma, "--sigma")
    out = reorder_subsystems(matrix, dims, sigma)
    _refuse_non_finite(args.input, matrix, out)
    _emit_document(density_document(out, permute_dims(dims, sigma)), args.output)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``spinsep`` parser, built once per process; ``main`` only calls ``parse_args``."""
    parser = argparse.ArgumentParser(
        prog="spinsep",
        description="Spin-basis transforms and separability certificates for density matrices.",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"override the absolute tolerance, from {MIN_TOL:.2g} to {MAX_TOL:.2g} "
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
    p_tr.add_argument("--direction", choices=("to-spin", "from-spin"), default="to-spin")
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
    if not (MIN_TOL <= value <= MAX_TOL):
        raise ValueError(
            f"--tol must be finite, at least {MIN_TOL:.3g} and at most {MAX_TOL:.3g}, got {value!r}"
        )
    return Tolerance(value)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = _tolerance(args.tol)
        # Refused before any work: "" would be taken as no file, or written as the directory ".".
        for flag in ("--output", "--emit-decomposition"):
            if getattr(args, flag[2:].replace("-", "_"), None) == "":
                raise ValueError(f"{flag} is an empty path")
        args.func(args, tol)
    except FileFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except InvalidDensityError as err:
        print(f"error: invalid density: {err}", file=sys.stderr)
        return EXIT_INVALID_DENSITY
    except (ValueError, OSError, OverflowError, VerificationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SEMANTIC
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_SEMANTIC
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
