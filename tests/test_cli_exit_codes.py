"""Every command line ends in a documented exit code: a property over
generated argv for all five subcommands, run through ``spinsep.cli.main``.

The argv mix valid and broken values: huge integers, NaN, infinities,
-0.0, malformed lists, missing, unreadable and directory paths, and --tol
outside its range.  Whatever the argv, the run exits 0, 2, 3 or 4 without
a traceback; a non-zero exit prints one ``error:`` line, or argparse's
usage for exit 2; and a failure leaves no output file.  Every case stays
small: basis at N <= 8, werner output only for p^n <= 64."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep import DimVector, WernerSpec, to_spin, werner_density
from spinsep.cli import main
from spinsep.io import document_text

from reference_io import coefficients_document, density_document

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "examples"

HUGE = [10**30, -(10**30), 2**63, 2**64 + 1, 2**61 - 1, 2**89 - 1]
FLOATS = ["nan", "NaN", "inf", "-inf", "-0.0", "1e999", "1e-320", "0x10", "", "abc"]
TOLS = ["1e-9", "1e-6", "2.2e-16", "1e-17", "0.01", "0.02", "0", *FLOATS]
LISTS = ["", ",", "2,", ",2", "2,,2", "a,b", "2.0,2", "1e1", " 2 , 2 ", "2;2", f"{10**30},2"]


def _text(doc) -> str:
    return json.dumps(doc, allow_nan=True)


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    """Input files by name; "missing" and "directory" name no readable file."""
    root = tmp_path_factory.mktemp("inputs")
    separable = werner_density(WernerSpec(2, 2, 0.3))
    entangled = werner_density(WernerSpec(2, 2, 0.9))
    nan = density_document(separable.matrix, separable.dims)
    nan["matrix"][1][2][0] = math.nan
    huge = density_document(1e308 * np.eye(4), DimVector((2, 2)))
    skew = density_document(np.triu(np.ones((4, 4))) / 4, DimVector((2, 2)))
    texts = {
        "separable": document_text(density_document(separable.matrix, separable.dims)),
        "entangled": document_text(density_document(entangled.matrix, entangled.dims)),
        "single": document_text(density_document(np.eye(4) / 4, DimVector((4,)))),
        "coefficients": document_text(coefficients_document(to_spin(separable))),
        "nan": _text(nan),
        "huge": _text(huge),
        "skew": _text(skew),
        "truncated": '{"format_version": 1, "dims": [2',
        "empty": "",
        "null": "null",
        "list": "[]",
        "header-only": '{"format_version": 1, "dims": [2, 2]}',
        "decomposition": (GOLDEN / "werner_2qubit_third.decomposition.json").read_text(),
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    paths["binary"] = root / "binary.json"
    paths["binary"].write_bytes(b"\xff\xfe\x00{")
    paths["missing"] = root / "missing.json"
    paths["directory"] = root
    return {name: str(path) for name, path in paths.items()}


INPUTS = [
    "separable", "entangled", "single", "coefficients", "nan", "huge", "skew", "truncated",
    "empty", "null", "list", "header-only", "decomposition", "binary", "missing", "directory",
]  # fmt: skip
# An output flag names a fresh file, a directory, or a file in a missing directory.
OUTPUTS = ["fresh", "fresh", "fresh", "directory", "missing-parent"]


def ints():
    small = st.integers(-3, 9).map(str)
    return st.one_of(small, st.sampled_from(HUGE).map(str), st.sampled_from(FLOATS))


def maybe(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def outputs(flag):
    return st.one_of(st.just([]), st.sampled_from(OUTPUTS).map(lambda v: [flag, f"@{v}"]))


def inputs():
    return st.sampled_from(INPUTS).map(lambda v: ["--input", f"<{v}"])


def flags(*names):
    return st.lists(st.sampled_from(names), unique=True).map(list)


@st.composite
def basis_argv(draw):
    # N <= 8 whenever the dims parse: a huge positive d would list N^2 labels.
    dims = st.sampled_from(["2", "2,2", "2,3", "2,2,2", "4,2", "8", "0", "1,2", "-2,2"])
    choice = draw(st.sampled_from(["d", "dims", "both", "neither"]))
    argv = ["basis"]
    if choice in ("d", "both"):
        d = st.one_of(st.integers(-3, 8).map(str), st.just(str(-(10**30))), st.sampled_from(FLOATS))
        argv += ["--d", draw(d)]
    if choice in ("dims", "both"):
        argv += ["--dims", draw(st.one_of(dims, st.sampled_from(LISTS[:-1])))]
    labels = ["0,0", "1,3", "7,7", "8,0", "-1,0", "0", "0,0,0", f"{10**30},0", "nan,0"]
    argv += draw(maybe("--label", st.sampled_from(labels + LISTS)))
    return argv + draw(outputs("--output"))


@st.composite
def transform_argv(draw):
    argv = ["transform", *draw(inputs())]
    argv += draw(maybe("--direction", st.sampled_from(["to-spin", "from-spin", "sideways"])))
    argv += draw(flags("--strict"))
    return argv + draw(outputs("--output"))


@st.composite
def certify_argv(draw):
    argv = ["certify", *draw(inputs())]
    argv += draw(flags("--necessary", "--peres", "--sufficient", "--all", "--json"))
    return argv + draw(outputs("--emit-decomposition"))


@st.composite
def werner_argv(draw):
    # Most draws are small enough for output flags.
    p, n = (draw(st.sampled_from(["2", "3", "2", "3", ""])) or draw(ints()) for _ in "pn")
    argv = ["werner", "--p", p, "--n", n]
    values = ["0", "0.3", "0.3333333333333333", "0.2", "1", "1.5", "-0.5", *FLOATS]
    argv += draw(maybe("--s", st.sampled_from(values)))
    numbers = [int(v) for v in (p, n) if v.lstrip("-").isdigit() and abs(int(v)) < 10]
    if len(numbers) == 2 and min(numbers) >= 2 and numbers[0] ** numbers[1] <= 64:
        for flag in ("--output", "--emit-decomposition"):
            output = draw(st.sampled_from([None, *OUTPUTS]))
            argv += [] if output is None else [flag, f"@{output}"]
    return argv


@st.composite
def permute_argv(draw):
    sigmas = ["1,2", "2,1", "1", "1,1", "0,1", "3,1", "1,2,3", "-1,2", f"{10**30},1", *LISTS]
    return ["permute", *draw(inputs()), "--sigma", draw(st.sampled_from(sigmas))] + draw(
        outputs("--output")
    )


@st.composite
def argvs(draw):
    argv = draw(st.one_of(basis_argv(), transform_argv(), certify_argv(), werner_argv(), permute_argv()))
    tol = draw(maybe("--tol", st.sampled_from(TOLS)))
    # Now and then a token argparse refuses, or a required option dropped.
    damage = draw(st.sampled_from([None] * 8 + ["unknown", "drop"]))
    if damage == "unknown":
        argv = argv + ["--bogus"]
    elif damage == "drop" and len(argv) > 2:
        argv = argv[:1] + argv[3:]
    return tol + argv


def resolve(argv, pool, out_dir):
    """The argv with its input and output placeholders as paths, and the
    output paths that do not exist yet."""
    resolved, written = [], []
    for token in argv:
        if token.startswith("<"):
            token = pool[token[1:]]
        elif token.startswith("@"):
            token = {
                "fresh": str(out_dir / f"out{len(written)}.json"),
                "directory": str(out_dir),
                "missing-parent": str(out_dir / "absent" / "out.json"),
            }[token[1:]]
            written.append(Path(token))
        resolved.append(token)
    return resolved, [path for path in written if not path.exists()]


@settings(max_examples=400, deadline=None)
@given(argv=argvs())
def test_every_command_line_exits_with_a_documented_code(pool, argv):
    with tempfile.TemporaryDirectory() as tmp:
        resolved, fresh = resolve(argv, pool, Path(tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(resolved)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (0, 2, 3, 4), (resolved, code, err)
        assert "Traceback" not in err
        if code:
            usage = code == 2 and err.startswith("usage: ")
            one_error = err.startswith("error: ") and err.count("\n") == 1
            assert usage or one_error, (resolved, code, err)
            assert not [path for path in fresh if path.exists()], (resolved, code, err)
