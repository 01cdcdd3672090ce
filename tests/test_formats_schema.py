"""The goldens, the writers' output and the CLI's basis document validate
against docs/formats.schema.json."""

import json
from pathlib import Path

import pytest

from spinsep import (
    DimVector,
    random_density,
    sufficient_certificate,
    to_spin,
    werner_separable_decomposition,
)
from spinsep.cli import main
from spinsep.io import write_decomposition_file, write_density_file

from conftest import mixed_to_norm
from reference_io import coefficients_document

jsonschema = pytest.importorskip("jsonschema")

DOCS = Path(__file__).resolve().parent.parent / "docs"


@pytest.fixture(scope="module")
def validator():
    schema = json.loads((DOCS / "formats.schema.json").read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


@pytest.mark.parametrize("name", sorted(p.name for p in (DOCS / "examples").glob("*.json")))
def test_golden_file(validator, name):
    validator.validate(json.loads((DOCS / "examples" / name).read_text()))


def test_written_files_and_coefficients_document(validator, tmp_path, rng):
    dims = DimVector((2, 3))
    rho = random_density(dims, rng)
    write_density_file(tmp_path / "rho.json", rho.matrix, dims)
    witness = sufficient_certificate(mixed_to_norm(dims, 0.9, rng)).witness
    write_decomposition_file(tmp_path / "witness.json", witness)
    write_decomposition_file(tmp_path / "werner.json", werner_separable_decomposition(3, 2))
    docs = [json.loads(p.read_text()) for p in sorted(tmp_path.iterdir())]
    assert all(len(doc["terms"]) > 1 for doc in docs[1:])
    for doc in [*docs, coefficients_document(to_spin(rho))]:
        validator.validate(doc)
    assert not validator.is_valid({**docs[0], "format_version": True})


@pytest.mark.parametrize("argv", [["--d", "3"], ["--dims", "2,3", "--label", "5,4"]], ids=str)
def test_cli_basis_document(validator, argv, tmp_path, capsys):
    assert main(["basis", *argv, "--output", str(tmp_path / "basis.json")]) == 0
    doc = json.loads((tmp_path / "basis.json").read_text())
    validator.validate(doc)
    assert not validator.is_valid({**doc, "matrices": [{"j": 0, "matrix": [[[1.0, 0.0]]]}]})
