"""Regenerate the golden example files under docs/examples/.

Deterministic; run from the repository root after changing the file
formats or the Werner construction.  ``main(out)`` writes to the
directory ``out`` instead; the test suite compares those bytes with the
committed files.
"""

from pathlib import Path

import numpy as np

from spinsep import DimVector, WernerSpec, werner_density, werner_separable_decomposition
from spinsep.cli import main as cli
from spinsep.io import write_decomposition_file, write_density_file

OUT = Path(__file__).resolve().parent.parent / "docs" / "examples"


def main(out=OUT) -> None:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)

    dims = DimVector((2, 2))
    write_density_file(out / "maximally_mixed_2x2.density.json", np.eye(4) / 4, dims)

    w = werner_density(WernerSpec(2, 2, 1 / 3))
    write_density_file(out / "werner_2qubit_third.density.json", w.matrix, w.dims)
    # The two kinds the CLI alone writes: a coefficient table and the spin basis.
    coefficients = out / "werner_2qubit_third.coefficients.json"
    cli(["transform", "--input", str(out / "werner_2qubit_third.density.json"),
         "--output", str(coefficients)])
    cli(["basis", "--d", "3", "--output", str(out / "spin_basis_d3.basis.json")])

    dec = werner_separable_decomposition(2, 2)
    write_decomposition_file(out / "werner_2qubit_third.decomposition.json", dec)

    print(f"wrote 5 golden files to {out}")


if __name__ == "__main__":
    main()
