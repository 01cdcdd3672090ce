"""Finite-Fourier spin bases for multipartite qudit systems, with
constructive separability certificates and Werner-family thresholds."""

from .composite import (
    DimVector,
    composite_spin,
    conjugate_by_permutation,
    decode,
    encode,
    permutation_matrix,
    permute_dims,
    reorder_subsystems,
)
from .decompositions import (
    ProductTerm,
    SeparableDecomposition,
    VerificationError,
    VerificationResult,
    verify_decomposition,
)
from .linalg import (
    DEFAULT_TOLERANCE,
    DensityMatrix,
    InvalidDensityError,
    NegativeEigenvalueError,
    NotHermitianError,
    Tolerance,
    TraceError,
    check_density,
    partial_transpose,
    random_density,
)
from .projections import (
    ProductProjectionSpec,
    ProjectionSpec,
    cyclic_family_decomposition,
    cyclic_family_density,
    expand_spin_power,
    m2_map,
    m3_map,
    product_projection,
    projection_from_diagonal,
    subgroup_projection,
    valid_generator,
)
from .separability import (
    INCONCLUSIVE,
    INSEPARABLE,
    SEPARABLE,
    CertificateReport,
    NecessaryViolation,
    NegativeEigenvalue,
    necessary_check,
    peres_check,
    sufficient_certificate,
)
from .spin import (
    SpinLabel,
    adjusted_basis,
    alpha,
    computational_basis,
    eta,
    fourier_matrix,
    spin_dagger,
    spin_matrix,
    spin_power,
)
from .transform import (
    SpinCoefficients,
    from_spin,
    spin_l1_norm,
    spin_table,
    to_spin,
)
from .werner import (
    WernerSpec,
    ind_set,
    is_prime,
    werner_density,
    werner_separable_decomposition,
    werner_spin_coeffs,
    werner_threshold,
)

__version__ = "0.1.0"
