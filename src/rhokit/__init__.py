"""Toolkit for the unitary freedom in density-matrix decompositions.

Builds purifications of weighted-ket ensembles, extracts the ensemble hiding
in any ancilla basis, converts between decompositions of one density matrix
with ancilla-side unitaries, constructs a decomposition around any chosen
support vector, and simulates the measurement that makes one decomposition
operationally visible without disturbing the system state.
"""

from .ensembles import (
    DensityMatrix,
    RhoEnsemble,
    densities_match,
    eigen_ensemble,
    ensemble_to_density,
    ensembles_equal,
    is_linearly_independent,
    validate_ensemble,
)
from .errors import (
    DensitiesDiffer,
    DimensionMismatch,
    DocumentError,
    InvalidArgument,
    InvalidEnsemble,
    NotHermitian,
    NotInSupport,
    NotNormalized,
    NotOrthonormal,
    NotOrthonormalBasis,
    NotUnitary,
    NumericalFailure,
    OrderExceedsAncillaDim,
    ResourceExhausted,
    RhokitError,
    TracesDiffer,
    WeightsNotNormalized,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    Ancilla,
    JointState,
    SchmidtForm,
    complete_orthonormal,
    eig_hermitian,
    partial_trace_m,
    schmidt_decompose,
    tensor_ket,
)
from .purification import (
    UMap,
    apply_unitary_umap,
    check_umap,
    ensemble_containing,
    ensemble_from_basis,
    lemma_unitary,
    match_purification,
    purify,
    umap_between,
)
from .steering import (
    SteeringReport,
    measure_ancilla,
    sample_outcomes,
    steer,
)

__version__ = "0.1.0"

__all__ = [
    "Ancilla",
    "DEFAULT_RANK_TOL",
    "DEFAULT_TOL",
    "DensitiesDiffer",
    "DensityMatrix",
    "DimensionMismatch",
    "DocumentError",
    "InvalidArgument",
    "InvalidEnsemble",
    "JointState",
    "NotHermitian",
    "NotInSupport",
    "NotNormalized",
    "NotOrthonormal",
    "NotOrthonormalBasis",
    "NotUnitary",
    "NumericalFailure",
    "OrderExceedsAncillaDim",
    "ResourceExhausted",
    "RhoEnsemble",
    "RhokitError",
    "SchmidtForm",
    "SteeringReport",
    "TracesDiffer",
    "UMap",
    "WeightsNotNormalized",
    "apply_unitary_umap",
    "check_umap",
    "complete_orthonormal",
    "densities_match",
    "eig_hermitian",
    "eigen_ensemble",
    "ensemble_containing",
    "ensemble_from_basis",
    "ensemble_to_density",
    "ensembles_equal",
    "is_linearly_independent",
    "lemma_unitary",
    "match_purification",
    "measure_ancilla",
    "partial_trace_m",
    "purify",
    "sample_outcomes",
    "schmidt_decompose",
    "steer",
    "tensor_ket",
    "umap_between",
    "validate_ensemble",
]
