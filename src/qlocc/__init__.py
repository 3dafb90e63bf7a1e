"""Multi-copy adaptive local discrimination of two-qubit orthonormal bases.

The package decides how many copies of an unknown state (one, two or three)
are needed to identify it perfectly with local operations and classical
communication, or with separable operations, when the state is drawn
uniformly from a known four-state orthonormal basis; it also builds and
executes the discrimination protocols themselves and demonstrates the
secret-sharing schemes the three-copy bases enable.
"""

from .classify import (
    ClassificationReport,
    DegenerateFamilyError,
    LoccCategory,
    Region,
    analyze,
    duan_three_state_sep,
    gamma_star,
    locc_category,
    min_copies_adaptive_locc,
    min_copies_adaptive_sep,
    region,
    report_to_dict,
    report_to_json,
)
from .entanglement import (
    ProductDecomposition,
    SeparabilityCertificate,
    concurrence,
    pair_projector,
    product_decomposition,
    pt_spectrum_cross_closed,
    pt_spectrum_p12_closed,
    separability_certificate,
)
from .linalg import hermitian_eigenvalues, partial_transpose, tensor
from .protocols import (
    LocalMeasurement,
    MalformedProtocolError,
    NotOrthogonalError,
    ProtocolTree,
    RunOutcome,
    bell_grouping_protocol,
    elimination_tournament,
    exact_success_probability,
    protocol_from_json,
    protocol_to_json,
    sample_run,
    sample_runs,
    success_probabilities,
    walgate_pair_protocol,
)
from .secretshare import (
    IntegrityError,
    MixedShare,
    ShareSet,
    StrongPairShares,
    decode_full_collaboration,
    encode_2bit,
    strong_pair_shares,
)
from .states import (
    BipartiteKet,
    FamilyParams,
    NotOrthonormalError,
    OrthonormalBasis,
    a_basis,
    basis_from_json,
    basis_to_json,
    coefficient_matrix,
    theta_basis,
    validate_basis,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteKet",
    "ClassificationReport",
    "DegenerateFamilyError",
    "FamilyParams",
    "IntegrityError",
    "LocalMeasurement",
    "LoccCategory",
    "MalformedProtocolError",
    "MixedShare",
    "NotOrthogonalError",
    "NotOrthonormalError",
    "OrthonormalBasis",
    "ProductDecomposition",
    "ProtocolTree",
    "Region",
    "RunOutcome",
    "SeparabilityCertificate",
    "ShareSet",
    "StrongPairShares",
    "a_basis",
    "analyze",
    "basis_from_json",
    "basis_to_json",
    "bell_grouping_protocol",
    "coefficient_matrix",
    "concurrence",
    "decode_full_collaboration",
    "duan_three_state_sep",
    "elimination_tournament",
    "encode_2bit",
    "exact_success_probability",
    "gamma_star",
    "hermitian_eigenvalues",
    "locc_category",
    "min_copies_adaptive_locc",
    "min_copies_adaptive_sep",
    "pair_projector",
    "partial_transpose",
    "product_decomposition",
    "protocol_from_json",
    "protocol_to_json",
    "pt_spectrum_cross_closed",
    "pt_spectrum_p12_closed",
    "region",
    "report_to_dict",
    "report_to_json",
    "sample_run",
    "sample_runs",
    "separability_certificate",
    "strong_pair_shares",
    "success_probabilities",
    "tensor",
    "theta_basis",
    "validate_basis",
    "walgate_pair_protocol",
]
