"""Unextendible maximally entangled bases: construction, certification,
complement-channel analysis, and mutual-unbiasedness checks."""

from .bases import (
    BasisSet,
    C3_UNBIASED,
    CertificateReport,
    build_c23_first,
    build_c23_second,
    build_weyl_umeb,
    complement_projector,
    gram_matrix,
    overlap_constraint_matrix,
    support_rank_certificate,
)
from .channel import ChannelReport, analyze
from .errors import ContractViolationError, FileFormatError, NumericalFailureError
from .fileio import load_basis, load_state, save_basis, save_state
from .linalg import svd
from .mub import OverlapReport, overlap_matrix
from .search import (
    SearchConfig,
    SearchResult,
    certify,
    max_entanglement_in_subspace,
)
from .states import (
    BipartiteState,
    SchmidtDecomposition,
    apply_local,
    is_maximally_entangled,
    reshape_to_matrix,
    schmidt,
    schmidt_rank,
    standard_mes,
    weyl_operator,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSet",
    "BipartiteState",
    "C3_UNBIASED",
    "CertificateReport",
    "ChannelReport",
    "ContractViolationError",
    "FileFormatError",
    "NumericalFailureError",
    "OverlapReport",
    "SchmidtDecomposition",
    "SearchConfig",
    "SearchResult",
    "analyze",
    "apply_local",
    "build_c23_first",
    "build_c23_second",
    "build_weyl_umeb",
    "certify",
    "complement_projector",
    "gram_matrix",
    "is_maximally_entangled",
    "load_basis",
    "load_state",
    "max_entanglement_in_subspace",
    "overlap_constraint_matrix",
    "overlap_matrix",
    "reshape_to_matrix",
    "save_basis",
    "save_state",
    "schmidt",
    "schmidt_rank",
    "standard_mes",
    "support_rank_certificate",
    "svd",
    "weyl_operator",
]
