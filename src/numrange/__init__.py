"""Numerical ranges of complex matrices.

Boundary geometry and support functions, pre-images of extreme points,
the constructive birth of flat boundary portions, the complete shape
classification of 3x3 matrices with closure witnesses, and the
maximum-entropy inference map with its discontinuity probe.
"""

from .birth import BirthFamily, BirthRow, birth_family, default_H, verify_birth
from .errors import MatrixFileError, NumericalError, PreconditionError
from .extremal import (
    ExtremePointReport,
    FaceDescriptor,
    FlatPortion,
    extreme_points,
    face,
    flat_portions,
    preimage,
    supporting_angle,
)
from .kipp3 import (
    CanonicalForm3,
    EllipticData,
    KippenhahnClassification,
    KippenhahnPolynomial,
    affine_transform,
    canonical_reducible_form,
    classify,
    e3_witness,
    elliptic_data,
    f3_witness,
    in_closure_E3,
    in_closure_F3,
    is_reducible3,
    kippenhahn_polynomial,
    m_alpha_beta,
    normal_eigenvalues,
)
from .matcore import Pencil, compress, f_eval, schur3
from .maxent import (
    InferenceResult,
    ProbeReport,
    discontinuity_probe,
    entropy,
    infer,
    maxent_boundary,
    maxent_interior,
    round_boundary_points,
)
from .oracle import SampleCloud, hull, oracle_gap, sample_hull, sample_range
from .rangegeo import (
    ConvexPolygon,
    EllipseParams,
    boundary_polygon,
    contains,
    hausdorff,
    range_converges,
    range_distance,
    range_gap,
)

__version__ = "0.1.0"

__all__ = [
    "BirthFamily",
    "BirthRow",
    "CanonicalForm3",
    "ConvexPolygon",
    "EllipseParams",
    "EllipticData",
    "ExtremePointReport",
    "FaceDescriptor",
    "FlatPortion",
    "InferenceResult",
    "KippenhahnClassification",
    "KippenhahnPolynomial",
    "MatrixFileError",
    "NumericalError",
    "Pencil",
    "PreconditionError",
    "ProbeReport",
    "SampleCloud",
    "affine_transform",
    "birth_family",
    "boundary_polygon",
    "canonical_reducible_form",
    "classify",
    "compress",
    "contains",
    "default_H",
    "discontinuity_probe",
    "e3_witness",
    "elliptic_data",
    "entropy",
    "extreme_points",
    "f3_witness",
    "f_eval",
    "face",
    "flat_portions",
    "hausdorff",
    "hull",
    "in_closure_E3",
    "in_closure_F3",
    "is_reducible3",
    "kippenhahn_polynomial",
    "m_alpha_beta",
    "infer",
    "maxent_boundary",
    "maxent_interior",
    "normal_eigenvalues",
    "oracle_gap",
    "preimage",
    "range_converges",
    "range_distance",
    "range_gap",
    "round_boundary_points",
    "sample_hull",
    "sample_range",
    "schur3",
    "supporting_angle",
    "verify_birth",
]
