"""Photon-added squeezed and circle-coherent states.

Constructs the states as truncated Fock-space coefficient vectors, evaluates
their closed-form normalizations and overlaps, and numerically certifies the
discrete and continuous resolutions of unity (including the underlying
power-moment problem and its Carleman uniqueness test).
"""

__version__ = "0.1.0"

from .fockstate import (
    CircleParam,
    FockVector,
    SqueezeParam,
    apply_lowering,
    apply_raising,
    csc,
    inner,
    pacsc,
    pasops,
    pasvs,
    sns,
)
from .overlap import (
    OverlapResult,
    csc_norm,
    pacsc_norm,
    pasops_norm,
    pasops_overlap,
    pasvs_norm,
    pasvs_overlap,
    sops_overlap,
    sv_overlap,
)
from .complete import (
    MomentReport,
    OperatorMatrix,
    WeightFunction,
    carleman_sequence,
    discrete_completeness_matrix,
    moment_check,
    pasvs_sns_matrix,
    radial_checks,
    sns_completeness_matrix,
    sns_pasvs_matrix,
    unity_resolution_matrix,
    weight_h,
    weight_h1m,
    weight_hmum,
)

__all__ = [
    "__version__",
    "SqueezeParam",
    "CircleParam",
    "FockVector",
    "pasvs",
    "pasops",
    "sns",
    "csc",
    "pacsc",
    "apply_raising",
    "apply_lowering",
    "inner",
    "OverlapResult",
    "sv_overlap",
    "sops_overlap",
    "pasvs_norm",
    "pasops_norm",
    "csc_norm",
    "pacsc_norm",
    "pasvs_overlap",
    "pasops_overlap",
    "WeightFunction",
    "MomentReport",
    "OperatorMatrix",
    "weight_h",
    "weight_h1m",
    "weight_hmum",
    "moment_check",
    "unity_resolution_matrix",
    "radial_checks",
    "pasvs_sns_matrix",
    "sns_pasvs_matrix",
    "discrete_completeness_matrix",
    "sns_completeness_matrix",
    "carleman_sequence",
]
