"""Targets, bundles, and orbifold cohomology classes."""

from .builders import (
    bmu,
    bmu_character,
    point,
    projective_space,
    trivial_bundle,
    weighted_projective,
    wps_pullback_line,
)
from .config import dump_target, load_target, target_from_obj, target_to_obj
from .model import (
    BasisClass,
    BundleModel,
    CohClass,
    Component,
    TargetModel,
    graded_exp,
)

__all__ = [
    "BasisClass",
    "Component",
    "TargetModel",
    "CohClass",
    "graded_exp",
    "BundleModel",
    "point",
    "bmu",
    "projective_space",
    "weighted_projective",
    "trivial_bundle",
    "bmu_character",
    "wps_pullback_line",
    "load_target",
    "dump_target",
    "target_to_obj",
    "target_from_obj",
]
