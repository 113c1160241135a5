"""Genus-zero machinery: J-functions, quantum Lefschetz, correlator checks."""

from .correlators import (
    CorrelatorTable,
    build_point_table,
    check_universal_equation,
    point_correlators,
)
from .jfunction import JFunction, j_closed_form_Pn, load_j_function
from .lefschetz import (
    extract_invariants,
    hypergeometric_modification,
    mirror_map,
    nonequivariant_limit,
    novikov_scale,
    quintic_pipeline,
    small_expansion,
)

__all__ = [
    "CorrelatorTable",
    "point_correlators",
    "build_point_table",
    "check_universal_equation",
    "JFunction",
    "j_closed_form_Pn",
    "load_j_function",
    "hypergeometric_modification",
    "small_expansion",
    "mirror_map",
    "nonequivariant_limit",
    "novikov_scale",
    "extract_invariants",
    "quintic_pipeline",
]
