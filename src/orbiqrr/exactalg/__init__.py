"""Exact scalar and truncated-series arithmetic.

Scalars are finite sums of monomials c l^i lambda^e over Q(zeta_N), with
e rational and l = ln(lambda) a formal symbol; series are z-Laurent polynomials over a
truncated Novikov ring with Scalar coefficients.  Everything is immutable after construction and pure.
"""

from .cyclotomic import Cyc, cyclotomic_poly
from .scalar import (
    SCALAR_ONE,
    SCALAR_ZERO,
    Scalar,
    parse_scalar,
    root_of_unity,
    sc,
)
from .series import (Deg, TruncSeries, WindowedSeries, deg_add, deg_from_json, deg_pairing,
                     deg_splits, series_invert, window_product, zero_deg)

__all__ = [
    "Cyc",
    "cyclotomic_poly",
    "Scalar",
    "SCALAR_ZERO",
    "SCALAR_ONE",
    "sc",
    "root_of_unity",
    "parse_scalar",
    "TruncSeries",
    "WindowedSeries",
    "window_product",
    "series_invert",
    "Deg",
    "deg_add",
    "deg_pairing",
    "deg_splits",
    "deg_from_json",
    "zero_deg",
]
