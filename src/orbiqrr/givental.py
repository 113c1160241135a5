"""The symplectic space of cohomology-valued z-Laurent series at finite truncation.

Elements are WindowedSeries (exactalg/series.py, which states the window
rule) with CohClass coefficients keyed (z-exponent, Novikov degree).  The
symplectic form is the residue pairing
Omega(f, g) = Res_{z=0} (f(-z), g(z))_orb dz, and raises TruncationTooNarrow
when the windows cannot certify all potentially contributing cross terms.

Darboux coordinates are read off the polarization, never materialized: the
q-part is the z >= 0 slice, and p_k = (-1)^(k+1) * (coefficient of z^(-k-1)).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .errors import NonUnitTwist, TruncationTooNarrow
from .exactalg import SCALAR_ZERO, Deg, Scalar, WindowedSeries, sc, zero_deg
from .orbtarget import BundleModel, CohClass, TargetModel


class GiventalElement(WindowedSeries):
    """A WindowedSeries over the CohClass ring of ``target``."""

    __slots__ = ("target",)

    def __init__(self, target: TargetModel, zmin: int, zmax: int, dmax: int,
                 data: Optional[Dict[Tuple[int, Deg], CohClass]] = None):
        self.target = target
        super().__init__(zmin, zmax, dmax, data)

    # perfbench/tracing.py counts calls by patching GiventalElement.__dict__["add_to"],
    # so this class owns the name
    add_to = WindowedSeries.add_to

    def _empty(self, zmin: int, zmax: int, dmax: int) -> "GiventalElement":
        return GiventalElement(self.target, zmin, zmax, dmax)

    def zero(self) -> CohClass:
        return self.target.zero_class()

    @staticmethod
    def _times(cls: CohClass, s: Scalar) -> CohClass:
        return cls.scale(s)

    def mul_class(self, cls: CohClass) -> "GiventalElement":
        """Multiply by a z-free, Novikov-free class (ordinary componentwise product)."""
        return self.map(lambda n, d, c: c.mul(cls))

    def __eq__(self, o) -> bool:
        if not isinstance(o, GiventalElement):
            return NotImplemented
        return (self - o).is_zero

    # -- polarization views

    def q_part(self, k: int) -> CohClass:
        """Coefficient q_k: the z^k slice at Novikov degree 0, k >= 0."""
        return self.get(k, zero_deg(self.rank))

    @property
    def rank(self) -> int:
        """The Novikov rank: the length of a stored degree, else the target's curve rank."""
        for (_n, d) in self.data:
            return len(d)
        return self.target.curve_rank

    def p_part(self, k: int) -> CohClass:
        """Darboux p_k = (-1)^(k+1) * coefficient of z^(-k-1) at Novikov degree 0."""
        cls = self.get(-k - 1, zero_deg(self.rank))
        return cls.scale(sc((-1) ** (k + 1)))


def element_from_class(t: TargetModel, cls: CohClass, zpow: int = 0,
                       zmin: int = -4, zmax: int = 4, dmax: int = 0,
                       rank: Optional[int] = None) -> GiventalElement:
    rank = t.curve_rank if rank is None else rank
    e = GiventalElement(t, zmin, zmax, dmax)
    if not cls.is_zero:
        e.set(zpow, zero_deg(rank), cls)
    return e


def symplectic_form(t: TargetModel, f: GiventalElement, g: GiventalElement) -> Scalar:
    """Omega(f, g) = sum_{m+n=-1} (-1)^m (f_m, g_n)_orb, over matching Novikov degrees.

    Cross terms live at pairs (m, -1-m) with m in [f.zmin, -1-g.zmin]; raises
    TruncationTooNarrow unless both windows cover that whole range.
    """
    lo, hi = f.zmin, -1 - g.zmin
    if lo > hi:
        return SCALAR_ZERO
    if hi > f.zmax:
        raise TruncationTooNarrow(
            f"residue needs f up to z^{hi} but window stops at z^{f.zmax}")
    if -1 - lo > g.zmax:
        raise TruncationTooNarrow(
            f"residue needs g up to z^{-1 - lo} but window stops at z^{g.zmax}")
    out = SCALAR_ZERO
    for (m, _d1), cls1 in f.data.items():
        for (n, _d2), cls2 in g.data.items():
            if m + n != -1:
                continue
            val = t.orbifold_pairing(cls1, cls2)
            if not val.is_zero:
                out = out + (val if m % 2 == 0 else -val)
    return out


def dilaton_shift(t: TargetModel, tvec: GiventalElement,
                  bundle: Optional[BundleModel] = None,
                  s_values: Optional[Sequence[Scalar]] = None) -> GiventalElement:
    """q(z) = t(z) - 1z, twisted to q(z) = sqrt(c((q^*F)^inv)) (t(z) - 1z).

    The square root is exp of half the log of the twist, so it exists exactly
    when the constant part exponentiates (s_0 in Q * ln lambda); a twisted
    shift under the Euler specialization introduces lambda^(1/2) factors,
    visible as lam_den == 2 on the scalars of the result.
    """
    zmax = max(tvec.zmax, 1)
    shifted = tvec.copy_window(tvec.zmin, zmax, tvec.dmax)
    shifted.add_to(1, zero_deg(tvec.rank), t.unit().scale(sc(-1)))
    if bundle is None or s_values is None:
        return shifted
    try:
        root = bundle.sqrt_twist_class([sc(x) for x in s_values])
    except Exception as e:
        raise NonUnitTwist(f"twist class has no square root: {e}")
    return shifted.mul_class(root)
