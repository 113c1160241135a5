"""Quantum Serre duality: dual twisting data, the sector-wise root-of-unity
operator M, the Novikov sign twist, and genus-0 cone consistency checks.

The dual of (c, F) is (c^dual, F^dual) with s^dual_k = (-1)^(k+1) s_k and the
eigen data reflected through l -> r_i - l with Chern characters negated in
odd degrees; then c^dual(F^dual) = 1/c(F) and the loop operators log Delta
agree on the nose.  The Euler-class version carries an extra phase
s_0^* = -s_0 - pi*sqrt(-1), recorded as the cyclotomic factor zeta_2 beside
the s-list rather than as an additive symbol.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import CyclotomicOrderTooSmall
from .exactalg import SCALAR_ONE, Scalar, deg_pairing, root_of_unity, sc, zero_deg
from .givental import GiventalElement
from .loopops import _log_delta_and_delta, class_Am, euler_s_values
from .orbtarget import BundleModel, CohClass, TargetModel

Frac = Fraction


def dual_s_values(s_values: Sequence[Scalar]) -> List[Scalar]:
    """s^dual_k = (-1)^(k+1) s_k."""
    return [sc(x) if k % 2 else -sc(x) for k, x in enumerate(s_values)]


def euler_dual_s_values(kmax: int, include_log: bool = True):
    """The e^{-1}-type list: s*_k = (-1)^(k+1) s_k for k > 0 and
    s*_0 = -s_0 - pi sqrt(-1).  The -pi sqrt(-1) shift cannot live in the
    scalar ring additively; it is returned separately as the multiplicative
    phase zeta_2 it generates under exp."""
    s = dual_s_values(euler_s_values(kmax, include_log=include_log))
    phase = root_of_unity(2, 1)
    return s, phase


def dual_bundle(F: BundleModel) -> BundleModel:
    """F^dual: eigen index l -> r_i - l, odd Chern characters negated."""
    t = F.target
    eigen: Dict[Tuple[str, int], CohClass] = {}
    for (cid, l), cls in F.eigen.items():
        comp = t.by_id[cid]
        l_new = 0 if l == 0 else comp.r - l
        negated = t.zero_class()
        for k in range(comp.dim + 1):
            part = cls.degree_part(2 * k)
            if not part.is_zero:
                negated = negated + (part if k % 2 == 0 else part.scale(sc(-1)))
        key = (cid, l_new)
        eigen[key] = eigen.get(key, t.zero_class()) + negated
    lines = None
    if F.lines is not None:
        lines = [(tuple(-x for x in pair), cls.scale(sc(-1))) for (pair, cls) in F.lines]
    return BundleModel(F.name + "_dual", t, eigen, pulled_back=F.pulled_back,
                       c1_pairing=tuple(-x for x in F.c1_pairing), lines=lines)


def dual_variable_map(t: TargetModel, F: BundleModel, s_values: Sequence[Scalar],
                      tvec: GiventalElement) -> GiventalElement:
    """t^dual(z) = c((q^*F)^inv) t(z) + (1_0 - c((q^*F)^inv) 1_0) z.

    The dilaton shift z sits on the untwisted unit 1_0 only (as in the sample
    points ``check_serre_cone`` reads), so the correction is the
    untwisted-sector part of 1 - c.
    """
    tw = F.twist_class([sc(x) for x in s_values])
    out = tvec.mul_class(tw)
    if out.zmax < 1:
        out = out.copy_window(out.zmin, 1, out.dmax)
    one_minus = (t.unit_everywhere() - tw).mul(t.unit())
    if not one_minus.is_zero:
        out.add_to(1, zero_deg(t.curve_rank), one_minus)
    return out


def serre_M_operator(t: TargetModel, F: BundleModel) -> CohClass:
    """The multiplier (-1)^(rank F_i^mov / 2 - age(F_i)) per component.

    Fractional exponents p/q become zeta_{2q}^p.  The moving rank
    sum_{l>0} rank F_i^(l) and the age sum_{l>0} (l/r_i) rank F_i^(l) of
    every component are summed in one pass over the nonzero eigenbundles.
    """
    moving = {comp.cid: Frac(0) for comp in t.components}
    age = dict(moving)
    for cid, l in F.eigen:
        if l:
            rank = F.eigen_rank(cid, l)
            moving[cid] += rank
            age[cid] += Frac(l, t.by_id[cid].r) * rank
    terms = {}
    for comp in t.components:
        e = moving[comp.cid] / 2 - age[comp.cid]
        q = e.denominator
        if q == 1:
            val = SCALAR_ONE if e.numerator % 2 == 0 else sc(-1)
        else:
            val = root_of_unity(2 * q, e.numerator % (2 * q))
        terms[(comp.cid, 0)] = val
    return CohClass(t, terms)


def novikov_sign_twist(series, F: BundleModel):
    """Q^d -> (-1)^{<ch_1(F), d>} Q^d on any WindowedSeries."""
    def sign(d) -> int:
        val = deg_pairing(F.c1_pairing, d)
        if val.denominator != 1:
            raise CyclotomicOrderTooSmall(
                f"<c1(F), {d}> = {val} is not an integer; the sign twist is undefined")
        return -1 if int(val) % 2 else 1

    return series.map(lambda n, d, c: c if sign(d) == 1 else -c)


# -- structural identities ---------------------------------------------------------


def dual_am_identity_report(t: TargetModel, F: BundleModel, mmax: int) -> dict:
    """For m != 1: (A_m)^dual_h = (-1)^(m+h) (A_m)_h; for m = 1 the B_1(0)
    anomaly cancels against ch(F^{dual,(0)})/2."""
    Fd = dual_bundle(F)
    bad = []
    for m in range(0, mmax + 1):
        if m == 1:
            lhs = class_Am(t, Fd, 1) + Fd.invariant_part().scale(sc(Frac(1, 2)))
            base = class_Am(t, F, 1) + F.invariant_part().scale(sc(Frac(1, 2)))
        else:
            lhs = class_Am(t, Fd, m)
            base = class_Am(t, F, m)
        for h in range(t.dim + 1):
            want = base.degree_part(2 * h).scale(sc((-1) ** ((m + h) % 2)))
            if lhs.degree_part(2 * h) != want:
                bad.append({"m": m, "h": h})
    return {"ok": not bad, "mmax": mmax, "violations": bad}


def check_serre_cone(t: TargetModel, F: BundleModel, s_values: Sequence[Scalar],
                     zmax: int) -> dict:
    """Genus-0 cone-level consistency of the duality.

    (1) log Delta(F^dual, s^dual) = log Delta(F, s) blockwise (the eigen-sum
        identity), hence Delta^dual = Delta and both cones agree;
    (2) c^dual(F^dual) c(F) = 1 as classes;
    (3) on a sample point x of the cone, reading the positive part through the
        two twisted dilaton shifts produces t and t^dual related by
        dual_variable_map (the conjugation by sqrt(c) transports one picture
        to the other).
    """
    s = [sc(x) for x in s_values]
    sd = dual_s_values(s)
    Fd = dual_bundle(F)
    depth = t.dim + 1
    L, D = _log_delta_and_delta(t, F, s, zmax, zmax + depth)
    Ld, Dd = _log_delta_and_delta(t, Fd, sd, zmax, zmax + depth)
    log_resid = _differing_blocks(L, Ld, min(L.zmin, Ld.zmin), zmax)
    delta_resid = _differing_blocks(D, Dd, D.zmin, zmax)
    tw = F.twist_class(s)
    twd = Fd.twist_class(sd)
    cc_one = tw.mul(twd) == t.unit_everywhere()
    # 1/sqrt(c) = exp(-(1/2) sum_k s_k ch_k): the twist class of -s/2
    inv_root = F.twist_class([x * sc(Frac(-1, 2)) for x in s])
    inv_root_dual = Fd.twist_class([x * sc(Frac(-1, 2)) for x in sd])
    x = _default_sample(t)
    t_read = _read_t(t, x, inv_root)
    t_dual_read = _read_t(t, x, inv_root_dual)
    expected = dual_variable_map(t, F, s, t_read)
    affine_ok = _positive_parts_equal(t_dual_read, expected)
    return {
        "log_blocks_equal": not log_resid,
        "delta_blocks_equal": not delta_resid,
        "dual_class_inverse": cc_one,
        "affine_map_consistent": affine_ok,
        "checked_zmax": zmax,
        "offending_log_blocks": log_resid,
        "offending_delta_blocks": delta_resid,
        "ok": not log_resid and not delta_resid and cc_one and affine_ok,
    }


def _default_sample(t: TargetModel) -> GiventalElement:
    """A normal-form-headed sample point: z + t + phi/z tail."""
    e = GiventalElement(t, -2, 1, 0)
    d0 = zero_deg(t.curve_rank)
    e.add_to(1, d0, t.unit())
    head = t.zero_class()
    tail = t.zero_class()
    for i, (cid, idx) in enumerate(t.flat_basis):
        head = head + CohClass(t, {(cid, idx): sc(Frac(i + 1, 3))})
        tail = tail + CohClass(t, {(cid, idx): sc(Frac(2 * i - 1, 5))})
    e.add_to(0, d0, head)
    e.add_to(-1, d0, tail)
    return e


def _differing_blocks(A, B, lo: int, hi: int) -> List[int]:
    """The z-powers in [lo, hi] where two loop operators' multiplier classes differ."""
    return [n for n in range(lo, hi + 1) if A.get(n, ()) != B.get(n, ())]


def _read_t(t: TargetModel, x: GiventalElement, inv_root: CohClass) -> GiventalElement:
    """t(z) = [x / sqrt(c)]_+ + 1z: undo a twisted dilaton shift, given 1/sqrt(c)."""
    scaled = x.mul_class(inv_root)
    d0 = zero_deg(t.curve_rank)
    out = scaled.copy_window(0, max(1, scaled.zmax), scaled.dmax)
    out.add_to(1, d0, t.unit())
    return out


def _positive_parts_equal(a: GiventalElement, b: GiventalElement) -> bool:
    """Whether a and b agree at every z^n, 0 <= n <= min(a.zmax, b.zmax)."""
    hi, dmax = min(a.zmax, b.zmax), max(a.dmax, b.dmax)
    return a.copy_window(0, hi, dmax) == b.copy_window(0, hi, dmax)
