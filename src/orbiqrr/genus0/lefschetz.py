"""The quantum Lefschetz pipeline: hypergeometric modification, small-space
expansion, mirror map, nonequivariant limit, and hypersurface invariant
extraction.

The modification multiplies each degree slice J_d by the finite products
prod_j prod_{k=1..s_j} (lambda + rho_j + k z), s_j = <rho_j, d>, each through
the two-stage hypergeometric factor kernel of ``jfunction`` (rows rho^i c,
then their weights) with e = 1, the kernel that also builds the J-function
of P^n.  The nonequivariant pipelines (mirror map, invariants, the
nonequivariant I-function) take the limit first: they set lambda = 0 in J
and in every factor, (rho_j + k z), and never build the lambda-polynomials
that the limit would discard.  This is exact: evaluation at lambda = 0 is a
ring map on coefficients regular at 0, and an untwisted J carries no
lambda, because lambda is the weight of the fibre action on F; a J with
only rational coefficients is its own limit and is not copied.  They build
only the z-layers they read, z >= zmin: the full result cut by
``copy_window``, each line's cut lowered by the steps of the lines after it
(the default zmin = -inf cuts nothing).  The small-space expansion reads
I = z F + sum_k G^k gamma_k + O(1/z), with F and each G^k a Novikov
series.  The mirror map
divides by F once: J = I/F, re-validated against the normal form, and
tau = G/F is read off J's z^0 layer.  Only the layers z <= 0 are divided:
the small-space expansion has already shown that I's z^1 layer is F 1, so
J's is the unit at Q^0.  ``lefschetz_chain`` runs these steps on the
target, bundle and J it is given, for every pipeline.  Invariant
extraction strips e^{tau p / z}, unwinds the divisor flow e^{d tau} and
reads the one-point z^{-1} layer, for the pairs ``check_extractable`` alone
admits.  Both exponentials are the one
kernel ``orbtarget.graded_exp``, whose weight z^n Q^d x -> n + deg x + |d|
is >= 1 on every piece here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

from ..errors import (
    AssumptionViolated,
    BasisMismatch,
    LogObstruction,
    PoleAtZero,
    PositivityViolated,
    UnsupportedTarget,
)
from ..exactalg import (
    SCALAR_ONE,
    SCALAR_ZERO,
    Scalar,
    TruncSeries,
    deg_pairing,
    sc,
    series_invert,
    window_product,
    zero_deg,
)
from ..givental import GiventalElement
from ..orbtarget import BundleModel, CohClass, TargetModel, graded_exp, wps_pullback_line
from .jfunction import JFunction, _power_rows, _weigh_rows

Frac = Fraction
Slot = Tuple[str, int]


def hypergeometric_modification(t: TargetModel, F: BundleModel, J: JFunction,
                                nonequivariant: bool = False,
                                zmin: float = -math.inf) -> JFunction:
    """I_F: multiply J_d by prod_j prod_{k=1..s_j} (lambda + rho_j + kz), s_j = <rho_j, d>.

    Each line's product is one pass of the two-stage factor kernel
    (``jfunction._power_rows``, then ``jfunction._weigh_rows``) with e = 1
    and x = lambda + rho.

    With ``nonequivariant`` the result is the lambda -> 0 limit of I_F, taken
    first: J goes through ``nonequivariant_limit`` (J itself when it carries
    no lambda, as a closed-form J never does) and the kernel runs with
    lambda = 0, so only the lambda^0 terms remain.  This equals
    ``nonequivariant_limit`` of the equivariant result, window included,
    because evaluation at lambda = 0 is a ring map on coefficients regular
    at 0.  A J with a pole or a ln(lambda) term at lambda = 0 (only a loaded
    one can carry lambda) raises PoleAtZero or LogObstruction here, naming
    its (d, z^n).

    J must live on a target equal to t; every class of the result lives on
    t itself, also when J's target is another object (a config-file copy of
    a built-in P^n).

    The result is the full one cut by ``copy_window(zmin, zmax, dmax)``, read
    only at z >= zmin; zmin must be <= 1, and the default -inf cuts nothing.
    Line j is cut at zmin - sum_{i>j} s_i: a later line's product raises a
    term by up to z^(s_i).
    """
    if zmin > 1:
        raise ValueError(f"zmin = {zmin} > 1 would cut the z^1 head of I")
    if J.target != t:
        raise BasisMismatch(f"J-function of {J.target.name} used on target {t.name}")
    if not F.pulled_back or F.lines is None:
        raise AssumptionViolated(
            "hypergeometric modification needs a split bundle pulled back from the coarse space")
    if nonequivariant:
        J = nonequivariant_limit(J)
    series = J.series
    spreads = [t.spread_untwisted(c1cls) for (_pair, c1cls) in F.lines]
    # degree slices are exact, so the window may widen upward by the z-climb
    # of the products (this is exactly where positivity violations surface)
    by_degree: Dict[Tuple[int, ...], Dict[int, CohClass]] = {}
    for (n, d), cls in series.data.items():
        by_degree.setdefault(d, {})[n] = cls if cls.target is t else CohClass(t, cls.terms)
    lo = max(series.zmin, zmin)
    all_terms: Dict[Tuple[int, Tuple[int, ...]], CohClass] = {}
    for d, slice_terms in by_degree.items():
        steps = []
        for pairing, _c1 in F.lines:
            s = deg_pairing(pairing, d)
            if s.denominator != 1:
                raise AssumptionViolated(f"<rho, d> = {s} is not an integer at d = {d}")
            if s < 0:
                raise AssumptionViolated(
                    f"<rho, d> = {s} < 0 at d = {d}: outside the convexity assumption")
            steps.append(int(s))
        for j, (s, rho) in enumerate(zip(steps, spreads)):
            cut = zmin - sum(steps[j + 1:])
            slice_terms = _weigh_rows(_power_rows(slice_terms, rho, s, 1, cut),
                                      s, 1, not nonequivariant, cut)
        for n, c in slice_terms.items():
            if not c.is_zero and n >= lo:
                all_terms[(n, d)] = c
    zmax = max([series.zmax] + [n for (n, _d) in all_terms])
    out = GiventalElement(t, lo, zmax, series.dmax)
    for (nn, dd), c in all_terms.items():
        out.add_to(nn, dd, c)
    return JFunction(t, out)


def small_expansion(I: JFunction):
    """I = z F + sum_k G^k gamma_k + O(1/z) on the small space.

    Returns (F, G): F is a Novikov series and G maps a slot gamma_k to the
    Novikov series G^k.  G has an entry for every untwisted slot of degree
    <= 2 (the small parameter space), zero or not, and for every other slot
    the z^0 layer reaches.  Raises PositivityViolated when any z-power above
    1 survives.
    """
    t = I.target
    rank = I.series.rank
    f = TruncSeries(rank, 0, 0, I.dmax)
    g: Dict[Slot, TruncSeries] = {
        ("0", idx): TruncSeries(rank, 0, 0, I.dmax)
        for idx, b in enumerate(t.by_id["0"].basis) if b.degree <= 2}
    for (n, d), cls in sorted(I.series.data.items(), key=lambda kv: -kv[0][0]):
        if n > 1:
            raise PositivityViolated(
                f"z^{n} survives at (d={d}, components {sorted({c for (c, _i) in cls.terms})}); "
                "c1(F) <= c1(TX) fails")
        if n == 1:
            for (cid, idx), c in cls.terms.items():
                if (cid, idx) != ("0", 0):
                    raise PositivityViolated(
                        f"z^1 layer contains a nonunit class at d={d}: {(cid, idx)}")
                f.add_to(0, d, c)
        elif n == 0:
            for (cid, idx), c in cls.terms.items():
                if t.by_id[cid].basis[idx].degree > 2:
                    raise PositivityViolated(
                        f"z^0 layer leaves the small space at d={d}: {(cid, idx)}")
                g.setdefault((cid, idx), TruncSeries(rank, 0, 0, I.dmax)).add_to(0, d, c)
    if not f.get(0, zero_deg(rank)) == SCALAR_ONE:
        raise PositivityViolated("F(t) is not 1 mod Q")
    return f, g


def mirror_map(I: JFunction, f, g):
    """Cor-comp style change of variables: J = I/F and tau^k = G^k/F.

    ``(f, g)`` is ``small_expansion(I)``.  I is divided by F once: F has no
    z-content, so G^k/F is the gamma_k coefficient of the z^0 layer of J.
    Only the layers z <= 0 are divided.  ``small_expansion`` has shown that
    the z^1 layer of I is F 1 (the unit class at every degree, nothing
    else), so J's z^1 layer is the unit at Q^0 and is set, not computed.
    Returns (tau, J_twisted) with tau a dict slot of g -> Novikov series,
    each without its Q^0 term (that is the parameter point, which must be
    rational).  J_twisted is re-validated against the J normal form.
    """
    t, d0 = I.target, zero_deg(f.rank)
    below = GiventalElement(t, I.series.zmin, I.series.zmax, I.dmax)
    below.data = {k: c for k, c in I.series.data.items() if k[0] <= 0}
    series = novikov_scale(below, series_invert(f))
    series.set(1, d0, t.unit())
    out = JFunction(t, series)
    tau = {slot: TruncSeries(f.rank, 0, 0, out.dmax) for slot in g}
    for (n, d), cls in out.series.data.items():
        # the constant part belongs to the parameter point, not the Q-series
        if n == 0 and d == d0 and not all(c.is_rational() for c in cls.terms.values()):
            raise PositivityViolated("mirror map head must be rational")
        if n == 0 and d != d0:
            for slot, c in cls.terms.items():
                tau[slot].set(0, d, c)
    return tau, out


def lefschetz_chain(t: TargetModel, F: BundleModel, J: JFunction, zmin: float = -math.inf):
    """(f, g, tau, J_twisted) of ``hypergeometric_modification(t, F, J, True, zmin)``;
    J_twisted is the full one cut by ``copy_window``, read only at z >= zmin
    (zmin <= 0; the default -inf cuts nothing), each line's cut lowered by
    the later lines' steps."""
    i_lim = hypergeometric_modification(t, F, J, nonequivariant=True, zmin=zmin)
    f, g = small_expansion(i_lim)
    tau, j_tw = mirror_map(i_lim, f, g)
    return f, g, tau, j_tw


def novikov_scale(e: GiventalElement, s: TruncSeries) -> GiventalElement:
    """Multiply a Givental element by a scalar Novikov series (no z-content)."""
    if any(n for n, _d in s.data):
        raise ValueError("novikov_scale expects a z-free series")
    out = GiventalElement(e.target, e.zmin, e.zmax, min(e.dmax, s.dmax))
    out.data = window_product(e.data, s.data, lambda cls, c: cls.scale(c), out.inside)
    return out


def nonequivariant_limit(j: JFunction) -> JFunction:
    """lambda -> 0, with the offending index reported on poles and ln(lambda) terms.

    A J whose every coefficient is a plain rational is its own limit and is
    returned as it is; a J that carries lambda anywhere is mapped row by row.
    """
    def limit(n, d, cls):
        try:
            return cls.nonequiv_limit()
        except PoleAtZero:
            raise PoleAtZero(f"pole at lambda=0 in coefficient (d={d}, z^{n})")
        except LogObstruction:
            raise LogObstruction(f"ln(lambda) survives at lambda=0 in coefficient (d={d}, z^{n})")

    if all(c.is_rational() for cls in j.series.data.values() for c in cls.terms.values()):
        return j
    return JFunction(j.target, j.series.map(limit))


def check_extractable(t: TargetModel, F: BundleModel):
    """The pairs ``extract_invariants`` reads, else UnsupportedTarget: t is P^n-shaped (curve
    rank 1, one component, basis degrees 0, 2, ..., 2n, the degree-2 class of degree 1 on the
    curve), F is positive lines, r = c1(TX) - c1(F) = 0 and dim Y = n - #lines = 3."""
    basis = t.components[0].basis
    if (t.curve_rank != 1 or len(t.components) != 1
            or [b.degree for b in basis] != list(range(0, 2 * t.dim + 1, 2))
            or [b.curve_pairing for b in basis[1:2]] != [(1,)]):
        raise UnsupportedTarget(f"invariant extraction expects a P^n-shaped target, not {t.name}")
    if F.lines is None or any(pairing[0] <= 0 for pairing, _c1 in F.lines):
        raise UnsupportedTarget(f"invariant extraction expects positive split lines, not {F.name}")
    r, dim_y = t.c1_tangent_pairing[0] - F.c1_pairing[0], t.dim - len(F.lines)
    if r != 0 or dim_y != 3:
        raise UnsupportedTarget(f"invariant extraction expects a Calabi-Yau threefold (r = 0, "
                                f"dim Y = 3); {F.name} on {t.name} has r = {r}, dim Y = {dim_y}")


def extract_invariants(j_twisted: JFunction, tau, F: BundleModel) -> dict:
    """Genus-0 invariant table N_d of the Calabi-Yau threefold Y cut out by F.

    Pipeline: strip e^{tau_p p / z}, unwind the divisor factors e^{d tau_p},
    and pair the z^{-1} layer x_d with p e(F), e(F) the product of the line
    classes: <p>_d = int_X p x_d e(F) (the one-point invariant of Y), and
    N_d = <p>_d / d by the divisor equation.  Both exponentials go through
    ``graded_exp``, where the weight of z^n Q^d x is n + deg x + |d|: the
    pieces of -tau_p p / z sit at z^(-1) Q^d with d >= 1 (weight d + 1) and
    those of tau_p at z^0 Q^d (weight d), and the windows drop only terms
    past Q^dmax or p^dim.  Only the z^{-1} layer of e^{-tau_p p / z} J is
    read, and the divisor flow sum_d x_d Q^d e^{d tau_p} = sum_k x_k q^k,
    q = Q e^{tau_p}, unwinds by a triangular solve against the powers q^k.
    """
    t = j_twisted.target
    check_extractable(t, F)
    tau_p = tau[("0", 1)]
    dmax = j_twisted.dmax
    p = CohClass(t, {("0", 1): SCALAR_ONE})
    p_euler = p
    for _pairing, c1 in F.lines:
        p_euler = p_euler.mul(c1)
    # a zero Q^0 block keys each exponential's unit at Q^0 also when tau_p is zero
    q0 = {(0, (0,)): t.zero_class()}
    # the z^{-1} layer of e^{-tau_p p / z} J
    strip = graded_exp(t, {**q0, **{(-1, d): p.scale(-c) for (_z, d), c in tau_p.items()}},
                       -t.dim, 0, dmax)
    c_series: Dict[int, Scalar] = {d: SCALAR_ZERO for d in range(1, dmax + 1)}
    z_minus_1 = window_product(j_twisted.series.data, strip, lambda a, b: a.mul(b),
                               lambda n, d: n == -1 and 1 <= sum(d) <= dmax)
    for (_n, (d,)), cls in z_minus_1.items():
        c_series[d] = t.orbifold_pairing(p_euler, cls)
    # unwind sum_k x_k q^k, q = Q e^{tau_p} = Q^1 + O(Q^2): triangular solve
    unit = t.unit()
    e_tau = graded_exp(t, {**q0, **{k: unit.scale(c) for k, c in tau_p.items()}}, 0, 0, dmax)
    q = TruncSeries(1, 0, 0, dmax, {(0, (d + 1,)): c.coeff("0", 0)
                                    for (_z, (d,)), c in e_tau.items() if d < dmax})
    x: Dict[int, Scalar] = {}
    q_k = q
    for k in range(1, dmax + 1):
        x[k] = c_series[k]
        for (_z, (d,)), w in q_k.items():
            if d > k:
                c_series[d] = c_series[d] - x[k] * w
        if k < dmax:
            q_k = q_k * q
    n_table: Dict[int, Frac] = {}
    big_n: Dict[int, Frac] = {}
    for d in range(1, dmax + 1):
        nd = x[d] * sc(Frac(1, d))
        if not nd.is_rational():
            raise UnsupportedTarget("extraction produced a non-rational invariant")
        big_n[d] = nd.as_fraction()
    for d in range(1, dmax + 1):
        val = big_n[d]
        for k in range(2, d + 1):
            if d % k == 0:
                val -= n_table[d // k] / Frac(k ** 3)
        n_table[d] = val
    return {"N": big_n, "n": n_table}


def quintic_pipeline(dmax: int) -> dict:
    """The whole desk-scale computation for the quintic threefold in P^4.

    Closed-form J for P^4, ``lefschetz_chain`` with O(5), invariant
    extraction.  Returns the mirror map Q-series and the N_d / n_d tables
    (empty at dmax = 0).
    """
    from .jfunction import j_closed_form_Pn

    j = j_closed_form_Pn(4, dmax)
    F = wps_pullback_line(j.target, 5)
    f, g, tau, j_tw = lefschetz_chain(j.target, F, j)
    return {
        "F": f,
        "G": g,
        "tau": tau,
        "J_twisted": j_tw,
        "invariants": extract_invariants(j_tw, tau, F),
    }
