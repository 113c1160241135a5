"""J-functions on a declared small parameter space.

Two storage forms share one type:

  * factored: J = exp((t_0 1 + t_1 gamma)/z) * S(z, Q'), with the exponential
    prefactor kept symbolic (never expanded into the z-window) and the
    divisor directions absorbed into the Novikov variable Q' = Q e^{t_1}.
    Closed forms (projective spaces) are built this way; at t = 0 the series
    part is the whole function.
  * raw: an explicit coefficient table at a fixed parameter point (ingested
    from a data file); the prefactor is empty and the point is read off the
    (d=0, z^0) rows.

The normal-form invariant J = z + t + O(1/z) mod Q is validated in both
forms.  Small-parameter coordinates are rational linear forms in named
symbols (t0, t1, ...) so shift identities (string, divisor) can be asserted
on the encoding exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Tuple

from ..errors import NormalFormViolation, SchemaError
from ..exactalg import Scalar, parse_scalar, poly
from ..givental import GiventalElement
from ..orbtarget import CohClass, TargetModel

Frac = Fraction
Slot = Tuple[str, int]


class LinForm:
    """Rational linear form in named parameters, e.g. t0 + 2*eps."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Dict[str, Frac]] = None):
        self.coeffs = {k: Frac(v) for k, v in (coeffs or {}).items() if v}

    @staticmethod
    def var(name: str) -> "LinForm":
        return LinForm({name: Frac(1)})

    def __add__(self, o: "LinForm") -> "LinForm":
        out = dict(self.coeffs)
        for k, v in o.coeffs.items():
            out[k] = out.get(k, Frac(0)) + v
        return LinForm(out)

    def scale(self, c) -> "LinForm":
        c = Frac(c)
        return LinForm({k: v * c for k, v in self.coeffs.items()})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, o) -> bool:
        if not isinstance(o, LinForm):
            return NotImplemented
        return self.coeffs == o.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*{k}" for k, v in sorted(self.coeffs.items()))


class JFunction:
    """A J-function (or I-function) with explicit truncations."""

    def __init__(self, target: TargetModel, series: GiventalElement,
                 prefactor: Optional[Dict[Slot, LinForm]] = None,
                 tpoint: Optional[Dict[Slot, LinForm]] = None,
                 kind: str = "factored",
                 novikov_twist: Optional[LinForm] = None):
        self.target = target
        self.series = series
        self.prefactor = {k: v for k, v in (prefactor or {}).items() if not v.is_zero}
        self.tpoint = {k: v for k, v in (tpoint or {}).items() if not v.is_zero}
        self.kind = kind
        # absorbed exponent of the Novikov rescaling Q -> Q e^{...} (divisor flow)
        self.novikov_twist = novikov_twist or LinForm()
        self.validate_normal_form()

    @property
    def dmax(self) -> int:
        return self.series.dmax

    def coefficient(self, d: Tuple[int, ...], zpow: int) -> CohClass:
        return self.series.get(zpow, d)

    def validate_normal_form(self):
        d0 = (0,) * self.target.curve_rank
        head = self.coefficient(d0, 1)
        if head != self.target.unit():
            raise NormalFormViolation("the (d=0, z^1) coefficient must be the unit class")
        z0 = self.coefficient(d0, 0)
        if self.kind == "factored":
            if not z0.is_zero:
                raise NormalFormViolation(
                    "factored form carries the parameter point in the prefactor; "
                    "the (d=0, z^0) series coefficient must vanish")
        for (n, d), cls in self.series.data.items():
            if d == d0 and n > 1 and not cls.is_zero:
                raise NormalFormViolation(f"unexpected z^{n} term at Q^0")


def j_closed_form_Pn(n: int, dmax: int) -> JFunction:
    """J for P^n on H^0 + H^2: z e^{(t0 + t1 p)/z} sum_d Q'^d / prod_{k<=d} (p+kz)^{n+1}.

    Slice d is ``_apply_factor_product`` (e = -(n+1), s = d, rho = p) on z.
    The prefactor and the Q e^{t1} absorption are symbolic; the stored series
    is the exact t = 0 slice.  String shift (t0 -> t0 + eps multiplies by
    e^{eps/z}) and divisor shift (t1 -> t1 + eps is Q -> Q e^eps times
    e^{eps p/z}) are therefore identities of the encoding, see
    shift_t0 / shift_t1 / novikov_divisor_twist.
    """
    from ..orbtarget import projective_space
    t = projective_space(n)
    e = GiventalElement(t, 1 - (n + 1) * dmax - n - 2, 1, dmax)
    head, p = {1: t.unit()}, t.basis_class("0", "p")
    for d in range(dmax + 1):
        for zpow, c in _apply_factor_product(head, p, d, -(n + 1), False).items():
            e.add_to(zpow, (d,), c)
    pref = {("0", 0): LinForm.var("t0"), ("0", 1): LinForm.var("t1")}
    return JFunction(t, e, prefactor=pref, tpoint=dict(pref), kind="factored")


# -- the hypergeometric factor kernel ----------------------------------------------


@lru_cache(maxsize=256)
def _factor_coefficients(e: int, s: int, top: int) -> Tuple[Frac, ...]:
    """c_0..c_m with prod_{k=1..s} (x + kz)^e = sum_i c_i x^i z^(e s - i) mod x^(top+1).

    Each factor is the binomial series (x + kz)^e = sum_j C(e, j) k^(e-j)
    x^j z^(e-j), finite for e > 0; m = min(top, e s) for e > 0, else top
    (m = 0 when s = 0).  For e = 1 the c_i are the unsigned Stirling numbers
    [s+1, i+1]."""
    m = min(top, e * s) if e > 0 else top
    binom = [Frac(1)]                        # C(e, j), j <= min(e, m) for e > 0
    for j in range(1, m + 1 if e < 0 else min(e, m) + 1):
        binom.append(binom[-1] * (e - j + 1) / j)
    coeffs = [Frac(1)]
    for k in range(1, s + 1):
        factor = [b * Frac(k) ** (e - j) for j, b in enumerate(binom)]
        coeffs = poly.mul(coeffs, factor, Frac(0))[:m + 1]
    return tuple(coeffs)


def _apply_factor_product(slice_terms: Dict[int, CohClass], rho: CohClass, s: int, e: int,
                          equivariant: bool) -> Dict[int, CohClass]:
    """prod_{k=1..s} (lambda + rho + kz)^e times sum_n c_n z^n, with lambda = 0
    unless ``equivariant``; e is a nonzero integer.

    With x = lambda + rho this is sum_i c_i x^i z^(e s - i)
    (``_factor_coefficients``), and x^i = sum_j C(i, j) lambda^(i-j) rho^j, so
    a slice c becomes sum_i sum_j c_i C(i, j) lambda^(i-j) z^(e s - i)
    (rho^j c).  This is exact because the cup product is commutative and rho,
    a degree-2 class on each component, is nilpotent: the powers rho^j c
    stop at the first zero, so a slice costs at most dim + 1 class products
    and each coefficient is a rational times one power of lambda.  For e < 0
    the series in x is infinite, so x must be nilpotent too: lambda = 0, and
    ``equivariant`` must be false.
    """
    lam_top = e * s if equivariant else 0    # the highest power of lambda that occurs
    powers: Dict[int, List[CohClass]] = {}
    for n, c in slice_terms.items():
        row = [c]                        # rho^j c, up to the first zero
        while e < 0 or len(row) <= e * s:
            nxt = row[-1].mul(rho)
            if nxt.is_zero:
                break
            row.append(nxt)
        powers[n] = row
    top = max((len(row) for row in powers.values()), default=1) - 1
    weights = {(i, j): Scalar.lam(i - j).scaled(a * comb(i, j))
               for i, a in enumerate(_factor_coefficients(e, s, top + lam_top))
               for j in range(max(0, i - lam_top), min(i, top) + 1)}
    out: Dict[int, CohClass] = {}
    for n, row in powers.items():
        for (i, j), w in weights.items():
            if j < len(row):
                term = row[j].scale(w)
                m = n + e * s - i
                out[m] = out[m] + term if m in out else term
    return out


def shift_t0(j: JFunction, name: str = "eps") -> JFunction:
    """Encoding of J(t0 + eps): the prefactor exponent gains eps * unit."""
    pref = dict(j.prefactor)
    slot = ("0", 0)
    pref[slot] = pref.get(slot, LinForm()) + LinForm.var(name)
    tp = dict(j.tpoint)
    tp[slot] = tp.get(slot, LinForm()) + LinForm.var(name)
    return JFunction(j.target, j.series, prefactor=pref, tpoint=tp, kind=j.kind,
                     novikov_twist=j.novikov_twist)


def multiply_prefactor(j: JFunction, slot: Slot, form: LinForm) -> JFunction:
    """Encoding of e^{(form * phi_slot)/z} J."""
    pref = dict(j.prefactor)
    pref[slot] = pref.get(slot, LinForm()) + form
    return JFunction(j.target, j.series, prefactor=pref, tpoint=j.tpoint, kind=j.kind,
                     novikov_twist=j.novikov_twist)


def shift_t1(j: JFunction, name: str = "eps") -> JFunction:
    """Encoding of J(t1 + eps) for the divisor direction of a factored form:
    the prefactor gains eps*p and the Novikov variable absorbs e^{eps}."""
    pref = dict(j.prefactor)
    slot = ("0", 1)
    pref[slot] = pref.get(slot, LinForm()) + LinForm.var(name)
    tp = dict(j.tpoint)
    tp[slot] = tp.get(slot, LinForm()) + LinForm.var(name)
    return JFunction(j.target, j.series, prefactor=pref, tpoint=tp, kind=j.kind,
                     novikov_twist=j.novikov_twist + LinForm.var(name))


def novikov_divisor_twist(j: JFunction, name: str = "eps") -> JFunction:
    """Encoding of Q -> Q e^{eps}: tag the absorbed Novikov exponent."""
    return JFunction(j.target, j.series, prefactor=j.prefactor, tpoint=j.tpoint,
                     kind=j.kind, novikov_twist=j.novikov_twist + LinForm.var(name))


def encodings_equal(a: JFunction, b: JFunction) -> bool:
    """Structural equality of the factored encodings (prefactor, twist tag, series)."""
    return (
        a.prefactor == b.prefactor
        and a.novikov_twist == b.novikov_twist
        and a.series == b.series
    )


# -- ingestion ------------------------------------------------------------------


def load_j_function(t: TargetModel, data) -> JFunction:
    """Rows {d, zpow, component, basis, coeff}; rationals or lambda rational strings.

    The table must contain the z + t head at d = 0 and satisfy the dimension
    filter z <= 1 - <c1(TX), d> in positive degrees.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise SchemaError(f"$: invalid JSON ({e})")
    rows = data["rows"] if isinstance(data, dict) else data
    if not isinstance(rows, list):
        raise SchemaError("$.rows: expected a list")
    dmax = 0
    zmin, zmax = 0, 1
    parsed = []
    for i, row in enumerate(rows):
        path = f"$.rows[{i}]"
        try:
            d = row["d"]
            d = tuple(d) if isinstance(d, list) else (int(d),)
            zpow = int(row["zpow"])
            cid = str(row["component"])
            basis = row["basis"]
            coeff = parse_scalar(row["coeff"])
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"{path}: {e}")
        if cid not in t.by_id:
            raise SchemaError(f"{path}.component: unknown component {cid!r}")
        comp = t.by_id[cid]
        idx = basis if isinstance(basis, int) else comp.basis_index(str(basis))
        parsed.append((d, zpow, cid, idx, coeff))
        dmax = max(dmax, sum(d))
        zmin, zmax = min(zmin, zpow), max(zmax, zpow)
    e = GiventalElement(t, zmin, zmax, dmax)
    for (d, zpow, cid, idx, coeff) in parsed:
        if any(d):
            cap = 1 - sum(Frac(c) * di for c, di in zip(t.c1_tangent_pairing, d))
        else:
            cap = Frac(1)
        if not coeff.is_zero and zpow > cap:
            raise NormalFormViolation(
                f"row (d={d}, z^{zpow}) violates the dimension filter z <= {cap}")
        e.add_to(zpow, d, CohClass(t, {(cid, idx): coeff}))
    d0 = (0,) * (len(parsed[0][0]) if parsed else t.curve_rank)
    tpoint = {}
    z0 = e.get(0, d0)
    for slot, c in z0.terms.items():
        if not c.is_rational():
            raise NormalFormViolation("the parameter point must be rational")
        tpoint[slot] = LinForm({f"t[{slot[0]}:{slot[1]}]": c.as_fraction()})
    return JFunction(t, e, prefactor=None, tpoint=tpoint, kind="raw")
