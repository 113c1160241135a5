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
from typing import Dict, Optional, Tuple

from ..errors import NormalFormViolation, SchemaError
from ..exactalg import parse_scalar, sc
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

    The prefactor and the Q e^{t1} absorption are symbolic; the stored series
    is the exact t = 0 slice.  String shift (t0 -> t0 + eps multiplies by
    e^{eps/z}) and divisor shift (t1 -> t1 + eps is Q -> Q e^eps times
    e^{eps p/z}) are therefore identities of the encoding, see
    shift_t0 / shift_t1 / novikov_divisor_twist.
    """
    from ..orbtarget import projective_space
    t = projective_space(n)
    zmin = 1 - (n + 1) * dmax - n - 2
    e = GiventalElement(t, zmin, 1, dmax)
    for d in range(dmax + 1):
        for a, c in _pn_degree_coeffs(n, d).items():
            zpow = 1 - (n + 1) * d - a
            if zpow < zmin:
                continue
            e.add_to(zpow, (d,), CohClass(t, {("0", a): sc(c)}))
    pref = {("0", 0): LinForm.var("t0"), ("0", 1): LinForm.var("t1")}
    return JFunction(t, e, prefactor=pref, tpoint=dict(pref), kind="factored")


def _pn_degree_coeffs(n: int, d: int) -> Dict[int, Frac]:
    """p-expansion of prod_{k=1..d} (p + kz)^{-(n+1)} * z^{(n+1)d}: maps a -> coeff of p^a."""
    coeffs = {0: Frac(1)}
    for k in range(1, d + 1):
        # multiply by (1 + p/(kz))^{-(n+1)} = sum_j binom(-(n+1), j) (p/(kz))^j, then k^{-(n+1)}
        factor = {}
        b = Frac(1)
        for j in range(n + 1):
            if j:
                b *= Frac(-(n + 1) - (j - 1), j)
            factor[j] = b / Frac(k) ** j
        out: Dict[int, Frac] = {}
        for a, c in coeffs.items():
            for j, f in factor.items():
                if a + j <= n:
                    out[a + j] = out.get(a + j, Frac(0)) + c * f
        scale = Frac(1, k) ** (n + 1)
        coeffs = {a: c * scale for a, c in out.items()}
    return coeffs


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
