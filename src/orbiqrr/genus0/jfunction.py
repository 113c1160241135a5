"""J-functions on a target, stored as one series.

A J-function (or I-function) is its series J = z + t + O(1/z) at its own
parameter point t: a windowed z^n Q^d table of classes.  The closed form
of P^n is the series at t = 0; a table ingested from a data file carries
its point in the (d=0, z^0) rows.  Both are held as the same type and pass
the same normal-form check: the unit class at (d=0, z^1) and nothing above
z^1 at Q^0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, inf, lcm
from typing import Dict, List, Tuple

from ..errors import NormalFormViolation, SchemaError
from ..exactalg import Scalar, deg_from_json, deg_pairing, parse_scalar, poly, zero_deg
from ..givental import GiventalElement
from ..jsonread import decode_json, integer, required, rows_of, string
from ..orbtarget import CohClass, TargetModel

Frac = Fraction


class JFunction:
    """A J-function (or I-function): its series on a target, in normal form."""

    def __init__(self, target: TargetModel, series: GiventalElement):
        self.target = target
        self.series = series
        self.validate_normal_form()

    @property
    def dmax(self) -> int:
        return self.series.dmax

    def coefficient(self, d: Tuple[int, ...], zpow: int) -> CohClass:
        return self.series.get(zpow, d)

    def validate_normal_form(self):
        d0 = zero_deg(self.target.curve_rank)
        head = self.coefficient(d0, 1)
        if head != self.target.unit():
            raise NormalFormViolation("the (d=0, z^1) coefficient must be the unit class")
        for (n, d), cls in self.series.data.items():
            if d == d0 and n > 1 and not cls.is_zero:
                raise NormalFormViolation(f"unexpected z^{n} term at Q^0")


def j_closed_form_Pn(n: int, dmax: int) -> JFunction:
    """J for P^n at t = 0: z sum_d Q^d / prod_{k<=d} (p+kz)^{n+1}.

    Slice d is the factor kernel (e = -(n+1), s = d, rho = p) on z; the row
    1, p, ..., p^n of z (``_power_rows``, which depends on neither s nor
    e < 0 when nothing is cut) is built once per target and only
    ``_weigh_rows`` runs per degree.  Slice d depends on (n, d) alone, so it
    is built once per process and kept on the shared target P^n
    (``TargetModel.keep``); each call assembles a fresh series from the kept
    slices, so a caller may change its J, but the classes in it are shared
    and must be treated as immutable.
    """
    from ..orbtarget import projective_space
    t = projective_space(n)
    e = GiventalElement(t, 1 - (n + 1) * dmax - n - 2, 1, dmax)
    for d in range(dmax + 1):
        for zpow, c in t.keep(("J slice", d), lambda: _pn_slice(t, d)):
            e.add_to(zpow, (d,), c)
    return JFunction(t, e)


def _pn_slice(t: TargetModel, d: int) -> Tuple[Tuple[int, CohClass], ...]:
    """Slice d of the J-function of t = P^n as (z-power, class) pairs."""
    rows = t.keep(("J row",), lambda: _power_rows({1: t.unit()}, t.basis_class("0", "p"),
                                                  0, -(t.dim + 1)))
    return tuple(_weigh_rows(rows, d, -(t.dim + 1), False).items())


# -- the hypergeometric factor kernel ----------------------------------------------


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


def _power_rows(slice_terms: Dict[int, CohClass], rho: CohClass, s: int, e: int,
                zmin: float = -inf) -> Dict[int, List[CohClass]]:
    """Stage one of the factor kernel: the row rho^j c of each term c z^n of a
    slice, up to the first zero (rho is nilpotent) and to the last j that
    stage two (``_weigh_rows``) reads at z >= zmin, j = n + e s - zmin, and
    at most e s for e > 0."""
    rows: Dict[int, List[CohClass]] = {}
    for n, c in slice_terms.items():
        jmax = min(e * s if e > 0 else inf, n + e * s - zmin)
        if jmax < 0:                     # every term lands below the cut
            continue
        row = [c]                        # rho^j c, up to the first zero
        while len(row) <= jmax:
            nxt = row[-1].mul(rho)
            if nxt.is_zero:
                break
            row.append(nxt)
        rows[n] = row
    return rows


@lru_cache(maxsize=256)
def _weight_table(e: int, s: int, top: int, lam_top: int
                  ) -> Tuple[Tuple[Tuple[int, Scalar], ...], ...]:
    """Entry i: the pairs (j, lambda^(i-j) c_i C(i, j)) for j from
    max(0, i - lam_top) up to min(i, top), the weights of ``_weigh_rows``
    (c_i from ``_factor_coefficients(e, s, top + lam_top)``); built once per
    process and key, and shared by every caller."""
    return tuple(tuple((j, Scalar.lam(i - j).scaled(a * comb(i, j)))
                       for j in range(max(0, i - lam_top), min(i, top) + 1))
                 for i, a in enumerate(_factor_coefficients(e, s, top + lam_top)))


def _weigh_rows(rows: Dict[int, List[CohClass]], s: int, e: int, equivariant: bool,
                zmin: float = -inf) -> Dict[int, CohClass]:
    """Stage two: prod_{k=1..s} (lambda + rho + kz)^e times sum_n c_n z^n from
    the rows rho^j c_n of stage one, with lambda = 0 unless ``equivariant``;
    e is a nonzero integer.  The result is the full one cut to z^m, m >=
    zmin; the default -inf cuts nothing.

    With x = lambda + rho the product is sum_i c_i x^i z^(e s - i)
    (``_factor_coefficients``), and x^i = sum_j C(i, j) lambda^(i-j) rho^j, so
    a slice c becomes sum_i sum_j c_i C(i, j) lambda^(i-j) z^(e s - i)
    (rho^j c).  This is exact because the cup product is commutative and rho,
    a degree-2 class on each component, is nilpotent.  For e < 0 the series
    in x is infinite, so x must be nilpotent too: lambda = 0, and
    ``equivariant`` must be false.  The rows depend on neither lambda nor,
    for e < 0 and no cut, on s, so the J-function of P^n builds its row
    once.  At s = 0 the product is empty: the row heads at z >= zmin, with
    no scalar product (a measured 2 % of quintic throughput).

    The weights depend on (e, s, top, lambda-top) alone, top the longest
    row's last j, and are built once per process (``_weight_table``).  For
    row n the i-loop stops at the cut, i <= n + e s - zmin, and where no j
    of the row is left, i < len(row) + lambda-top; the j-loop stops at
    len(row).  Each product rho^j c_n times its weight is summed straight
    into the term dict of its z-power, and one class is built per z-power.
    Every slot sums rows in insertion order, then i, then j ascending,
    left-associated, and drops a sum that cancels at once, as adding one
    class per (row, weight) pair would: a zeta-valued value has no
    canonical form, and this order keeps its printed bytes.
    """
    if s == 0:
        return {n: row[0] for n, row in rows.items() if n >= zmin}
    if not rows:
        return {}
    lam_top = e * s if equivariant else 0    # the highest power of lambda that occurs
    table = _weight_table(e, s, max(len(row) for row in rows.values()) - 1, lam_top)
    sums: Dict[int, Dict[Tuple[str, int], Scalar]] = {}
    for n, row in rows.items():
        m0 = n + e * s
        for i in range(min(len(table), len(row) + lam_top, m0 - zmin + 1)):
            acc = sums.setdefault(m0 - i, {})
            for j, w in table[i]:
                if j >= len(row):
                    break
                for k, v in row[j].terms.items():
                    x = v * w
                    if k in acc:
                        x = acc[k] + x
                    if x.is_zero:
                        acc.pop(k, None)
                    else:
                        acc[k] = x
    t = next(iter(rows.values()))[0].target
    return {m: CohClass._valid(t, acc) for m, acc in sums.items()}


# -- ingestion ------------------------------------------------------------------


def load_j_function(t: TargetModel, data) -> JFunction:
    """Rows {d, zpow, component, basis, coeff}; a coeff is a "p/q" string, a
    lambda rational string or a JSON integer (a float or a bool is refused).

    d is a list of curve_rank nonnegative integers, zpow an integer,
    component a string and basis an index or a class name; a malformed row
    is a SchemaError naming $.rows[i] and the field.  The table must contain
    the z head at d = 0, a rational parameter point (its (d=0, z^0) rows) and
    satisfy the dimension filter z <= 1 - <c1(TX), d> in positive degrees.
    A zeta order in a coeff must divide 4 lcm(r_i) of the target's
    components (the orders its twisted values reach), else a SchemaError
    names its .zeta before the cyclotomic polynomial of that order is built.
    """
    if isinstance(data, str):
        data = decode_json(data)
    period = 4 * lcm(*(c.r for c in t.components))

    def coeff(obj, path):
        return parse_scalar(obj, path, period)
    dmax = 0
    zmin, zmax = 0, 1
    parsed = []
    for path, row in rows_of({"rows": data} if isinstance(data, list) else data):
        d = deg_from_json(required(row, "d", path), t.curve_rank, f"{path}.d", t.name)
        zpow = integer(required(row, "zpow", path), f"{path}.zpow", None)
        cid = required(row, "component", path, string)
        if cid not in t.by_id:
            raise SchemaError(f"{path}.component: unknown component {cid!r}")
        basis = required(row, "basis", path)
        idx = (basis if type(basis) is int
               else t.by_id[cid].basis_index(string(basis, f"{path}.basis")))
        parsed.append((d, zpow, cid, idx, required(row, "coeff", path, coeff)))
        dmax = max(dmax, sum(d))
        zmin, zmax = min(zmin, zpow), max(zmax, zpow)
    e = GiventalElement(t, zmin, zmax, dmax)
    for (d, zpow, cid, idx, coeff) in parsed:
        cap = 1 - deg_pairing(t.c1_tangent_pairing, d)
        if not coeff.is_zero and zpow > cap:
            raise NormalFormViolation(
                f"row (d={d}, z^{zpow}) violates the dimension filter z <= {cap}")
        e.add_to(zpow, d, CohClass(t, {(cid, idx): coeff}))
    if not all(c.is_rational() for c in e.get(0, zero_deg(t.curve_rank)).terms.values()):
        raise NormalFormViolation("the parameter point must be rational")
    return JFunction(t, e)
