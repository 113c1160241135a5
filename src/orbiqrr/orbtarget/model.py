"""Combinatorial model of a smooth DM-stack target.

A target is a finite list of inertia components, each carrying an
automorphism order r_i, an age, an involution partner, a graded cohomology
basis with an explicit (ordinary, per-component) multiplication table, and a
pairing matrix realizing int_{X_i} a wedge I_i^* b against the partner
component.  Bundles are stored through their eigen-decomposition: for each
component i and 0 <= l < r_i the full Chern character of F_i^(l) as a class
on X_i (degree-0 part = rank).

``graded_exp`` is the package's one exponential of sparse z^n Q^d blocks of
classes (Delta, twist classes, invariant extraction).

Only even cohomological degrees are supported.  Ordinary products never mix
components; Chen-Ruan products are not modeled beyond multiplication by
untwisted-sector classes: gamma acts on a as ``t.spread_untwisted(gamma).mul(a)``.
``spread_untwisted`` is the one place the restriction maps act and
``CohClass.mul`` the one reader of the product tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import (
    AssumptionViolated,
    BasisMismatch,
    ExpObstruction,
    IndexOutOfRange,
    InvariantViolation,
    NonInvertible,
    TruncationTooNarrow,
)
from ..exactalg import SCALAR_ONE, SCALAR_ZERO, Scalar, sc, window_product, zero_deg

Frac = Fraction


@dataclass(frozen=True)
class BasisClass:
    name: str
    degree: int                      # real (even) cohomological degree
    curve_pairing: Tuple[Frac, ...] = ()   # <c_1 of this class, generator_j>, degree-2 classes only


@dataclass
class Component:
    cid: str
    r: int
    age: Frac
    involution: str
    basis: List[BasisClass]
    pairing: List[List[Frac]]        # rows: own basis, cols: partner basis
    mult: Dict[Tuple[int, int], Dict[int, Frac]] = field(default_factory=dict)
    untwisted_restriction: Optional[List[List[Frac]]] = None  # untwisted basis -> own basis

    @property
    def dim(self) -> int:
        return max(b.degree for b in self.basis) // 2

    def basis_index(self, name: str) -> int:
        for i, b in enumerate(self.basis):
            if b.name == name:
                return i
        raise BasisMismatch(f"component {self.cid} has no basis class {name!r}")

    def product(self, a: int, b: int) -> Dict[int, Frac]:
        key = (a, b) if (a, b) in self.mult else (b, a)
        if key in self.mult:
            return self.mult[key]
        if a == 0:
            return {b: Frac(1)}
        if b == 0:
            return {a: Frac(1)}
        if self.basis[a].degree + self.basis[b].degree > 2 * self.dim:
            return {}  # forced to vanish above the top degree
        raise BasisMismatch(
            f"component {self.cid}: no product rule for basis entries {a}, {b}")


class TargetModel:
    def __init__(self, name: str, dim: int, curve_rank: int,
                 components: Sequence[Component],
                 c1_tangent_pairing: Tuple[Frac, ...] = (),
                 jfunction_file: Optional[str] = None):
        self.name = name
        self.dim = dim
        self.curve_rank = curve_rank
        self.components = list(components)
        self.by_id = {c.cid: c for c in self.components}
        self.c1_tangent_pairing = tuple(c1_tangent_pairing) or (Frac(0),) * curve_rank
        self.jfunction_file = jfunction_file
        # opaque genus-1 constants; carried symbolically and never evaluated
        self.genus1_constants = {
            "psibar_110": f"<psibar>_110[{name}]",
            "c1F_110": f"<c1F>_110[{name}]",
        }
        self.flat_basis: List[Tuple[str, int]] = [
            (c.cid, i) for c in self.components for i in range(len(c.basis))
        ]
        self.flat_index = {key: n for n, key in enumerate(self.flat_basis)}
        self._gram: Optional[Tuple[Tuple[Scalar, ...], ...]] = None
        self._gram_inv: Optional[Tuple[Tuple[Scalar, ...], ...]] = None
        self._pairing_inv: Dict[str, List[List[Scalar]]] = {}   # cid -> inverse block
        self._kept: Dict[tuple, object] = {}                      # see ``keep``
        self.validate()

    # -- validation ---------------------------------------------------------

    def validate(self):
        from ..linalg import mat_inv          # linalg imports this package
        ids = [c.cid for c in self.components]
        if len(set(ids)) != len(ids):
            raise InvariantViolation("component ids", "duplicate component id")
        if "0" not in self.by_id:
            raise InvariantViolation("distinguished component", "no component with id '0'")
        c0 = self.by_id["0"]
        if c0.r != 1 or c0.age != 0 or c0.involution != "0":
            raise InvariantViolation("distinguished component",
                                     "component '0' must have r=1, age=0, involution '0'")
        rank = self.curve_rank
        if len(self.c1_tangent_pairing) != rank:
            raise InvariantViolation("curve rank", f"c1_tangent_pairing has "
                                     f"{len(self.c1_tangent_pairing)} entries, not {rank}")
        for c in self.components:
            if c.involution not in self.by_id:
                raise InvariantViolation("involution", f"missing partner {c.involution}")
            p = self.by_id[c.involution]
            if p.involution != c.cid:
                raise InvariantViolation("involution involutive",
                                         f"({c.cid}^I)^I != {c.cid}")
            if p.r != c.r:
                raise InvariantViolation("involution order", f"r_{c.cid} != r_{p.cid}")
            # with reciprocity, ages >= 0 make dim X (that of component 0) the largest dim X_i
            if c.age < 0:
                raise InvariantViolation("nonnegative age", f"age({c.cid}) = {c.age} < 0")
            if c.age + p.age != self.dim - c.dim:
                raise InvariantViolation(
                    "age reciprocity",
                    f"age({c.cid}) + age({p.cid}) != dim X - dim X_{c.cid}")
            for b in c.basis:
                if b.degree % 2 or b.degree < 0:
                    raise InvariantViolation("even degrees",
                                             f"odd/negative degree class {b.name} on {c.cid}")
                if b.curve_pairing and len(b.curve_pairing) != rank:
                    raise InvariantViolation("curve rank", f"curve_pairing of {b.name} on {c.cid}"
                                             f" has {len(b.curve_pairing)} entries, not {rank}")
            if c.basis[0].degree != 0:
                raise InvariantViolation("unit class",
                                         f"first basis entry of {c.cid} must have degree 0")
            if (len(p.basis) != len(c.basis) or len(c.pairing) != len(c.basis)
                    or any(len(row) != len(p.basis) for row in c.pairing)):
                raise InvariantViolation(
                    "pairing dimensions",
                    f"pairing of {c.cid} has wrong shape, or {c.cid} and its partner "
                    f"{p.cid} have bases of unequal size")
            try:
                self._pairing_inv[c.cid] = mat_inv([[sc(x) for x in row] for row in c.pairing])
            except NonInvertible:
                raise InvariantViolation("pairing nondegenerate",
                                         f"pairing of {c.cid} is degenerate") from None
            for a in range(len(c.basis)):
                for b_ in range(len(p.basis)):
                    if c.pairing[a][b_] != p.pairing[b_][a]:
                        raise InvariantViolation("pairing symmetry",
                                                 f"pairing of {c.cid}/{p.cid} not symmetric")
            restr = c.untwisted_restriction
            if restr is not None and (len(restr) != len(c0.basis)
                                      or any(len(row) != len(c.basis) for row in restr)):
                raise InvariantViolation(
                    "untwisted restriction",
                    f"restriction to {c.cid} must have {len(c0.basis)} rows (the untwisted "
                    f"basis) of {len(c.basis)} entries (the basis of {c.cid})")
            # graded_exp relies on deg(a b) = deg a + deg b
            n_basis = len(c.basis)
            for (a, b_), prod in c.mult.items():
                for g, w in prod.items():
                    if not w:
                        continue
                    if not all(0 <= i < n_basis for i in (a, b_, g)):
                        raise InvariantViolation(
                            "graded product",
                            f"component {c.cid}: mult entry ({a}, {b_}) -> {g} "
                            "names a missing basis entry")
                    if c.basis[g].degree != c.basis[a].degree + c.basis[b_].degree:
                        raise InvariantViolation(
                            "graded product",
                            f"component {c.cid}: mult entry ({c.basis[a].name}, "
                            f"{c.basis[b_].name}) -> {c.basis[g].name} has degree "
                            f"{c.basis[g].degree}, not "
                            f"{c.basis[a].degree} + {c.basis[b_].degree}")

    # -- classes -------------------------------------------------------------

    def zero_class(self) -> "CohClass":
        return CohClass(self, {})

    def unit(self, cid: str = "0") -> "CohClass":
        return CohClass(self, {(cid, 0): SCALAR_ONE})

    def unit_everywhere(self) -> "CohClass":
        return CohClass(self, {(c.cid, 0): SCALAR_ONE for c in self.components})

    def basis_class(self, cid: str, name: str) -> "CohClass":
        comp = self.component(cid)
        return CohClass(self, {(cid, comp.basis_index(name)): SCALAR_ONE})

    def component(self, cid: str) -> Component:
        try:
            return self.by_id[cid]
        except KeyError:
            raise BasisMismatch(f"no component {cid!r} in target {self.name}")

    def keep(self, key: tuple, build):
        """``build()``, built once per target and key: what a builder derives
        from this target and a few integers (a bundle, a slice of J) lives as
        long as the target, and every caller shares it, so it must be treated
        as immutable.  A build that raises keeps nothing; past 256 keys a
        build is returned without being kept."""
        out = self._kept.get(key)
        if out is None:
            out = build()
            if len(self._kept) < 256:
                self._kept[key] = out
        return out

    # -- pairings -------------------------------------------------------------

    def gram(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """Orbifold Poincare pairing on the flat basis, built once per target
        (tuple rows, so no caller can change the memo)."""
        if self._gram is None:
            n = len(self.flat_basis)
            g = [[SCALAR_ZERO] * n for _ in range(n)]
            for a, (cid, ai) in enumerate(self.flat_basis):
                comp = self.by_id[cid]
                partner = comp.involution
                for bi in range(len(self.by_id[partner].basis)):
                    b = self.flat_index[(partner, bi)]
                    g[a][b] = sc(comp.pairing[ai][bi])
            self._gram = tuple(map(tuple, g))
        return self._gram

    def gram_inverse(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """The inverse of ``gram``, built once per target from the pairing
        blocks that ``validate`` inverted: the Gram matrix pairs component c
        with its partner p through the block P_c, so its inverse has
        (P_c^-1)[j][k] at ((p, j), (c, k))."""
        if self._gram_inv is None:
            n = len(self.flat_basis)
            g = [[SCALAR_ZERO] * n for _ in range(n)]
            for comp in self.components:
                partner = comp.involution
                for j, row in enumerate(self._pairing_inv[comp.cid]):
                    a = self.flat_index[(partner, j)]
                    for k, x in enumerate(row):
                        g[a][self.flat_index[(comp.cid, k)]] = x
            self._gram_inv = tuple(map(tuple, g))
        return self._gram_inv

    def orbifold_pairing(self, a: "CohClass", b: "CohClass") -> Scalar:
        self._check_class(a)
        self._check_class(b)
        out = SCALAR_ZERO
        for (cid, ai), ca in a.terms.items():
            comp = self.by_id[cid]
            partner = comp.involution
            for bi in range(len(self.by_id[partner].basis)):
                cb = b.terms.get((partner, bi))
                if cb is None:
                    continue
                w = comp.pairing[ai][bi]
                if w:
                    out = out + ca * cb * sc(w)
        return out

    def twisted_pairing(self, bundle: "BundleModel", s_values: Sequence[Scalar],
                        a: "CohClass", b: "CohClass") -> Scalar:
        """(a, b)_{(c,F)} with c = exp(sum_k s_k ch_k); reduces to orbifold pairing at s = 0."""
        tw = bundle.twist_class(s_values)
        return self.orbifold_pairing(a.mul(tw), b)

    def involution_transport(self, a: "CohClass") -> "CohClass":
        """I^* a, with the basis-aligned transport (basis entries correspond by index)."""
        self._check_class(a)
        terms = {}
        for (cid, ai), c in a.terms.items():
            partner = self.by_id[cid].involution
            if ai >= len(self.by_id[partner].basis):
                raise BasisMismatch(
                    f"involution transport: basis length mismatch {cid} -> {partner}")
            terms[(partner, ai)] = terms.get((partner, ai), SCALAR_ZERO) + c
        return CohClass(self, terms)

    def spread_untwisted(self, cls: "CohClass") -> "CohClass":
        """Restrict a class on the untwisted sector to every component via q^*."""
        out: Dict[Tuple[str, int], Scalar] = {}
        for comp in self.components:
            restr = comp.untwisted_restriction
            if restr is None:
                continue
            for (cid, j), c in cls.terms.items():
                if cid != "0":
                    raise AssumptionViolated("spread expects an untwisted-sector class")
                for k, w in enumerate(restr[j]):
                    if w:
                        key = (comp.cid, k)
                        out[key] = out.get(key, SCALAR_ZERO) + c * sc(w)
        return CohClass(self, out)

    def _check_class(self, a: "CohClass"):
        if a.target is not self:
            raise BasisMismatch("class belongs to a different target")

    # -- misc ------------------------------------------------------------------

    def orbdeg(self, cid: str, idx: int) -> Frac:
        comp = self.by_id[cid]
        return comp.basis[idx].degree + 2 * comp.age

    def __eq__(self, other) -> bool:
        if other is self:                # a shared built-in target meets itself
            return True
        if not isinstance(other, TargetModel):
            return NotImplemented
        from .config import target_to_obj
        return target_to_obj(self, []) == target_to_obj(other, [])


class CohClass:
    """Sparse class in H^*(IX): map (component id, basis index) -> Scalar."""

    __slots__ = ("target", "terms")

    def __init__(self, target: TargetModel, terms: Dict[Tuple[str, int], Scalar]):
        self.target = target
        self.terms = {k: s for k, v in terms.items() if not (s := sc(v)).is_zero}
        for (cid, idx) in self.terms:
            comp = target.by_id.get(cid)
            if comp is None or not 0 <= idx < len(comp.basis):
                raise BasisMismatch(f"unknown basis slot ({cid}, {idx})")

    @classmethod
    def _valid(cls, target: TargetModel, terms: Dict[Tuple[str, int], Scalar]) -> "CohClass":
        """A class from Scalar terms on slots of ``target`` already checked
        (results of the operations below): zero terms are dropped, nothing
        else is coerced or validated."""
        out = object.__new__(cls)
        out.target = target
        out.terms = {k: v for k, v in terms.items() if not v.is_zero}
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, o: "CohClass") -> "CohClass":
        terms = dict(self.terms)
        for k, v in o.terms.items():
            terms[k] = terms.get(k, SCALAR_ZERO) + v
        if o.target is not self.target:     # o's slots are unchecked for this target
            return CohClass(self.target, terms)
        return CohClass._valid(self.target, terms)

    def __neg__(self) -> "CohClass":
        return CohClass._valid(self.target, {k: -v for k, v in self.terms.items()})

    def __sub__(self, o: "CohClass") -> "CohClass":
        return self + (-o)

    def scale(self, c) -> "CohClass":
        if isinstance(c, (int, Frac)):
            return CohClass._valid(self.target, {k: v.scaled(c) for k, v in self.terms.items()})
        c = sc(c)
        return CohClass._valid(self.target, {k: v * c for k, v in self.terms.items()})

    def mul(self, o: "CohClass") -> "CohClass":
        """Ordinary cup product: componentwise, through the stored tables."""
        out: Dict[Tuple[str, int], Scalar] = {}
        for (cid, ai), ca in self.terms.items():
            comp = self.target.by_id[cid]
            for bi in range(len(comp.basis)):
                cb = o.terms.get((cid, bi))
                if cb is None:
                    continue
                cacb = None
                for gi, w in comp.product(ai, bi).items():
                    if w:
                        if cacb is None:
                            cacb = ca * cb
                        key = (cid, gi)
                        out[key] = out.get(key, SCALAR_ZERO) + cacb.scaled(w)
        return CohClass._valid(self.target, out)

    def degree_part(self, degree: int) -> "CohClass":
        """Terms of real cohomological degree `degree` (use 2k for ch_k)."""
        return CohClass._valid(self.target, {
            (cid, idx): v for (cid, idx), v in self.terms.items()
            if self.target.by_id[cid].basis[idx].degree == degree
        })

    def restrict(self, cid: str) -> "CohClass":
        return CohClass._valid(self.target, {k: v for k, v in self.terms.items() if k[0] == cid})

    def coeff(self, cid: str, idx: int) -> Scalar:
        return self.terms.get((cid, idx), SCALAR_ZERO)

    def exp(self) -> "CohClass":
        """exp of the class, componentwise (``graded_exp`` on one z^0 Q^0 block).

        The degree-0 part must be exp-able as a Scalar (zero or a rational
        multiple of ln lambda); positive-degree parts are nilpotent.
        """
        return graded_exp(self.target, {(0, ()): self}, 0, 0, 0)[(0, ())]

    def nonequiv_limit(self) -> "CohClass":
        return CohClass._valid(self.target, {k: v.nonequiv_limit() for k, v in self.terms.items()})

    def __eq__(self, o) -> bool:
        """Equal values: every constructor drops zero terms and
        ``Scalar.__eq__`` is exact, so the term dicts are equal exactly when
        self - o has no term."""
        if not isinstance(o, CohClass):
            return NotImplemented
        return self.terms == o.terms

    def __repr__(self):
        body = ", ".join(
            f"{self.target.by_id[cid].basis[idx].name}@{cid}: {v.to_obj()}"
            for (cid, idx), v in sorted(self.terms.items())
        )
        return f"CohClass({body})"


Key = Tuple[int, Tuple[int, ...]]


def graded_exp(t: TargetModel, blocks: Dict[Key, CohClass],
               zmin: int, zmax: int, dmax: int) -> Dict[Key, CohClass]:
    """exp of commuting blocks z^n Q^d x, componentwise, on the window (zmin, zmax, dmax).

    ``blocks`` maps (n, d) to a class, as the ``data`` of a WindowedSeries
    (d is a tuple of Novikov degrees, () when there is no Q); blocks outside
    the window are ignored.  On each
    component X_i the (z^0, Q^0, degree-0) scalar is the head, exponentiated
    exactly by ``Scalar.exp`` and applied as a scalar at the end (callers
    ensure it is exp-able).  Every other part splits into pieces z^n Q^d x
    with x homogeneous of real degree deg, of weight w = n + deg + |d|; a
    piece of weight <= 0 raises TruncationTooNarrow.  Cup products on X_i
    are graded (``TargetModel.validate``), so weight is additive and
    D(x) = w x is a derivation; D(E) = D(L) E for E = exp(L) gives the
    weight-graded recurrence (Brent-Kung, JACM 1978)

        E_0 = 1_i,   E_w = (1/w) sum_{u=1..w} (u L_u) E_(w-u),

    with O(W^2) class products, where the power series sum_j L^j / j! takes
    O(W^3).  A block inside the window has weight at most
    zmax + 2 dim X_i + dmax, which is where the recurrence stops.
    The pieces commute, so exp(A + B) = exp(A) exp(B), with A the pieces
    valued in Q[lambda, 1/lambda] (``Scalar.is_laurent``) and B the rest
    (ln(lambda) multiples, mixed values, root indices, zeta).  The
    recurrence runs on A, again on B only when B has a piece (for the Euler
    twist, the nilpotent z^(-1) block ln(lambda) c1(F)), and one window
    product joins the two.  Products outside the window are dropped.  Past
    dmax that is exact, since Novikov degrees only add up, and callers put
    zmin below every block a product can reach.  A product dropped above
    zmax, in a factor or in the join, comes back down only through blocks
    with n < 0, so the blocks promised exact are those no such chain
    reaches: z^n <= zmax - dim X when those blocks are z^(-1) times classes
    of degree >= 2, as in log Delta, the blocks callers keep; the blocks
    above depend on the split.
    """
    d0 = next((zero_deg(len(d)) for _n, d in blocks), ())

    def inside(n: int, d) -> bool:
        return zmin <= n <= zmax and sum(d) <= dmax

    def exp_of(comp, pieces) -> Dict[Key, CohClass]:
        """sum_w E_w on component comp, for the pieces w -> (n, d) -> w L_w."""
        scaled = {w: {k: CohClass._valid(t, terms) for k, terms in by_key.items()}
                  for w, by_key in pieces.items()}
        unit = t.unit(comp.cid)
        E: List[Dict[Key, CohClass]] = [{(0, d0): unit}]
        acc = {(0, d0): unit}
        for w in range(1, zmax + 2 * comp.dim + dmax + 1):
            sums: Dict[Key, CohClass] = {}
            for u, Lu in scaled.items():
                if u > w or not E[w - u]:
                    continue
                # E_0 is the unit, so that product is u L_u itself
                prods = (window_product(Lu, E[w - u], lambda a, b: a.mul(b), inside)
                         if u < w else Lu)
                for k, c in prods.items():
                    sums[k] = sums[k] + c if k in sums else c
            Ew = {k: c.scale(Frac(1, w)) for k, c in sums.items() if not c.is_zero}
            E.append(Ew)
            for k, c in Ew.items():
                acc[k] = acc[k] + c if k in acc else c
        return acc

    out: Dict[Key, CohClass] = {}
    for comp in t.components:
        cid = comp.cid
        head = SCALAR_ZERO
        lane, rest = {}, {}      # w -> (n, d) -> terms of w L_w, for A and for B
        for (n, d), cls in blocks.items():
            if not inside(n, d):
                continue
            for (c, idx), v in cls.terms.items():
                if c != cid:
                    continue
                if n == 0 and idx == 0 and not any(d):
                    head = head + v
                    continue
                w = n + comp.basis[idx].degree + sum(d)
                if w <= 0:
                    raise TruncationTooNarrow(
                        f"block at z^{n} Q^{list(d)} has a piece of weight {w} on "
                        f"component {cid}; the graded exponential needs weight >= 1")
                pieces = lane if v.is_laurent else rest
                pieces.setdefault(w, {}).setdefault((n, d), {})[(cid, idx)] = v.scaled(w)
        acc = exp_of(comp, lane)
        if rest:
            acc = window_product(acc, exp_of(comp, rest), lambda a, b: a.mul(b), inside)
        try:
            scalar_factor = head.exp()
        except ExpObstruction as e:
            raise ExpObstruction(f"component {cid}: head {head.to_obj()}: {e}") from e
        for k, c in acc.items():
            c = c.scale(scalar_factor)
            if not c.is_zero:
                out[k] = out[k] + c if k in out else c
    return out


class BundleModel:
    """Eigen-decomposition data of a bundle on the inertia stack."""

    def __init__(self, name: str, target: TargetModel,
                 eigen: Dict[Tuple[str, int], CohClass],
                 pulled_back: bool = False,
                 c1_pairing: Tuple[Frac, ...] = (),
                 lines: Optional[List[Tuple[Tuple[Frac, ...], CohClass]]] = None):
        self.name = name
        self.target = target
        self.eigen = {k: v for k, v in eigen.items() if not v.is_zero}
        self.pulled_back = pulled_back
        self.c1_pairing = tuple(Frac(x) for x in c1_pairing) or (Frac(0),) * target.curve_rank
        self.lines = lines
        self.validate()

    # -- accessors -------------------------------------------------------------

    def eigen_class(self, cid: str, l: int) -> CohClass:
        comp = self.target.component(cid)
        if not (0 <= l < comp.r):
            raise IndexOutOfRange(f"eigenvalue index {l} outside [0, {comp.r}) on {cid}")
        return self.eigen.get((cid, l), self.target.zero_class())

    def eigen_rank(self, cid: str, l: int) -> Frac:
        """The rank of F_i^(l): the coefficient of the stored class at the
        degree-0 basis entry 0 (``TargetModel.validate`` puts it first)."""
        c0 = self.eigen_class(cid, l).terms.get((cid, 0))
        if c0 is None:
            return Frac(0)
        return c0.as_fraction()

    def eigen_chern(self, cid: str, l: int, k: int) -> CohClass:
        """ch_k(F_i^(l)) as a class on component cid."""
        return self.eigen_class(cid, l).degree_part(2 * k)

    @property
    def rank(self) -> Frac:
        comp = self.target.components[0]
        return sum((self.eigen_rank(comp.cid, l) for l in range(comp.r)), Frac(0))

    def invariant_part(self) -> CohClass:
        """ch((q^*F)^inv): the l = 0 Chern characters, summed over components."""
        out = self.target.zero_class()
        for comp in self.target.components:
            out = out + self.eigen_class(comp.cid, 0)
        return out

    def age_on(self, cid: str) -> Frac:
        comp = self.target.component(cid)
        return sum((Frac(l, comp.r) * self.eigen_rank(cid, l) for l in range(1, comp.r)), Frac(0))

    def twist_class(self, s_values: Sequence[Scalar]) -> CohClass:
        """c((q^*F)^inv) = exp(sum_k s_k ch_k(F^(0))) as a class on IX."""
        log = self.target.zero_class()
        inv = self.invariant_part()
        for k, s_k in enumerate(s_values):
            s_k = sc(s_k)
            if s_k.is_zero:
                continue
            log = log + inv.degree_part(2 * k).scale(s_k)
        return log.exp()

    def sqrt_twist_class(self, s_values: Sequence[Scalar]) -> CohClass:
        """sqrt(c((q^*F)^inv)) = exp of half the log; may introduce lambda^(1/2)."""
        return self.twist_class([sc(s_k) * sc(Frac(1, 2)) for s_k in s_values])

    # -- validation --------------------------------------------------------------

    def validate(self):
        t = self.target
        if len(self.c1_pairing) != t.curve_rank:
            raise InvariantViolation("curve rank", f"c1_pairing of {self.name} has "
                                     f"{len(self.c1_pairing)} entries, not {t.curve_rank}")
        ranks = {}
        for (cid, l), c in self.eigen.items():
            comp = t.component(cid)
            if not (0 <= l < comp.r):
                raise IndexOutOfRange(f"eigen index {l} outside [0, {comp.r}) on {cid}")
            for (cid2, _i) in c.terms:
                if cid2 != cid:
                    raise InvariantViolation("eigen support",
                                             f"eigen class for {cid} has terms on {cid2}")
        for comp in t.components:
            total = sum((self.eigen_rank(comp.cid, l) for l in range(comp.r)), Frac(0))
            ranks[comp.cid] = total
        if len(set(ranks.values())) > 1:
            raise InvariantViolation("rank sum", f"component ranks disagree: {ranks}")
        if self.pulled_back:
            for (cid, l) in self.eigen:
                if l != 0:
                    raise InvariantViolation(
                        "pulled back eigenvalues",
                        f"pulled-back bundle has nonzero F^({l}) on {cid}")
        for comp in t.components:
            partner = comp.involution
            for l in range(comp.r):
                mine = self.eigen_class(comp.cid, l)
                other_l = 0 if l == 0 else comp.r - l
                theirs = self.eigen_class(partner, other_l)
                if t.involution_transport(theirs) != mine:
                    raise InvariantViolation(
                        "eigenbundle involution",
                        f"I^*F_{partner}^({other_l}) != F_{comp.cid}^({l})")
        if self.lines is not None:
            # a split F = sum of lines: untwisted degree-2 classes that add up to
            # c1(F^(0)) on the untwisted sector, with pairings that add up to c1_pairing
            c1_sum, pairing_sum = t.zero_class(), (Frac(0),) * len(self.c1_pairing)
            if len(self.lines) != self.rank:
                raise InvariantViolation("split lines", f"{self.name} has {len(self.lines)} "
                                         f"lines, not one per summand of rank {self.rank}")
            for pairing, c1 in self.lines:
                if any(cid != "0" for cid, _i in c1.terms) or c1.degree_part(2) != c1:
                    raise InvariantViolation("split lines", f"line class {c1} is not an "
                                             "untwisted class of degree 2")
                if len(pairing) != len(pairing_sum):
                    raise InvariantViolation("split lines", f"a line pairing has {len(pairing)} "
                                             f"entries, not {len(pairing_sum)}")
                c1_sum = c1_sum + c1
                pairing_sum = tuple(a + b for a, b in zip(pairing_sum, pairing))
            if pairing_sum != self.c1_pairing:
                raise InvariantViolation("split lines", f"line pairings sum to "
                                         f"{list(map(str, pairing_sum))}, not the c1_pairing "
                                         f"{list(map(str, self.c1_pairing))}")
            if c1_sum != self.eigen_class("0", 0).degree_part(2):
                raise InvariantViolation("split lines", f"line classes sum to {c1_sum}, not "
                                         "the degree-2 part of F^(0) on component 0")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BundleModel):
            return NotImplemented
        if self.target.by_id.keys() != other.target.by_id.keys():
            return False
        if self.pulled_back != other.pulled_back or self.c1_pairing != other.c1_pairing:
            return False
        keys = set(self.eigen) | set(other.eigen)
        return all(self.eigen_class(*k) == other.eigen_class(*k) for k in keys)
