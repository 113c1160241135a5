"""Built-in targets: point, B(mu_r), P^n, weighted projective stacks.

Conventions:
  * the stacky integral over [pt/mu_r] is 1/r, and over P(w_0..w_n) the top
    hyperplane power integrates to 1/(w_0...w_n);
  * for B(mu_r), the component of a group element g records r_i = order(g),
    the order of the automorphism, not the group order;
  * weighted projective sectors are indexed by the fractions f = k/w_j, with
    age(X_f) = sum_j <f w_j> and involution f -> -f mod 1.

The four target builders are memoised: a process builds and validates each
built-in target once (up to 64 of each kind), and every later call with the
same parameters returns that same object.  The three bundle builders keep
what they build on the target object (``TargetModel.keep``): a second call
with the same target and integer returns the bundle of the first, so a
built-in target shares its bundles with every caller in the process, and a
config target's bundles die with it (a config copy named P4 never gets the
built-in P4's O5).  Built-in targets and their bundles are therefore shared
and must be treated as immutable; a target's only mutable state is its
memos (``gram``, ``gram_inverse``, ``keep``), which depend on nothing but
the target and their keys.  Invalid parameters raise on every call (a
raised exception is not memoised).  Targets loaded from a config file are
built fresh each time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, Sequence, Tuple

from ..errors import InvalidParams
from ..exactalg import SCALAR_ONE, sc
from .model import BasisClass, BundleModel, CohClass, Component, TargetModel

Frac = Fraction


def _projective_component(cid: str, r: int, age: Frac, involution: str,
                          dim: int, integral: Frac, hname: str = "h",
                          untwisted_dim: int | None = None) -> Component:
    """The truncated polynomial ring Q[h]/h^(dim+1), int h^dim = integral; at
    dim 0 a point sector.  h pairs to 1 with the curve class."""
    basis = [BasisClass("1", 0)]
    for k in range(1, dim + 1):
        basis.append(BasisClass(hname if k == 1 else f"{hname}^{k}", 2 * k,
                                (Frac(1),) if k == 1 else ()))
    pairing = [[integral if a + b == dim else Frac(0) for b in range(dim + 1)]
               for a in range(dim + 1)]
    mult = {}
    for a in range(dim + 1):
        for b in range(a, dim + 1):
            mult[(a, b)] = {a + b: Frac(1)} if a + b <= dim else {}
    udim = dim if untwisted_dim is None else untwisted_dim
    restriction = [[Frac(1) if (j == k and k <= dim) else Frac(0)
                    for k in range(dim + 1)] for j in range(udim + 1)]
    return Component(cid=cid, r=r, age=age, involution=involution,
                     basis=basis, pairing=pairing, mult=mult,
                     untwisted_restriction=restriction)


@lru_cache(maxsize=64)
def point() -> TargetModel:
    return TargetModel("point", dim=0, curve_rank=1,
                       components=[_projective_component("0", 1, Frac(0), "0", 0, Frac(1))],
                       c1_tangent_pairing=(Frac(0),))


@lru_cache(maxsize=64)
def bmu(r: int) -> TargetModel:
    """B(mu_r): one point sector per group element, each with integral 1/r."""
    if r < 1:
        raise InvalidParams("B(mu_r) needs r >= 1")
    comps = []
    for k in range(r):
        cid = str(k)
        order = r // gcd(r, k) if k else 1
        involution = str((r - k) % r)
        comps.append(_projective_component(cid, order, Frac(0), involution, 0, Frac(1, r)))
    return TargetModel(f"Bmu{r}", dim=0, curve_rank=1, components=comps,
                       c1_tangent_pairing=(Frac(0),))


@lru_cache(maxsize=64)
def projective_space(n: int) -> TargetModel:
    if n < 1:
        raise InvalidParams("P^n needs n >= 1")
    comp = _projective_component("0", 1, Frac(0), "0", n, Frac(1), hname="p")
    return TargetModel(f"P{n}", dim=n, curve_rank=1, components=[comp],
                       c1_tangent_pairing=(Frac(n + 1),))


def weighted_projective(weights: Sequence[int]) -> TargetModel:
    """P(w_0..w_n); a list and a tuple of the same weights give one object."""
    return _weighted_projective(tuple(weights))


@lru_cache(maxsize=64)
def _weighted_projective(weights: Tuple[int, ...]) -> TargetModel:
    if not weights or any(w < 1 for w in weights):
        raise InvalidParams("weights must be positive integers")
    dim = len(weights) - 1
    fracs = sorted({Frac(k, w) for w in weights for k in range(w)})
    comps = []
    for f in fracs:
        support = [w for w in weights if (f * w).denominator == 1]
        sub_dim = len(support) - 1
        if sub_dim < 0:
            continue
        # age(X_f) = sum_j <f w_j>, the fractional parts of the weight action
        age = sum((f * w - (f * w).numerator // (f * w).denominator for w in weights), Frac(0))
        integral = Frac(1)
        for w in support:
            integral /= w
        cid = "0" if f == 0 else str(f)
        inv_f = (-f) % 1
        inv_id = "0" if inv_f == 0 else str(inv_f)
        r = f.denominator
        comps.append(_projective_component(cid, r, age, inv_id, sub_dim, integral,
                                           hname="h", untwisted_dim=dim))
    name = "WPS(" + ",".join(str(w) for w in weights) + ")"
    return TargetModel(name, dim=dim, curve_rank=1, components=comps,
                       c1_tangent_pairing=(Frac(sum(weights)),))


# -- bundle constructors --------------------------------------------------------


def trivial_bundle(t: TargetModel, rank: int = 1) -> BundleModel:
    """Rank-r trivial bundle: invariant on every sector, ch = rank; named
    ``trivial``, or ``trivial:<r>`` for r != 1."""
    def build():
        eigen = {(c.cid, 0): CohClass(t, {(c.cid, 0): sc(rank)}) for c in t.components}
        return BundleModel("trivial" if rank == 1 else f"trivial:{rank}", t, eigen,
                           pulled_back=True, c1_pairing=(Frac(0),) * t.curve_rank)
    return t.keep(("trivial", rank), build)


def bmu_character(t: TargetModel, j: int) -> BundleModel:
    """The character chi_j of mu_r as a line bundle on B(mu_r).

    On the sector of g = u^k it contributes the eigenvalue zeta_r^{jk},
    i.e. the eigen index l = (jk mod r) / gcd(r, k) relative to r_i.  Any
    target other than B(mu_r), r its number of components, is InvalidParams.
    """
    r = len(t.components)
    if t != bmu(r):
        raise InvalidParams(f"the character chi_{j} needs a B(mu_r) target, not {t.name}")

    def build():
        eigen: Dict[Tuple[str, int], CohClass] = {}
        for k in range(r):
            cid = str(k)
            g = gcd(r, k) if k else r
            l = ((j * k) % r) // g
            eigen[(cid, l)] = CohClass(t, {(cid, 0): SCALAR_ONE})
        return BundleModel(f"char{j}", t, eigen, pulled_back=(j % r == 0),
                           c1_pairing=(Frac(0),))
    return t.keep(("char", j), build)


def wps_pullback_line(t: TargetModel, m: int) -> BundleModel:
    """A line bundle pulled back from the coarse space of a WPS target.

    Invariant on every sector; the Chern character restricts through the
    stored untwisted restriction maps (so it truncates on small sectors).
    """
    def build():
        eigen = {}
        c1_class = None
        for comp in t.components:
            d = comp.dim
            terms = {}
            fact = 1
            for k in range(d + 1):
                if k:
                    fact *= k
                terms[(comp.cid, k)] = sc(Frac(m ** k, fact))
            eigen[(comp.cid, 0)] = CohClass(t, terms)
            if comp.cid == "0" and d >= 1:
                c1_class = CohClass(t, {("0", 1): sc(m)})
        return BundleModel(f"O{m}", t, eigen, pulled_back=True,
                           c1_pairing=(Frac(m),),
                           lines=[((Frac(m),), c1_class or t.zero_class())])
    return t.keep(("O", m), build)
