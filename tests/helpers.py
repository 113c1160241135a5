"""Shared test utilities: random classes, invariant-respecting random bundles,
a small P^1 correlator table and random dimension-respecting tables."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from orbiqrr.exactalg import sc
from orbiqrr.genus0 import CorrelatorTable
from orbiqrr.orbtarget import BundleModel, CohClass, TargetModel, projective_space

Frac = Fraction


def rand_frac(rng: random.Random, lo=-6, hi=6, den=4) -> Frac:
    return Frac(rng.randint(lo, hi), rng.randint(1, den))


def random_class(t: TargetModel, rng: random.Random) -> CohClass:
    terms = {}
    for cid, idx in t.flat_basis:
        if rng.random() < 0.7:
            v = rand_frac(rng)
            if v:
                terms[(cid, idx)] = sc(v)
    return CohClass(t, terms)


def random_bundle(t: TargetModel, rng: random.Random, rank: int | None = None) -> BundleModel:
    """Random eigen data satisfying rank-sum and involution compatibility.

    Data is assigned on one representative of each involution orbit and
    mirrored through l -> r_i - l; self-paired sectors get symmetric data by
    construction because mirroring them rewrites the same slots consistently.
    """
    rank = rank if rank is not None else rng.randint(1, 3)
    eigen = {}
    done = set()
    for comp in t.components:
        if comp.cid in done:
            continue
        partner = comp.involution
        # random composition of `rank` into comp.r parts
        parts = [0] * comp.r
        for _ in range(rank):
            parts[rng.randrange(comp.r)] += 1
        for l, rk in enumerate(parts):
            if rk == 0:
                continue
            terms = {(comp.cid, 0): sc(rk)}
            # random nilpotent chern parts, same coefficients mirrored
            extras = {}
            for idx in range(1, len(comp.basis)):
                if rng.random() < 0.5:
                    v = rand_frac(rng)
                    if v:
                        extras[idx] = v
            for idx, v in extras.items():
                terms[(comp.cid, idx)] = sc(v)
            eigen[(comp.cid, l)] = CohClass(t, terms)
            if partner != comp.cid:
                lp = 0 if l == 0 else comp.r - l
                pterms = {(partner, 0): sc(rk)}
                for idx, v in extras.items():
                    pterms[(partner, idx)] = sc(v)
                eigen[(partner, lp)] = CohClass(t, pterms)
        done.add(comp.cid)
        done.add(partner)
    # self-paired sectors need rank_l == rank_{r-l}; rebuild them symmetrically
    for comp in t.components:
        if comp.involution == comp.cid and comp.r > 1:
            parts = [0] * comp.r
            budget = rank
            l = 0
            while budget > 0:
                choice = rng.randrange(comp.r)
                mirror = (comp.r - choice) % comp.r
                if choice == mirror:
                    parts[choice] += 1
                    budget -= 1
                elif budget >= 2:
                    parts[choice] += 1
                    parts[mirror] += 1
                    budget -= 2
                else:
                    parts[0] += 1
                    budget -= 1
            for l in range(comp.r):
                key = (comp.cid, l)
                eigen.pop(key, None)
                if parts[l]:
                    eigen[key] = CohClass(t, {(comp.cid, 0): sc(parts[l])})
    return BundleModel("random", t, eigen, pulled_back=False,
                       c1_pairing=(Frac(0),) * t.curve_rank)


def p1_table():
    """(P^1, a table of its classical degree <= 1 numbers): the point class
    is "p", <p,p>_{0,2,1} = <p,p,p>_{0,3,1} = <p,p,p,p>_{0,4,1} = 1,
    <1 psi, p, p, p>_{0,4,1} = 1 (dilaton), <1,1,p>_{0,3,0} = 1."""
    t = projective_space(1)
    table = CorrelatorTable(t)
    one, p = ("0", 0), ("0", 1)
    table.set((0,), [(one, 0), (one, 0), (p, 0)], sc(1))
    table.set((1,), [(p, 0), (p, 0)], sc(1))
    table.set((1,), [(p, 0), (p, 0), (p, 0)], sc(1))
    table.set((1,), [(p, 0), (p, 0), (p, 0), (p, 0)], sc(1))
    table.set((1,), [(one, 0), (p, 0), (p, 0)], sc(0))
    table.set((1,), [(one, 1), (p, 0), (p, 0)], sc(0))
    table.set((1,), [(one, 1), (p, 0), (p, 0), (p, 0)], sc(1))
    return t, table


def random_table(t, nmax: int, dmax: int, fill: float, rng: random.Random) -> CorrelatorTable:
    """Random small rationals (zero among them) at the dimension-valid keys of
    stable moduli with n <= nmax and total degree <= dmax; each stored with
    probability ``fill``, so that the others are missing."""
    table = CorrelatorTable(t)
    letters = [(slot, k) for slot in t.flat_basis for k in range(nmax - 2)]
    for d in range(dmax + 1):
        for n in range(3 if d == 0 else 2, nmax + 1):
            for ins in combinations_with_replacement(letters, n):
                if table.dimension_ok((d,), ins) and rng.random() < fill:
                    table.set((d,), ins, sc(Frac(rng.randint(-2, 2), rng.randint(1, 2))))
    return table
