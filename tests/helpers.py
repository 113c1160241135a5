"""Shared test utilities: random classes, invariant-respecting random bundles,
a small P^1 correlator table, random dimension-respecting tables, and the
probe-polynomial commutator cocycle that the contraction code is checked
against."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from orbiqrr.errors import TruncationTooNarrow
from orbiqrr.exactalg import SCALAR_ONE, sc
from orbiqrr.fockquant import FockPolynomial, quantize_monomial
from orbiqrr.genus0 import CorrelatorTable, build_point_table
from orbiqrr.linalg import mat_is_zero, mat_mul, multiplication_matrix
from orbiqrr.orbtarget import (
    BundleModel,
    CohClass,
    TargetModel,
    point,
    projective_space,
    wps_pullback_line,
)

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


def own_point_table(nmax: int) -> CorrelatorTable:
    """A copy of the point table to change: ``build_point_table`` returns the
    table the point keeps for every caller."""
    shared = build_point_table(point(), nmax)
    table = CorrelatorTable(shared.target)
    table.entries = dict(shared.entries)
    return table


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


def scaled(p: FockPolynomial, c) -> FockPolynomial:
    """c * p, term by term."""
    out = FockPolynomial(p.target, p.kmax, p.degmax)
    for mono, coeffs in p.terms.items():
        for h, x in coeffs.items():
            out.add_term(mono, h, x * sc(c))
    return out


def probe_commutator_cocycle(t: TargetModel, A, B, K: int):
    """Scalar part of [A^, B^] - {A, B}^ by applying it to probe polynomials.

    The scalar is read off the residual on the constant 1.  The residual
    minus that scalar must then kill exactly these probes, where
    ksafe = K - |m_1| - |m_2| keeps index truncation from leaking in:
    q_k^a for 0 <= k < max(ksafe, 1), and q_k^a q_{k+1}^a for
    0 <= k < max(ksafe - 1, 1), over every basis index a.  Otherwise it
    raises TruncationTooNarrow.
    """
    (B1, m1), (B2, m2) = A, B
    if K < abs(m1) + abs(m2) + 2:
        raise TruncationTooNarrow(f"need K >= |m|+|m'|+2 = {abs(m1) + abs(m2) + 2}")
    op1 = quantize_monomial(t, B1, m1, K)
    op2 = quantize_monomial(t, B2, m2, K)
    M1, M2 = (multiplication_matrix(t, X) if isinstance(X, CohClass) else X
              for X in (B1, B2))
    LC = [[x - y for x, y in zip(r12, r21)]
          for r12, r21 in zip(mat_mul(M1, M2), mat_mul(M2, M1))]
    bracket = None
    if not mat_is_zero(LC):
        bracket = quantize_monomial(t, LC, m1 + m2, K, check=False)

    ksafe = K - abs(m1) - abs(m2)
    nb = len(t.flat_basis)
    degmax = 4

    def residual(p: FockPolynomial) -> FockPolynomial:
        r = op1.apply(op2.apply(p)) - op2.apply(op1.apply(p))
        if bracket is not None:
            r = r - bracket.apply(p)
        return r

    one = FockPolynomial(t, K, degmax)
    one.add_term((), 0, SCALAR_ONE)
    scalar = residual(one).coeff((), 0)
    probes = []
    for k in range(0, max(ksafe, 1)):
        for a in range(nb):
            p = FockPolynomial(t, K, degmax)
            p.add_term(((k, a),), 0, SCALAR_ONE)
            probes.append(p)
    for k in range(0, max(ksafe - 1, 1)):
        for a in range(nb):
            p = FockPolynomial(t, K, degmax)
            p.add_term(((k, a), (k + 1, a)), 0, SCALAR_ONE)
            probes.append(p)
    for p in probes:
        if not (residual(p) - scaled(p, scalar)).is_zero:
            raise TruncationTooNarrow(
                "commutator residual is not scalar on the safe index range")
    return scalar


def split_bundle(t: TargetModel, degrees) -> BundleModel:
    """O(m_1) + O(m_2) + ... on P^n, one ``lines`` entry per summand."""
    ch = t.zero_class()
    for m in degrees:
        ch = ch + wps_pullback_line(t, m).eigen_class("0", 0)
    lines = [((Frac(m),), CohClass(t, {("0", 1): sc(m)})) for m in degrees]
    return BundleModel("+".join(f"O{m}" for m in degrees), t, {("0", 0): ch},
                       pulled_back=True, c1_pairing=(Frac(sum(degrees)),), lines=lines)
