"""Matrices and spreads derived from ``CohClass.mul`` against the walks they replaced.

``multiplication_matrix`` builds column j as cls.mul(e_j), ``twisted_gram``
is M^T g with M the multiplication matrix of the twist class, and
``TargetModel.spread_untwisted`` is the one reader of the restriction maps.
The functions below are the old code written out: a second walk of the
product table, the n^2 loop of twisted pairings of basis classes, and the
spread as it stood in the Lefschetz module.  Entries must agree in
``to_obj``, so equal values must also have one canonical form.
``CohClass.__eq__`` is checked against the difference it replaced.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiqrr.errors import AssumptionViolated
from orbiqrr.exactalg import SCALAR_ONE, SCALAR_ZERO, Scalar, root_of_unity, sc
from orbiqrr.linalg import multiplication_matrix
from orbiqrr.loopops import twisted_gram
from orbiqrr.orbtarget import (
    CohClass,
    bmu,
    dump_target,
    load_target,
    point,
    projective_space,
    weighted_projective,
)

from helpers import rand_frac, random_bundle, random_class


def old_multiplication_matrix(t, cls):
    n = len(t.flat_basis)
    out = [[SCALAR_ZERO] * n for _ in range(n)]
    for j, (cid, beta) in enumerate(t.flat_basis):
        comp = t.by_id[cid]
        for (cid2, alpha), c in cls.terms.items():
            if cid2 != cid:
                continue
            for gamma, w in comp.product(alpha, beta).items():
                if w:
                    i = t.flat_index[(cid, gamma)]
                    out[i][j] = out[i][j] + c * sc(w)
    return out


def old_spread_untwisted(t, cls):
    out = {}
    for comp in t.components:
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
    return CohClass(t, out)


def old_twisted_gram(t, F, s_values):
    tw = F.twist_class([sc(x) for x in s_values])
    n = len(t.flat_basis)
    out = [[SCALAR_ZERO] * n for _ in range(n)]
    for i, (cid_a, ai) in enumerate(t.flat_basis):
        a_tw = CohClass(t, {(cid_a, ai): SCALAR_ONE}).mul(tw)
        for j, (cid_b, bi) in enumerate(t.flat_basis):
            val = t.orbifold_pairing(a_tw, CohClass(t, {(cid_b, bi): SCALAR_ONE}))
            if not val.is_zero:
                out[i][j] = val
    return out


TARGETS = ([point()] + [bmu(r) for r in range(2, 6)]
           + [projective_space(n) for n in range(1, 4)]
           + [weighted_projective(w) for w in ([1, 1, 2], [1, 2, 3], [1, 2, 2])])


def rand_scalar(rng: random.Random) -> Scalar:
    """A rational, a rational times lambda^(+-k), a + b ln(lambda), or a zeta multiple."""
    q = sc(rand_frac(rng))
    kind = rng.randrange(4)
    if kind == 1:
        return q * Scalar.lam(rng.choice([-3, -2, -1, 1, 2, 3]))
    if kind == 2:
        return q * Scalar.log_lambda() + sc(rand_frac(rng))
    if kind == 3:
        return q * root_of_unity(rng.randint(2, 5), rng.randint(1, 4))
    return q


def rand_class(t, rng: random.Random, cids=None) -> CohClass:
    return CohClass(t, {slot: rand_scalar(rng) for slot in t.flat_basis
                        if (cids is None or slot[0] in cids) and rng.random() < 0.7})


def as_obj(m):
    return [[x.to_obj() for x in row] for row in m]


@settings(max_examples=60, deadline=None)
@given(t=st.sampled_from(TARGETS), seed=st.integers(0, 2 ** 32 - 1))
def test_multiplication_matrix(t, seed):
    cls = rand_class(t, random.Random(seed))
    assert as_obj(multiplication_matrix(t, cls)) == as_obj(old_multiplication_matrix(t, cls))


@settings(max_examples=60, deadline=None)
@given(t=st.sampled_from(TARGETS), seed=st.integers(0, 2 ** 32 - 1))
def test_spread_untwisted(t, seed):
    rng = random.Random(seed)
    cls = rand_class(t, rng, cids={"0"})
    got, want = t.spread_untwisted(cls), old_spread_untwisted(t, cls)
    assert {k: v.to_obj() for k, v in got.terms.items()} == \
        {k: v.to_obj() for k, v in want.terms.items()}
    twisted = [c.cid for c in t.components if c.cid != "0"]
    if twisted:
        bad = cls + CohClass(t, {(rng.choice(twisted), 0): SCALAR_ONE})
        for spread in (t.spread_untwisted, lambda c: old_spread_untwisted(t, c)):
            with pytest.raises(AssumptionViolated):
                spread(bad)


def test_spread_reaches_twisted_sectors():
    """On WPS(1,2,2) the hyperplane class restricts to h on the P^1 sector."""
    t = weighted_projective([1, 2, 2])
    h = t.basis_class("0", "h")
    assert t.spread_untwisted(h) == h + t.basis_class("1/2", "h")


@settings(max_examples=30, deadline=None)
@given(t=st.sampled_from(TARGETS), seed=st.integers(0, 2 ** 32 - 1),
       log=st.booleans())
def test_twisted_gram(t, seed, log):
    rng = random.Random(seed)
    F = random_bundle(t, rng)
    s = [Scalar.log_lambda() if log else sc(0)] + [sc(rand_frac(rng)) for _ in range(3)]
    assert as_obj(twisted_gram(t, F, s)) == as_obj(old_twisted_gram(t, F, s))


_P2 = projective_space(2)
_P2_COPY = load_target(dump_target(_P2, []))[0]
EQ_TARGETS = ([point()] + [bmu(r) for r in range(2, 6)]
              + [weighted_projective(w) for w in ([1, 1, 2], [1, 2, 3], [1, 2, 2])] + [_P2])


def _eq_pairs(t, rng: random.Random):
    """Pairs of classes on t (the second on a config copy when t is P2) that
    are equal, equal after a round trip through arithmetic, or unequal by one
    value, one missing term or everything."""
    other = _P2_COPY if t is _P2 else t
    a = random_class(t, rng) if rng.random() < 0.5 else rand_class(t, rng)
    b = rand_class(t, rng)
    pairs = [(a, CohClass(other, dict(a.terms))), (a, (a + b) - b), (a, b),
             (a.scale(Scalar.lam(1)), a.scale(Scalar.lam(2) * Scalar.lam(-1))),
             (a.scale(root_of_unity(6, 1)), a.scale(root_of_unity(3, 1) + SCALAR_ONE))]
    if a.terms:
        slot = rng.choice(sorted(a.terms))
        bumped = dict(a.terms)
        bumped[slot] = bumped[slot] + sc(rng.choice([-1, 1]) * rand_frac(rng, 1, 6))
        pairs.append((a, CohClass(other, bumped)))
        pairs.append((a, CohClass(other, {k: v for k, v in a.terms.items() if k != slot})))
    return pairs


@settings(max_examples=60, deadline=None)
@given(t=st.sampled_from(EQ_TARGETS), seed=st.integers(0, 2 ** 32 - 1))
def test_class_equality_is_the_zero_difference(t, seed):
    """``CohClass.__eq__`` compares term dicts; it must agree with
    (a - b).is_zero, the test it replaced, both ways round, also against a
    class on a config copy of P2."""
    for a, b in _eq_pairs(t, random.Random(seed)):
        assert (a == b) == (a - b).is_zero
        assert (b == a) == (b - a).is_zero
    a = rand_class(t, random.Random(seed))
    assert a == CohClass(t, dict(a.terms)) and a == a.scale(SCALAR_ONE)
    if a.terms:
        assert a != a.scale(sc(2)) and a != t.zero_class()
