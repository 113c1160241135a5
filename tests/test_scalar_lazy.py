"""The canonical form of a lane Scalar, built on first read.

A Scalar on the rational or the Laurent lane holds its value in the lane;
its canonical form ``ell`` is built from the lane the first time something
reads it.  That form must be the one the general constructor normalises the
same value to, with the same equality, hash and serialisation.  The lane
operations, the lambda -> 0 limit, and the classes built from their results,
must not build it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiqrr.errors import PoleAtZero
from orbiqrr.exactalg import SCALAR_ONE, SCALAR_ZERO, Cyc, Scalar, sc
from orbiqrr.exactalg.cyclotomic import CYC_ONE, CYC_ZERO
from orbiqrr.exactalg.scalar import RatFunc, _from_lau
from orbiqrr.genus0 import j_closed_form_Pn
from orbiqrr.genus0.lefschetz import nonequivariant_limit
from orbiqrr.orbtarget import CohClass, projective_space

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=9)


def general_form(shift, coeffs):
    """sum_i coeffs[i] lambda^(shift + i), normalised by the general constructor."""
    num = [Cyc.from_fraction(c) for c in coeffs]
    if shift >= 0:
        return Scalar((RatFunc([CYC_ZERO] * shift + num, [CYC_ONE]),), 1)
    return Scalar((RatFunc(num, [CYC_ZERO] * -shift + [CYC_ONE]),), 1)


def lane_form(shift, coeffs):
    """The same value through ``_from_lau``: zeros trimmed at both ends first."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    low = 0
    while low < len(coeffs) and not coeffs[low]:
        low += 1
    return _from_lau(shift + low, tuple(coeffs[low:]))


def structure(x):
    """Every level of the canonical form, Cyc orders included."""
    def cycs(p):
        return tuple((c.order, c.coeffs) for c in p)
    return x.lam_den, tuple((cycs(rf.num), cycs(rf.den)) for rf in x.ell)


def assert_agrees_with_the_general_path(lazy, want):
    assert lazy == want and want == lazy
    assert hash(lazy) == hash(want)
    assert lazy.to_obj() == want.to_obj()
    assert structure(lazy) == structure(want)
    assert lazy.ell is lazy.ell       # built once, then kept


@settings(max_examples=300, deadline=None)
@given(rationals)
def test_a_rational_builds_the_general_form(q):
    lazy = sc(q)
    assert_agrees_with_the_general_path(lazy, general_form(0, [q]))
    assert lazy.is_zero == (q == 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(-6, 6),
       st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=1, max_size=6))
def test_a_laurent_value_builds_the_general_form(shift, coeffs):
    lazy = lane_form(shift, coeffs)
    want = general_form(shift, coeffs)
    assert lazy._lau == want._lau
    assert_agrees_with_the_general_path(lazy, want)
    # a value read only through its lanes still serialises and hashes the same
    assert_agrees_with_the_general_path(lane_form(shift, coeffs), want)


def test_lane_results_leave_the_form_unbuilt():
    a, b = sc(Fraction(2, 3)), sc(Fraction(-5, 7))
    x = _from_lau(-2, (Fraction(2), Fraction(0), Fraction(5)))      # 2/lambda^2 + 5
    y = _from_lau(1, (Fraction(-1, 3), Fraction(4)))                # -lambda/3 + 4 lambda^2
    values = [a, b, x, y]
    results = []
    for u in values:
        results += [-u, u.scaled(3), u.scaled(Fraction(-1, 4))]
        for v in values:
            results += [u + v, u - v, u * v]
    results = [r for r in results if r is not SCALAR_ZERO and r is not SCALAR_ONE]
    assert len(results) > 40
    # the zero and invertibility tests read the lanes too
    assert not any(r.is_zero for r in results)
    assert all(r.is_invertible for r in results)
    assert all(r._ell is None for r in results)

    t = projective_space(2)
    c = CohClass(t, dict(zip(t.flat_basis, [a, x, y])))
    classes = [c + c, c - c.scale(2), -c, c.scale(Fraction(1, 2)), c.scale(y), c.mul(c)]
    terms = [v for cls in classes for v in cls.terms.values()]
    assert len(terms) > 10
    assert all(v._ell is None for v in terms if v is not SCALAR_ONE)


def limit_through_the_form(x):
    """lambda -> 0 read off the canonical form: u = 0 in its one l-part."""
    if not x.ell:
        return SCALAR_ZERO
    (rf,) = x.ell
    return Scalar.from_cyc(rf.eval_at_zero())


def outcome(limit, x):
    try:
        return limit(x).to_obj()
    except PoleAtZero:
        return PoleAtZero


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 3),
       st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=1, max_size=6))
def test_the_lane_limit_is_the_limit_of_the_form(shift, coeffs):
    want = outcome(limit_through_the_form, general_form(shift, coeffs))
    lazy = lane_form(shift, coeffs)
    assert outcome(Scalar.nonequiv_limit, lazy) == want
    assert lazy._ell is None or lazy is SCALAR_ZERO or lazy is SCALAR_ONE
    if want is not PoleAtZero:
        assert lazy.nonequiv_limit() == limit_through_the_form(general_form(shift, coeffs))


@settings(max_examples=300, deadline=None)
@given(rationals)
def test_a_rational_is_its_own_limit(q):
    assert outcome(Scalar.nonequiv_limit, sc(q)) == \
        outcome(limit_through_the_form, general_form(0, [q])) == str(q)


def test_the_limit_of_a_pole_names_it():
    with pytest.raises(PoleAtZero, match="pole at lambda = 0"):
        _from_lau(-1, (Fraction(3), Fraction(1))).nonequiv_limit()


def test_the_limit_of_a_closed_form_j_builds_no_form():
    j = j_closed_form_Pn(4, 3)
    lim = nonequivariant_limit(j)
    for e in (j.series, lim.series):
        terms = [v for cls in e.data.values() for v in cls.terms.values()]
        assert len(terms) >= 16
        assert all(v._ell is None for v in terms if v is not SCALAR_ONE)
