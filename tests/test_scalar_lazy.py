"""The JSON form and the RatFunc view of a Scalar, read off its one form.

A Scalar holds the map of its monomials c ln(lambda)^i lambda^e.  Its ``to_obj``
and its read-only ``ell`` view must be the form the RatFunc constructor
normalises the same value to at the JSON boundary ("the general form"),
with the same equality and hash.  Arithmetic, the lambda -> 0 limit and the
classes built from their results never build a RatFunc: the RatFunc form is
left unbuilt.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbiqrr.errors import LogObstruction, PoleAtZero
from orbiqrr.exactalg import Cyc, Scalar, parse_scalar, root_of_unity, sc
from orbiqrr.exactalg.scalar import RatFunc
from orbiqrr.genus0 import j_closed_form_Pn
from orbiqrr.genus0.lefschetz import nonequivariant_limit
from orbiqrr.orbtarget import CohClass, projective_space
from scalar_oracle import assert_value, laurents, o_limit, rational, read_coeff, scalar_of, values

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=9)


def general_form(shift, coeffs):
    """sum_i coeffs[i] lambda^(shift + i), normalised by the RatFunc constructor."""
    num = [str(c) for c in coeffs]
    if shift >= 0:
        return parse_scalar({"num": ["0"] * shift + num, "den": ["1"]})
    return parse_scalar({"num": num, "den": ["0"] * -shift + ["1"]})


def by_arithmetic(shift, coeffs):
    """The same value as a sum of lambda powers."""
    out = sc(0)
    for i, q in enumerate(coeffs):
        out = out + Scalar.lam(shift + i).scaled(q)
    return out


def structure(x):
    """Every level of the RatFunc view, Cyc orders included."""
    def cycs(p):
        return tuple((c.order, c.coeffs) for c in p)
    return x.lam_den, tuple((cycs(rf.num), cycs(rf.den)) for rf in x.ell)


def assert_agrees_with_the_general_path(x, want):
    assert x == want and want == x
    assert hash(x) == hash(want)
    assert x.to_obj() == want.to_obj()
    assert structure(x) == structure(want)


def no_ratfunc(*args, **kwargs):
    raise AssertionError("arithmetic built a RatFunc")


@settings(max_examples=300, deadline=None)
@given(rationals)
@example(Fraction(0))     # zero has no l-part, so its view is empty
def test_a_rational_builds_the_general_form(q):
    x = sc(q)
    assert_agrees_with_the_general_path(x, general_form(0, [q]))
    assert x.is_zero == (q == 0)
    assert hash(x) == hash(q)
    assert structure(x) == (1, ((((1, (q,)),), ((1, (Fraction(1),)),)),) if q else ())


@settings(max_examples=300, deadline=None)
@given(st.integers(-6, 6),
       st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=1, max_size=6))
def test_a_laurent_value_builds_the_general_form(shift, coeffs):
    want = general_form(shift, coeffs)
    x = by_arithmetic(shift, coeffs)
    assert_agrees_with_the_general_path(x, want)
    # every den of the view is the monic u^b, and num has no factor u in common with it
    for rf in x.ell:
        assert all(c.is_zero for c in rf.den[:-1]) and rf.den[-1] == Cyc.from_fraction(1)
        assert len(rf.den) == 1 or not rf.num[0].is_zero


@settings(max_examples=100, deadline=None)
@given(values(min_terms=1))
def test_the_view_is_the_json_form(a):
    """Each RatFunc of ``ell`` prints as the matching part of ``to_obj``."""
    x = scalar_of(a)
    obj = x.to_obj()
    parts = [obj] if isinstance(obj, str) else obj.get("ell", [obj])
    assert len(x.ell) == len(parts)
    for rf, part in zip(x.ell, parts):
        if isinstance(part, str):
            assert (rf.num, rf.den) == ((Cyc.from_fraction(Fraction(part)),),
                                       (Cyc.from_fraction(1),))
        else:
            assert list(rf.num) == [read_coeff(c) for c in part["num"]]
            assert list(rf.den) == [read_coeff(c) for c in part["den"]]


def test_lane_results_leave_the_form_unbuilt(monkeypatch):
    a, b = sc(Fraction(2, 3)), sc(Fraction(-5, 7))
    x = by_arithmetic(-2, [2, 0, 5])                              # 2/lambda^2 + 5
    y = by_arithmetic(1, [Fraction(-1, 3), 4])                    # -lambda/3 + 4 lambda^2
    z = root_of_unity(12, 5) * Scalar.lam(Fraction(-1, 4)) + Scalar.log_lambda()
    values_ = [a, b, x, y, z]
    t = projective_space(2)
    monkeypatch.setattr(RatFunc, "__init__", no_ratfunc)
    results = []
    for u in values_:
        results += [-u, u.scaled(3), u.scaled(Fraction(-1, 4))]
        for v in values_:
            results += [u + v, u - v, u * v]
            if v.is_invertible:
                results.append(u / v)
    results += [y.nonequiv_limit(), a.nonequiv_limit()]
    assert len(results) > 80
    assert sum(r.is_invertible for r in results) > 10
    c = CohClass(t, dict(zip(t.flat_basis, [a, x, z])))
    classes = [c + c, c - c.scale(2), -c, c.scale(Fraction(1, 2)), c.scale(y), c.mul(c)]
    assert sum(len(cls.terms) for cls in classes) > 10
    monkeypatch.undo()
    for r in results:
        assert r == parse_scalar(r.to_obj())


def outcome(fn, x):
    try:
        return fn(x)
    except (PoleAtZero, LogObstruction) as e:
        return type(e)


@settings(max_examples=300, deadline=None)
@given(st.one_of(laurents, values()))
def test_the_lane_limit_is_the_limit_of_the_form(a):
    want = outcome(o_limit, a)
    got = outcome(Scalar.nonequiv_limit, scalar_of(a))
    if isinstance(want, type):
        assert got is want
    else:
        assert_value(got, want)


@settings(max_examples=300, deadline=None)
@given(rationals)
def test_a_rational_is_its_own_limit(q):
    x = sc(q)
    assert x.nonequiv_limit() is x
    assert_value(x.nonequiv_limit(), o_limit(rational(q)))


def test_the_limit_of_a_pole_names_it():
    with pytest.raises(PoleAtZero, match="pole at lambda = 0"):
        (Scalar.lam(-1).scaled(3) + sc(1)).nonequiv_limit()
    with pytest.raises(LogObstruction, match="ln"):
        (Scalar.log_lambda() + sc(1)).nonequiv_limit()
    assert (Scalar.lam(Fraction(1, 3)) + root_of_unity(3, 1)).nonequiv_limit() == \
        root_of_unity(3, 1)


def test_the_limit_of_a_closed_form_j_builds_no_form(monkeypatch):
    monkeypatch.setattr(RatFunc, "__init__", no_ratfunc)
    j = j_closed_form_Pn(4, 3)
    lim = nonequivariant_limit(j)
    for e in (j.series, lim.series):
        terms = [v for cls in e.data.values() for v in cls.terms.values()]
        assert len(terms) >= 16
    assert all(v.is_rational() for cls in lim.series.data.values() for v in cls.terms.values())
