"""The rational lane of Scalar against the general path it short-cuts.

The reference functions below are the general path written out: lift both
operands to a common root index and combine their l-coefficient tuples
with the polynomial kernel, building every result with the Scalar
constructor.  The lane (and the skip of a product with SCALAR_ONE) must
give the same canonical form: the same nested Cyc orders and coefficients,
the same root index, hash and serialisation.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiqrr.errors import NonInvertible
from orbiqrr.exactalg import SCALAR_ONE, SCALAR_ZERO, Cyc, Scalar, parse_scalar, root_of_unity, sc
from orbiqrr.exactalg import poly
from orbiqrr.exactalg.cyclotomic import CYC_ONE
from orbiqrr.exactalg.scalar import RF_ZERO, RatFunc

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=9)
nonzero = rationals.filter(bool)


# -- the general path, written out --------------------------------------------


def _common(a, b):
    m = lcm(a.lam_den, b.lam_den)
    return m, a.lift_root(m).ell, b.lift_root(m).ell


def ref_add(a, b):
    m, x, y = _common(a, b)
    return Scalar(poly.add(x, y, RF_ZERO), m)


def ref_neg(a):
    return Scalar(tuple(-rf for rf in a.ell), a.lam_den)


def ref_sub(a, b):
    return ref_add(a, ref_neg(b))


def ref_mul(a, b):
    m, x, y = _common(a, b)
    return Scalar(poly.mul(x, y, RF_ZERO), m)


def ref_inverse(a):
    if len(a.ell) != 1:
        raise NonInvertible("zero or ln(lambda) terms")
    return Scalar((a.ell[0].inverse(),), a.lam_den)


def ref_div(a, b):
    return ref_mul(a, ref_inverse(b))


def ref_eq(a, b):
    _, x, y = _common(a, b)
    return x == y


def ref_plain(x):
    """The shape test on the canonical form: the Fraction of a plain rational, else None."""
    if not x.ell:
        return Fraction(0)
    if len(x.ell) != 1 or x.lam_den != 1:
        return None
    num, den = x.ell[0].num, x.ell[0].den
    if len(num) != 1 or len(den) != 1 or num[0].order != 1 or den[0].order != 1:
        return None
    return num[0].coeffs[0] / den[0].coeffs[0]


def assert_lane_matches_the_form(x):
    plain = ref_plain(x)
    assert x.is_rational() == (plain is not None)
    if plain is not None:
        assert x.as_fraction() == plain
        assert x.to_obj() == str(plain)


def structure(x):
    """Every level of the canonical form, Cyc orders included."""
    def cycs(p):
        return tuple((c.order, c.coeffs) for c in p)
    return x.lam_den, tuple((cycs(rf.num), cycs(rf.den)) for rf in x.ell)


def assert_same(got, want):
    assert structure(got) == structure(want)
    assert hash(got) == hash(want)
    assert got.to_obj() == want.to_obj()
    assert_lane_matches_the_form(got)
    assert_lane_matches_the_form(want)


def outcome(fn, *args):
    try:
        return fn(*args)
    except NonInvertible:
        return NonInvertible


# -- operands of every kind ---------------------------------------------------

KINDS = ("rational", "unit", "constructed", "cancelled", "lam_poly", "lam_pole", "zeta",
         "log", "root")


@st.composite
def operands(draw, kind=None):
    kind = kind or draw(st.sampled_from(KINDS))
    q = draw(rationals)
    if kind == "rational":
        return sc(q)
    if kind == "unit":
        return sc(draw(st.sampled_from([0, 1, -1])))
    if kind == "constructed":
        # a plain rational that comes out of the general constructor
        return Scalar((RatFunc((Cyc.from_fraction(q),), (CYC_ONE,)),), 1)
    if kind == "cancelled":
        # lambda^(1/2) * lambda^(-1/2): a general-path product that is rational
        half = Fraction(1, 2)
        return Scalar.lam(half) * (Scalar.lam(-half) * sc(q))
    if kind == "lam_poly":
        return parse_scalar(f"{q},{draw(nonzero)}|1")
    if kind == "lam_pole":
        return parse_scalar(f"{q}|" + "0," * draw(st.integers(1, 2)) + f"{draw(nonzero)}")
    if kind == "zeta":
        n = draw(st.integers(2, 8))
        return root_of_unity(n, draw(st.integers(1, n - 1))) * sc(draw(nonzero)) + sc(q)
    if kind == "log":
        return sc(q) + Scalar.log_lambda() * sc(draw(nonzero))
    den = draw(st.integers(2, 3))
    return Scalar.lam(Fraction(draw(st.integers(1, 2 * den - 1)), den)) * sc(draw(nonzero)) \
        + sc(q)


BINARY = {
    "+": (lambda a, b: a + b, ref_add),
    "-": (lambda a, b: a - b, ref_sub),
    "*": (lambda a, b: a * b, ref_mul),
    "/": (lambda a, b: a / b, ref_div),
}


@settings(max_examples=400, deadline=None)
@given(operands(), operands(), st.sampled_from(sorted(BINARY)))
def test_binary_ops_match_the_general_path(a, b, op):
    fast, ref = BINARY[op]
    got, want = outcome(fast, a, b), outcome(ref, a, b)
    if want is NonInvertible:
        assert got is NonInvertible
    else:
        assert_same(got, want)


@settings(max_examples=300, deadline=None)
@given(operands(), operands())
def test_unary_ops_and_equality_match_the_general_path(a, b):
    # a root index lifted past the minimal one is not the canonical form
    assert_lane_matches_the_form(a.lift_root(2 * a.lam_den))
    assert_same(-a, ref_neg(a))
    want = outcome(ref_inverse, a)
    got = outcome(Scalar.inverse, a)
    if want is NonInvertible:
        assert got is NonInvertible
    else:
        assert_same(got, want)
    assert (a == b) == ref_eq(a, b)
    assert (a == a) and ref_eq(a, a)
    if a.is_rational():
        assert a == a.as_fraction()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_product_with_one_is_the_other_operand(data):
    for kind in KINDS:
        x = data.draw(operands(kind))
        for prod in (x * sc(1), sc(1) * x, x * SCALAR_ONE):
            assert_same(prod, x)
            assert_same(prod, ref_mul(x, sc(1)))


def test_lane_results_equal_to_one_are_the_singleton():
    assert sc(1) is SCALAR_ONE
    assert Scalar.from_fraction(Fraction(3, 3)) is SCALAR_ONE
    assert Scalar.from_cyc(CYC_ONE) is SCALAR_ONE
    assert sc(Fraction(2, 3)) * sc(Fraction(3, 2)) is SCALAR_ONE
    assert sc(Fraction(1, 2)) + sc(Fraction(1, 2)) is SCALAR_ONE
    assert sc(3) - sc(2) is SCALAR_ONE
    assert sc(-1) / sc(-1) is SCALAR_ONE
    assert (-sc(-1)) is SCALAR_ONE
    assert sc(1).inverse() is SCALAR_ONE
    assert sc(5) - sc(5) is SCALAR_ZERO


def test_rational_products_skip_the_kernel_and_cyc(monkeypatch):
    def boom(*args):
        raise AssertionError("a product of two rationals reached the general path")

    x, y = sc(Fraction(-7, 3)), sc(Fraction(9, 14))
    monkeypatch.setattr(poly, "mul", boom)
    monkeypatch.setattr(Cyc, "__mul__", boom)
    assert (x * y).as_fraction() == Fraction(-3, 2)
    assert (x / y).as_fraction() == Fraction(-98, 27)


def test_division_by_zero_raises():
    with pytest.raises(NonInvertible):
        sc(3) / sc(0)
    with pytest.raises(NonInvertible):
        SCALAR_ZERO.inverse()
