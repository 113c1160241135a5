"""The rational kernel against plain Fraction arithmetic.

``exactalg.rational`` builds its results without ``Fraction.__new__``, so
nothing else normalises them: each result must already be the Fraction that
``fractions`` builds, in lowest terms with a positive denominator, with the
same ``str`` and hash.  The draws reach 0, 1 and -1, integers, negative
values, 200-bit numerators and denominators, and the same object as both
operands.  On top of the kernel, chains of Scalar lane operations (the
rational lane, Laurent monomials, order-1 Cyc) must equal the same chains
computed in Fraction.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbiqrr.errors import NonInvertible
from orbiqrr.exactalg import SCALAR_ONE, SCALAR_ZERO, Cyc, Scalar, sc
from orbiqrr.exactalg.cyclotomic import CYC_ONE, CYC_ZERO
from orbiqrr.exactalg.rational import q_add, q_div, q_mul, q_neg, q_sub
from orbiqrr.exactalg.scalar import RatFunc

BIG = 2 ** 200

numerators = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-60, 60),
                       st.integers(-BIG, BIG))
denominators = st.one_of(st.just(1), st.integers(1, 60), st.integers(1, BIG))
fractions = st.builds(Fraction, numerators, denominators)

BINARY = {"add": (q_add, Fraction.__add__), "sub": (q_sub, Fraction.__sub__),
          "mul": (q_mul, Fraction.__mul__), "div": (q_div, Fraction.__truediv__)}


def assert_lowest(x):
    """x is a Fraction in lowest terms with a positive denominator."""
    assert type(x) is Fraction
    assert x.denominator > 0
    assert gcd(x.numerator, x.denominator) == 1


def assert_normal(got, want):
    """got is the Fraction ``fractions`` builds for want, in lowest terms."""
    assert_lowest(got)
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert str(got) == str(want) and hash(got) == hash(want)


@settings(max_examples=400, deadline=None)
@given(fractions, fractions, st.sampled_from(sorted(BINARY)))
@example(Fraction(1, 4), Fraction(1, 4), "add")        # 2/4 before the second gcd
@example(Fraction(1, 6), Fraction(-1, 6), "add")       # zero over a shared denominator
@example(Fraction(5, 6), Fraction(1, 6), "sub")
@example(Fraction(2, 3), Fraction(3, 4), "mul")        # cross gcds 2 and 3
@example(Fraction(2, 3), Fraction(-4, 9), "div")       # negative divisor, gcds 2 and 3
@example(Fraction(-1), Fraction(-1), "div")
def test_binary_kernel_matches_fraction(a, b, op):
    kernel, oracle = BINARY[op]
    if op == "div" and not b:
        with pytest.raises(ZeroDivisionError):
            kernel(a, b)
        return
    assert_normal(kernel(a, b), oracle(a, b))


@settings(max_examples=200, deadline=None)
@given(fractions)
@example(Fraction(0))
@example(Fraction(-3, 7))
def test_same_object_as_both_operands_and_negation(a):
    assert_normal(q_add(a, a), a + a)
    assert_normal(q_sub(a, a), Fraction(0))
    assert_normal(q_mul(a, a), a * a)
    assert_normal(q_neg(a), -a)
    if a:
        assert_normal(q_div(a, a), Fraction(1))
        assert_normal(q_div(Fraction(1), a), 1 / a)


# -- Scalar and Cyc lanes on the kernel ----------------------------------------


def general_form(shift: int, coeffs) -> Scalar:
    """sum_i coeffs[i] lambda^(shift + i) through the general constructors."""
    num = [Cyc(1, [c]) for c in coeffs]
    if shift >= 0:
        rf = RatFunc([CYC_ZERO] * shift + num, [CYC_ONE])
    else:
        rf = RatFunc(num, [CYC_ZERO] * -shift + [CYC_ONE])
    return Scalar([rf], 1)


def assert_scalar(x, want: Fraction):
    """x is the rational-lane Scalar of want, singletons included."""
    got = x.as_fraction()
    assert_normal(got, want)
    assert x.to_obj() == str(want)
    general = general_form(0, [want])
    assert x == general and hash(x) == hash(general)
    if want == 0:
        assert x is SCALAR_ZERO
    if want == 1:
        assert x is SCALAR_ONE


SCALAR_STEPS = ("add", "sub", "mul", "div", "neg", "inverse", "scaled", "scaled_int")


@settings(max_examples=200, deadline=None)
@given(fractions, st.lists(st.tuples(st.sampled_from(SCALAR_STEPS), fractions),
                           min_size=1, max_size=8))
@example(Fraction(-2, 3), [("inverse", Fraction(0))])      # a negative denominator
@example(Fraction(-5), [("div", Fraction(-5)), ("mul", Fraction(1))])
@example(Fraction(7, 4), [("sub", Fraction(3, 4)), ("scaled", Fraction(1))])
@example(Fraction(3), [("neg", Fraction(0)), ("scaled_int", Fraction(-1, 3))])
def test_a_rational_lane_chain_equals_the_fraction_chain(start, steps):
    x, want = sc(start), start
    for step, c in steps:
        y = sc(c)
        if step == "add":
            x, want = x + y, want + c
        elif step == "sub":
            x, want = x - y, want - c
        elif step == "mul":
            x, want = x * y, want * c
        elif step == "div":
            if not c:
                with pytest.raises(NonInvertible):
                    x / y
                continue
            x, want = x / y, want / c
        elif step == "neg":
            x, want = -x, -want
        elif step == "inverse":
            if not want:
                with pytest.raises(NonInvertible):
                    x.inverse()
                continue
            x, want = x.inverse(), 1 / want
        elif step == "scaled":
            x, want = x.scaled(c), want * c
        else:
            k = c.numerator
            x, want = x.scaled(k), want * k
        assert_scalar(x, want)


monomials = st.tuples(st.integers(-4, 4), fractions.filter(bool))


def laurent_of(terms: dict) -> tuple:
    """The Laurent lane (shift, coefficients) of {exponent: coefficient}."""
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return (0, ())
    lo, hi = min(terms), max(terms)
    return lo, tuple(terms.get(e, Fraction(0)) for e in range(lo, hi + 1))


@settings(max_examples=300, deadline=None)
@given(monomials, monomials)
@example((2, Fraction(1, 2)), (2, Fraction(-1, 2)))     # a sum that cancels
@example((-1, Fraction(3)), (1, Fraction(1, 3)))         # a product that is 1
def test_laurent_monomials_equal_the_fraction_terms(x, y):
    (e, a), (f, b) = x, y
    mx, my = Scalar.lam(e).scaled(a), Scalar.lam(f).scaled(b)
    plus = {e: a}
    plus[f] = plus.get(f, Fraction(0)) + b
    checks = [(mx + my, plus), (mx * my, {e + f: a * b}), (-mx, {e: -a}),
              (mx.inverse(), {-e: 1 / a}), (mx.scaled(b), {e: a * b})]
    for got, terms in checks:
        want = laurent_of(terms)
        assert got._lau == want
        for c in got._lau[1]:
            assert_lowest(c)
        if want == (0, ()):
            assert got is SCALAR_ZERO
        elif want == (0, (Fraction(1),)):
            assert got is SCALAR_ONE
        # the canonical form built from the lane is the general path's
        general = general_form(*want)
        assert got.ell == general.ell and hash(got) == hash(general)
        assert got.to_obj() == general.to_obj()


@settings(max_examples=200, deadline=None)
@given(fractions, fractions)
def test_order_one_cyc_equals_fraction(a, b):
    x, y = Cyc.from_fraction(a), Cyc.from_fraction(b)
    for got, want in ((x + y, a + b), (x * y, a * b), (-x, -a), (x - y, a - b)):
        assert got.order == 1
        assert_normal(got.coeffs[0], want)
    if a:
        inv = x.inverse()
        assert inv.order == 1
        assert_normal(inv.coeffs[0], 1 / a)
    else:
        with pytest.raises(NonInvertible):
            x.inverse()
