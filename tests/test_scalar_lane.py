"""The lanes of Scalar against the general path they short-cut.

The reference functions below are the general path written out: lift both
operands to a common root index and combine their l-coefficient tuples
with the polynomial kernel, building every result with the Scalar
constructor.  The rational lane, the Laurent lane (values in
Q[lambda, 1/lambda]), a product with a plain rational, a Laurent value
times a monomial c lambda^(p/q), and the skip of a product with SCALAR_ONE
must give the same canonical form: the same nested
Cyc orders and coefficients, the same root index, hash and serialisation.
The monomial-denominator sum of RatFunc is checked against the
cross-multiplied sum through the RatFunc constructor.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbiqrr.errors import NonInvertible
from orbiqrr.exactalg import SCALAR_ONE, SCALAR_ZERO, Cyc, Scalar, parse_scalar, root_of_unity, sc
from orbiqrr.exactalg import poly
from orbiqrr.exactalg.cyclotomic import CYC_ONE, CYC_ZERO
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


def ref_laurent(x):
    """The shape test for Q[lambda, 1/lambda]: (lowest lambda-power, coefficients
    from there with nonzero ends) of a Laurent polynomial, else None."""
    if not x.ell:
        return 0, ()
    if len(x.ell) != 1 or x.lam_den != 1:
        return None
    num, den = x.ell[0].num, x.ell[0].den
    if any(c.order != 1 for c in num + den) or den[-1].coeffs[0] != 1:
        return None
    b = len(den) - 1
    if any(c.coeffs[0] for c in den[:b]):
        return None
    powers = {i - b: c.coeffs[0] for i, c in enumerate(num) if c.coeffs[0]}
    lo, hi = min(powers), max(powers)
    return lo, tuple(powers.get(k, Fraction(0)) for k in range(lo, hi + 1))


def assert_lane_matches_the_form(x):
    plain = ref_plain(x)
    assert x.is_rational() == (plain is not None)
    if plain is not None:
        assert x.as_fraction() == plain
        assert x.to_obj() == str(plain)
    assert x._lau == ref_laurent(x)


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

KINDS = ("rational", "unit", "constructed", "cancelled", "lam_poly", "lam_pole", "laurent",
         "zeta", "log", "root")


def laurent_form(shift, coeffs):
    """sum_i coeffs[i] lambda^(shift + i) through the general constructor."""
    num = [Cyc.from_fraction(c) for c in coeffs]
    if shift >= 0:
        return Scalar((RatFunc([CYC_ZERO] * shift + num, [CYC_ONE]),), 1)
    return Scalar((RatFunc(num, [CYC_ZERO] * -shift + [CYC_ONE]),), 1)


@st.composite
def laurents(draw):
    """Shifts -6..6; zeros anywhere in the list, ends included (the constructor
    reduces them away)."""
    coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=1, max_size=6))
    return laurent_form(draw(st.integers(-6, 6)), coeffs)


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
    if kind == "laurent":
        return draw(laurents())
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


# -- the Laurent lane ---------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(laurents(), laurents(), st.sampled_from(sorted(BINARY)))
def test_laurent_ops_match_the_general_path(a, b, op):
    fast, ref = BINARY[op]
    got, want = outcome(fast, a, b), outcome(ref, a, b)
    if want is NonInvertible:
        assert got is NonInvertible
    else:
        assert_same(got, want)
    assert (a == b) == ref_eq(a, b)
    assert_same(-a, ref_neg(a))
    want = outcome(ref_inverse, a)
    got = outcome(Scalar.inverse, a)
    if want is NonInvertible:
        assert got is NonInvertible
    else:
        assert_same(got, want)


@settings(max_examples=300, deadline=None)
@given(laurents(), st.one_of(laurents(), rationals.map(sc), st.sampled_from([0, 1]).map(sc)))
def test_laurent_sums_that_cancel(a, c):
    """b = c - a, so a + b cancels down to c: zero, one, a plain rational, or
    a Laurent value whose ends come from either side."""
    b = ref_sub(c, a)
    total = a + b
    assert_same(total, ref_add(a, b))
    assert_same(total, c)
    assert_same(a - a, SCALAR_ZERO)
    assert a - a is SCALAR_ZERO
    assert_same(a + (sc(1) - a), SCALAR_ONE)
    assert a == laurent_form(*ref_laurent(a))


def test_laurent_lane_shapes():
    x = laurent_form(-3, [Fraction(0), 2, 0, 5, 0])        # 2 lambda^-2 + 5
    assert x._lau == (-2, (2, 0, 5))
    assert x.to_obj() == {"num": ["2", "0", "5"], "den": ["0", "0", "1"]}
    y = laurent_form(2, [Fraction(-1, 3)])
    assert y._lau == (2, (Fraction(-1, 3),))
    assert (y * x)._lau == (0, (Fraction(-2, 3), 0, Fraction(-5, 3)))
    assert (x - laurent_form(0, [5]))._lau == (-2, (2,))  # the high end cancels
    assert (x - laurent_form(-2, [2]))._lau == (0, (5,))  # the low end cancels
    assert (x - laurent_form(-2, [2])).is_rational()
    assert sc(Fraction(3, 7))._lau == (0, (Fraction(3, 7),))
    assert SCALAR_ZERO._lau == (0, ())
    for off in (root_of_unity(3, 1), Scalar.log_lambda(), Scalar.lam(Fraction(1, 2))):
        assert off._lau is None and (off * x)._lau is None


def test_laurent_and_scaled_products_skip_cyc_arithmetic(monkeypatch):
    def boom(*args):
        raise AssertionError("a lane operation reached Cyc arithmetic")

    x, y = laurent_form(-2, [1, 0, Fraction(1, 2)]), laurent_form(1, [3, -1])
    z = root_of_unity(5, 2) * Scalar.lam(-1) + Scalar.log_lambda()
    want = [ref_add(x, y), ref_sub(x, y), ref_mul(x, y), ref_div(x, Scalar.lam(-3)),
            ref_mul(x, sc(3)), ref_mul(z, sc(Fraction(2, 3))), ref_mul(sc(-2), z)]
    m = Scalar.lam(Fraction(-7, 3)) * sc(Fraction(2, 5))
    want += [ref_mul(x, m), ref_mul(m, y)]
    monkeypatch.setattr(Cyc, "__add__", boom)
    monkeypatch.setattr(Cyc, "__mul__", boom)
    got = [x + y, x - y, x * y, x / Scalar.lam(-3), x * sc(3), z * sc(Fraction(2, 3)),
           sc(-2) * z, x * m, m * y]
    for g, w in zip(got, want):
        assert_same(g, w)


# -- products of a plain rational with a value off both lanes ----------------


@st.composite
def off_lane(draw):
    """Up to three l-coefficients over Q(zeta_n)(lambda^(1/m)), with monomial
    and general denominators."""
    n = draw(st.integers(1, 6))

    def cyc():
        c = Cyc.from_fraction(draw(rationals))
        if n > 1 and draw(st.booleans()):
            c = c + Cyc.root_of_unity(n, draw(st.integers(1, n - 1))) * \
                Cyc.from_fraction(draw(nonzero))
        return c

    def rf():
        num = [cyc() for _ in range(draw(st.integers(0, 3)))]
        den = [CYC_ZERO] * draw(st.integers(0, 2)) + [CYC_ONE]
        if draw(st.booleans()):
            den = [Cyc.from_fraction(draw(nonzero))] + den
        return RatFunc(num, den)

    x = Scalar([rf() for _ in range(draw(st.integers(1, 3)))], draw(st.sampled_from([1, 2, 3])))
    assume(x._lau is None)
    return x


@settings(max_examples=300, deadline=None)
@given(off_lane(), nonzero)
def test_products_with_a_rational_match_the_general_path(x, q):
    for got, want in ((x * sc(q), ref_mul(x, sc(q))), (sc(q) * x, ref_mul(sc(q), x)),
                      (x / sc(q), ref_div(x, sc(q)))):
        assert_same(got, want)
        assert len(got.ell) == len(x.ell) and got.lam_den == x.lam_den
        assert [rf.den for rf in got.ell] == [rf.den for rf in x.ell]


@settings(max_examples=300, deadline=None)
@given(st.one_of(operands(), off_lane()),
       st.one_of(rationals, st.integers(-5, 5), st.sampled_from([0, 1, Fraction(1)])))
def test_scaled_matches_the_product_with_the_rational(x, q):
    """``scaled`` (an int or Fraction, no Scalar built for it) on every lane."""
    got = x.scaled(q)
    assert_same(got, ref_mul(x, sc(q)))
    assert_same(got, x * sc(q))


# -- Laurent values times a monomial c lambda^(p/q) ---------------------------


@st.composite
def monomials(draw):
    """c lambda^(p/q) with q = 2..12, gcd(p, q) = 1, p of both signs; c = 1 is
    the exp(a ln(lambda)) of a Delta component."""
    q = draw(st.integers(2, 12))
    p = draw(st.integers(-4 * q, 4 * q).filter(lambda p: gcd(p, q) == 1))
    return Scalar.lam(Fraction(p, q)) * sc(draw(st.one_of(st.just(Fraction(1)), nonzero)))


@settings(max_examples=300, deadline=None)
@given(laurents(), monomials())
def test_laurent_times_a_monomial_matches_the_general_path(x, m):
    want = ref_mul(x, m)
    for got in (x * m, m * x):
        assert_same(got, want)
        assert got.lam_den == want.lam_den and got == want


# -- RatFunc sums over two monomial denominators -----------------------------


def cycs(p):
    return tuple((c.order, c.coeffs) for c in p)


@st.composite
def monomial_ratfuncs(draw):
    """Cyc coefficients (rational or with a zeta_n part) over u^a, a = 0..4, through
    the constructor."""
    def cyc():
        c = Cyc.from_fraction(draw(st.one_of(st.just(Fraction(0)), rationals)))
        if draw(st.booleans()):
            n = draw(st.integers(2, 6))
            c = c + Cyc.root_of_unity(n, draw(st.integers(1, n - 1))) * \
                Cyc.from_fraction(draw(nonzero))
        return c

    num = [cyc() for _ in range(draw(st.integers(0, 4)))]
    return RatFunc(num, [CYC_ZERO] * draw(st.integers(0, 4)) + [CYC_ONE])


@settings(max_examples=300, deadline=None)
@given(monomial_ratfuncs(), monomial_ratfuncs(), st.booleans())
def test_monomial_denominator_sums_match_the_constructor(x, c, cancel):
    """x + y aligned over u^max(a, b) equals the cross-multiplied sum reduced
    by the constructor; with cancel, y = c - x so the sum is c."""
    y = RatFunc(poly.add(poly.mul(c.num, x.den, CYC_ZERO),
                         poly.mul([-v for v in x.num], c.den, CYC_ZERO), CYC_ZERO),
                poly.mul(c.den, x.den, CYC_ZERO)) if cancel else c
    want = RatFunc(poly.add(poly.mul(x.num, y.den, CYC_ZERO), poly.mul(y.num, x.den, CYC_ZERO),
                            CYC_ZERO),
                   poly.mul(x.den, y.den, CYC_ZERO))
    got = x + y
    assert (cycs(got.num), cycs(got.den)) == (cycs(want.num), cycs(want.den))
    if cancel:
        # equal values; a zeta part may come back at another conductor
        assert got.num == c.num and got.den == c.den
