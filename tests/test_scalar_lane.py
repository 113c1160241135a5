"""Scalar arithmetic against the dict oracle of ``scalar_oracle``.

Every operator of Scalar (``+ - * / neg inverse scaled ==``) must give the
oracle's value: the same terms, the minimal root index, denominators u^b,
and for zeta-free values the same bytes and hash.  "The general path" in
the test names is the oracle's own sum and product.  The operands cover
plain rationals, Laurent polynomials in lambda, roots lambda^(1/m), zeta
coefficients and powers of ln(lambda), each read through ``parse_scalar``.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbiqrr.errors import NonInvertible
from orbiqrr.exactalg import (SCALAR_ONE, SCALAR_ZERO, Cyc, Scalar, parse_scalar, poly,
                              root_of_unity, sc)
from orbiqrr.exactalg.cyclotomic import CYC_ONE, CYC_ZERO
from scalar_oracle import (assert_value, laurents, monomials, nonzero, o_add, o_div, o_inverse,
                           o_mul, o_neg, o_read, o_sub, rational, rationals, scalar_of,
                           values, zeta_free)


def outcome(fn, *args):
    try:
        return fn(*args)
    except NonInvertible:
        return NonInvertible


BINARY = {
    "+": (lambda a, b: a + b, o_add),
    "-": (lambda a, b: a - b, o_sub),
    "*": (lambda a, b: a * b, o_mul),
    "/": (lambda a, b: a / b, o_div),
}

operands = st.one_of(values(), laurents, monomials, rationals.map(rational),
                     st.sampled_from([{}, rational(1), rational(-1)]))


def assert_outcome(got, want):
    if want is NonInvertible:
        assert got is NonInvertible
    else:
        assert_value(got, want)


@settings(max_examples=400, deadline=None)
@given(operands, operands, st.sampled_from(sorted(BINARY)))
@example({(1, Fraction(1)): CYC_ONE}, {(1, Fraction(-1)): CYC_ONE}, "*")       # l^2
@example({(0, Fraction(1, 2)): CYC_ONE}, {(0, Fraction(1, 2)): CYC_ONE}, "*")  # m drops to 1
def test_binary_ops_match_the_general_path(a, b, op):
    fast, ref = BINARY[op]
    x, y = scalar_of(a), scalar_of(b)
    assert_value(x, a)
    assert_outcome(outcome(fast, x, y), outcome(ref, a, b))


def assert_term_map(x):
    """The invariants of a Scalar's term map: no zero coefficient, a coefficient
    is a Fraction or a Cyc of order > 1, an exponent is an int when integral,
    a rational (the empty map or one Fraction at l^0 lambda^0) keeps its
    Fraction in _q, and lam_den is the lcm of the exponents' denominators."""
    for (i, e), c in x.terms.items():
        assert type(i) is int and i >= 0
        assert c, f"a zero coefficient at {(i, e)}"
        assert type(c) is Fraction or (type(c) is Cyc and c.order > 1)
        assert type(e) is int or (type(e) is Fraction and e.denominator > 1)
    keys = list(x.terms)
    rational_form = not keys or (keys == [(0, 0)] and type(x.terms[(0, 0)]) is Fraction)
    assert x.is_rational() == rational_form
    if rational_form:
        assert x.as_fraction() == x.terms.get((0, 0), 0)
    assert x.lam_den == lcm(1, *(Fraction(e).denominator for _, e in keys))


@settings(max_examples=300, deadline=None)
@given(operands, operands, st.sampled_from(sorted(BINARY)))
@example({(0, Fraction(0)): CYC_ONE, (0, Fraction(1)): CYC_ONE},
         {(0, Fraction(0)): CYC_ONE, (0, Fraction(1)): -CYC_ONE}, "*")    # lambda cancels
@example({(0, Fraction(1, 2)): CYC_ONE}, {(0, Fraction(1, 3)): CYC_ONE}, "*")  # m = 6
def test_every_value_keeps_the_term_map_invariants(a, b, op):
    x, y = scalar_of(a), scalar_of(b)
    values = [x, y, -x, x - x, x + y, x.scaled(Fraction(-2, 3)), outcome(BINARY[op][0], x, y)]
    for v in (x, y):
        if v.is_invertible:
            values.append(v.inverse())
    for v in values:
        if v is not NonInvertible:
            assert_term_map(v)


@settings(max_examples=300, deadline=None)
@given(operands, operands)
def test_unary_ops_and_equality_match_the_general_path(a, b):
    x, y = scalar_of(a), scalar_of(b)
    assert_value(-x, o_neg(a))
    assert_outcome(outcome(Scalar.inverse, x), outcome(o_inverse, a))
    assert x.is_invertible == (outcome(o_inverse, a) is not NonInvertible)
    assert (x == y) == (a == b)
    assert x == x
    if x.is_rational():
        assert x == x.as_fraction() and hash(x) == hash(x.as_fraction())


@settings(max_examples=200, deadline=None)
@given(operands, operands)
def test_equal_zeta_free_values_hash_and_print_alike(a, b):
    """a == b implies equal hashes and equal to_obj, for values reached by
    different routes (the zeta case waits for a canonical Cyc form)."""
    x = scalar_of(a)
    routes = [(x + scalar_of(b)) - scalar_of(b), scalar_of(b) + x - scalar_of(b),
              x.scaled(Fraction(2, 3)).scaled(Fraction(3, 2))]
    if b and len(b) == 1 and not next(iter(b))[0]:
        routes.append((x * scalar_of(b)) / scalar_of(b))
    if zeta_free(a) and zeta_free(b):
        for y in routes:
            assert x == y
            assert hash(x) == hash(y) and x.to_obj() == y.to_obj()
    y = scalar_of(b)
    if zeta_free(a) and zeta_free(b) and x == y:
        assert hash(x) == hash(y) and x.to_obj() == y.to_obj()


@settings(max_examples=100, deadline=None)
@given(st.one_of(rationals, st.integers(-10 ** 30, 10 ** 30)))
def test_a_rational_hashes_as_its_fraction(q):
    assert sc(q) == q and hash(sc(q)) == hash(q)
    assert hash(sc(2)) == hash(2) == 2


@settings(max_examples=200, deadline=None)
@given(operands)
def test_a_product_with_one_is_the_other_operand(a):
    x = scalar_of(a)
    for prod in (x * sc(1), sc(1) * x, x * SCALAR_ONE):
        assert prod is x
        assert_value(prod, a)


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
    half = Scalar.lam(Fraction(1, 2))
    assert half * Scalar.lam(Fraction(-1, 2)) is SCALAR_ONE
    assert half / half is SCALAR_ONE
    assert Scalar.lam(-2) * Scalar.lam(2) is SCALAR_ONE


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


# -- Laurent polynomials in lambda ----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(laurents, laurents, st.sampled_from(sorted(BINARY)))
def test_laurent_ops_match_the_general_path(a, b, op):
    fast, ref = BINARY[op]
    x, y = scalar_of(a), scalar_of(b)
    assert all(not i and type(e) is int for i, e in x.terms)
    assert_outcome(outcome(fast, x, y), outcome(ref, a, b))
    assert (x == y) == (a == b)
    assert_value(-x, o_neg(a))
    assert_outcome(outcome(Scalar.inverse, x), outcome(o_inverse, a))


@settings(max_examples=300, deadline=None)
@given(laurents, st.one_of(laurents, rationals.map(rational),
                           st.sampled_from([{}, rational(1)])))
def test_laurent_sums_that_cancel(a, c):
    """b = c - a, so a + b cancels down to c: zero, one, a plain rational, or
    a Laurent value whose ends come from either side."""
    x = scalar_of(a)
    total = x + scalar_of(o_sub(c, a))
    assert_value(total, c)
    assert total == scalar_of(c)
    assert x - x is SCALAR_ZERO
    assert x + (sc(1) - x) is SCALAR_ONE


def test_laurent_shapes():
    lam = Scalar.lam
    x = lam(-2).scaled(2) + sc(5)                        # 2 lambda^-2 + 5
    assert (x.lam_den, x.terms) == (1, {(0, -2): 2, (0, 0): 5})
    assert x.to_obj() == {"num": ["2", "0", "5"], "den": ["0", "0", "1"]}
    y = lam(2).scaled(Fraction(-1, 3))
    assert y.terms == {(0, 2): Fraction(-1, 3)}
    assert y.to_obj() == {"num": ["0", "0", "-1/3"], "den": ["1"]}
    assert (y * x).terms == {(0, 0): Fraction(-2, 3), (0, 2): Fraction(-5, 3)}
    assert (x - sc(5)).terms == {(0, -2): 2}             # the high end cancels
    assert (x - lam(-2).scaled(2)).terms == {(0, 0): 5}  # the low end cancels
    assert (x - lam(-2).scaled(2)).is_rational()
    assert sc(Fraction(3, 7)).terms == {(0, 0): Fraction(3, 7)}
    assert SCALAR_ZERO.terms == {}
    # exponents are ints when integral, whatever route reached them
    half = lam(Fraction(1, 2))
    assert (half * half).terms == {(0, 1): 1} and type(next(iter((half * half).terms))[1]) is int
    assert (half * x).terms == {(0, Fraction(-3, 2)): 2, (0, Fraction(1, 2)): 5}
    assert ((half * x).lam_den, (half * half).lam_den) == (2, 1)
    assert (Scalar.log_lambda() * x).terms == {(1, -2): 2, (1, 0): 5}


def test_laurent_and_scaled_products_skip_cyc_arithmetic(monkeypatch):
    def boom(*args):
        raise AssertionError("an operation on rational coefficients reached Cyc arithmetic")

    lam = Scalar.lam
    x, y = lam(-2) + lam(0).scaled(Fraction(1, 2)), lam(1).scaled(3) - lam(2)
    z = root_of_unity(5, 2) * lam(-1) + Scalar.log_lambda()
    m = lam(Fraction(-7, 3)).scaled(Fraction(2, 5))
    cases = [(x, y, "+"), (x, y, "-"), (x, y, "*"), (x, lam(-3), "/"), (x, sc(3), "*"),
             (z, sc(Fraction(2, 3)), "*"), (sc(-2), z, "*"), (x, m, "*"), (m, y, "*")]
    want = [BINARY[op][1](o_read(a.to_obj()), o_read(b.to_obj())) for a, b, op in cases]
    monkeypatch.setattr(Cyc, "__add__", boom)
    monkeypatch.setattr(Cyc, "__mul__", boom)
    got = [BINARY[op][0](a, b) for a, b, op in cases]
    monkeypatch.undo()
    for g, w in zip(got, want):
        assert_value(g, w)


# -- products with a plain rational ---------------------------------------------


@settings(max_examples=300, deadline=None)
@given(values(min_terms=1), nonzero)
def test_products_with_a_rational_match_the_general_path(a, q):
    x = scalar_of(a)
    for got, want in ((x * sc(q), o_mul(a, rational(q))), (sc(q) * x, o_mul(rational(q), a)),
                      (x / sc(q), o_div(a, rational(q)))):
        assert_value(got, want)
        assert got.lam_den == x.lam_den
        assert got.terms.keys() == x.terms.keys()


@settings(max_examples=300, deadline=None)
@given(operands, st.one_of(rationals, st.integers(-5, 5), st.sampled_from([0, 1, Fraction(1)])))
def test_scaled_matches_the_product_with_the_rational(a, q):
    """``scaled`` (an int or Fraction, no Scalar built for it) on every kind of value."""
    x = scalar_of(a)
    got = x.scaled(q)
    assert_value(got, o_mul(a, rational(q)))
    assert got == x * sc(q)


# -- Laurent values times a monomial c lambda^(p/q) ---------------------------


@settings(max_examples=300, deadline=None)
@given(laurents, monomials)
def test_laurent_times_a_monomial_matches_the_general_path(a, b):
    x, m = scalar_of(a), scalar_of(b)
    want = o_mul(a, b)
    for got in (x * m, m * x):
        assert_value(got, want)


# -- sums over two monomial denominators -----------------------------------------


@st.composite
def monomial_fractions(draw):
    """(num, den): Cyc coefficients (rational or with a zeta_n part) over u^a, a = 0..4."""
    def cyc():
        c = Cyc.from_fraction(draw(st.one_of(st.just(Fraction(0)), rationals)))
        if draw(st.booleans()):
            n = draw(st.integers(2, 6))
            c = c + Cyc.root_of_unity(n, draw(st.integers(1, n - 1))) * \
                Cyc.from_fraction(draw(nonzero))
        return c

    return ([cyc() for _ in range(draw(st.integers(0, 4)))],
            [CYC_ZERO] * draw(st.integers(0, 4)) + [CYC_ONE])


def from_fraction(num, den):
    """num/den reduced by the RatFunc constructor at the JSON boundary."""
    def obj(c):
        if c.order == 1:
            return str(c.coeffs[0])
        return {"zeta": c.order, "c": [str(x) for x in c.coeffs]}

    return parse_scalar({"num": [obj(c) for c in num], "den": [obj(c) for c in den]})


@settings(max_examples=300, deadline=None)
@given(monomial_fractions(), monomial_fractions(), st.booleans())
def test_monomial_denominator_sums_match_the_constructor(x, c, cancel):
    """x + y equals the cross-multiplied sum reduced by the RatFunc
    constructor; with cancel, y = c - x so the sum is c."""
    if cancel:
        y = (poly.add(poly.mul(c[0], x[1], CYC_ZERO),
                      poly.mul([-v for v in x[0]], c[1], CYC_ZERO), CYC_ZERO),
             poly.mul(c[1], x[1], CYC_ZERO))
    else:
        y = c
    want = from_fraction(poly.add(poly.mul(x[0], y[1], CYC_ZERO),
                                  poly.mul(y[0], x[1], CYC_ZERO), CYC_ZERO),
                         poly.mul(x[1], y[1], CYC_ZERO))
    got = from_fraction(*x) + from_fraction(*y)
    assert got == want
    assert o_read(got.to_obj()) == o_read(want.to_obj())
    if cancel:
        assert got == from_fraction(*c)
