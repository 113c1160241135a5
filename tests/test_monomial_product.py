"""Products by a monomial c u^e, u = lambda^(1/m), c in Q(zeta), against the
general path, and products of a Cyc with a rational against ``poly.mul``.

The monomial rule of ``Scalar.__mul__`` builds the canonical form of the
product directly when one operand is c u^e and every l-part of the other has
a monic monomial denominator.  ``general_product`` below is the general path
written out: lift both operands to the lcm root index and multiply their
l-coefficient tuples with the polynomial kernel, through the Scalar
constructor.  The two must agree in the serialised form, the hash, ``==``,
the root index and both lanes, with the operands in either order.  While
the rule runs, the general path of ``scalar`` is replaced by a function
that fails, so each drawn product is one the rule takes.
"""

from fractions import Fraction
from math import lcm
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbiqrr.exactalg import Cyc, Scalar, poly, root_of_unity, sc
from orbiqrr.exactalg import scalar
from orbiqrr.exactalg.cyclotomic import CYC_ONE, CYC_ZERO
from orbiqrr.exactalg.scalar import RF_ZERO, RatFunc

ORDERS = (1, 3, 4, 6, 12, 22, 44)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=7)
nonzero = rationals.filter(bool)


# -- the general path, written out --------------------------------------------


def general_product(a, b):
    m = lcm(a.lam_den, b.lam_den)
    return Scalar(poly.mul(a.lift_root(m).ell, b.lift_root(m).ell, RF_ZERO), m)


def cyc_product(a, b):
    order, x, y = Cyc._common(a, b)
    return Cyc(order, poly.mul(x, y, Fraction(0)))


def no_general_path(*args):
    raise AssertionError("a product the monomial rule covers took the general path")


def assert_same(got, want):
    assert got.to_obj() == want.to_obj()
    assert hash(got) == hash(want)
    assert got == want and want == got
    assert got.lam_den == want.lam_den
    assert (got._q, got._lau) == (want._q, want._lau)


# -- operands -------------------------------------------------------------------


@st.composite
def cycs(draw, orders=ORDERS):
    """A sum of up to three c_k zeta_n^k through the constructor (zero possible)."""
    n = draw(st.sampled_from(orders))
    c = [Fraction(0)] * n
    for _ in range(draw(st.integers(1, 3))):
        c[draw(st.integers(0, n - 1))] += draw(rationals)
    return Cyc(n, c)


def monomial_ratfunc(c: Cyc, e: int) -> RatFunc:
    if e >= 0:
        return RatFunc([CYC_ZERO] * e + [c], [CYC_ONE])
    return RatFunc([c], [CYC_ZERO] * -e + [CYC_ONE])


def lane_only(shift: int, coeffs) -> Scalar:
    """sum_i coeffs[i] lambda^(shift + i) by lane arithmetic: the Laurent lane
    holds it and the canonical form is not built."""
    out = sc(0)
    for i, q in enumerate(coeffs):
        out = out + Scalar.lam(shift + i).scaled(q)
    return out


@st.composite
def monomials(draw):
    """c u^e with u = lambda^(1/m), m = 1..24, e of both signs: a plain
    rational, a Laurent-lane monomial (with or without its canonical form) or
    a value off the lanes, through the constructor."""
    kind = draw(st.sampled_from(("rational", "laurent", "lane only", "off lane")))
    if kind == "rational":
        return sc(draw(nonzero))
    e = draw(st.integers(-30, 30))
    if kind == "laurent":
        return Scalar((monomial_ratfunc(Cyc.from_fraction(draw(nonzero)), e),), 1)
    if kind == "lane only":
        return lane_only(e, [draw(nonzero)])
    c = draw(cycs())
    assume(c)
    return Scalar((monomial_ratfunc(c, e),), draw(st.integers(1, 24)))


@st.composite
def others(draw):
    """One or two l-parts, each up to four Cyc terms over a monic u^k, k = 0..6,
    m = 1..24; or a Laurent polynomial held on its lane only."""
    if draw(st.booleans()) and draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=1, max_size=4))
        assume(coeffs[0] and coeffs[-1])
        return lane_only(draw(st.integers(-8, 8)), coeffs)
    parts = [RatFunc([draw(cycs()) for _ in range(draw(st.integers(0, 4)))],
                     [CYC_ZERO] * draw(st.integers(0, 6)) + [CYC_ONE])
             for _ in range(draw(st.integers(1, 2)))]
    x = Scalar(parts, draw(st.integers(1, 24)))
    assume(not x.is_zero)
    return x


# -- the rule against the general path ------------------------------------------


@settings(max_examples=400, deadline=None)
@given(others(), monomials())
@example(Scalar.lam(Fraction(1, 2)), Scalar.lam(Fraction(1, 2)))       # the root index drops
@example(Scalar.lam(Fraction(5, 6)) + Scalar.log_lambda(), Scalar.lam(Fraction(1, 6)))
@example(lane_only(-3, [1, 0, 2]), root_of_unity(44, 3) * Scalar.lam(Fraction(-89, 14)))
@example(Scalar.lam(Fraction(3, 4)), Scalar.lam(Fraction(-7, 6)))       # e lifted to 12
def test_a_product_by_a_monomial_matches_the_general_path(x, y):
    assume(not (x._lau is not None and y._lau is not None))     # the Laurent lane's own
    want = general_product(x, y)
    with mock.patch.object(scalar, "_mul_general", no_general_path):
        got = [x * y, y * x]
    for g in got:
        assert_same(g, want)
    assert_same(got[1], general_product(y, x))


@settings(max_examples=200, deadline=None)
@given(others(), st.one_of(nonzero, st.integers(-5, 5).filter(bool)))
def test_scaled_by_a_rational_matches_the_general_path(x, q):
    assume(x._lau is None)
    want = general_product(x, sc(q))
    with mock.patch.object(scalar, "_mul_general", no_general_path):
        got = x.scaled(q)
    assert_same(got, want)


def test_a_general_denominator_takes_the_general_path():
    """1 / (1 + u) times a monomial, and scaled: the rule declines, and the
    general path gives the product."""
    x = Scalar((RatFunc([CYC_ONE], [CYC_ONE, CYC_ONE]),), 2)
    m = root_of_unity(12, 5) * Scalar.lam(Fraction(1, 3))
    with mock.patch.object(scalar, "_mul_general", wraps=scalar._mul_general) as general:
        got = [x * m, m * x, x.scaled(Fraction(-3, 4))]
    assert general.call_count == 3
    assert_same(got[0], general_product(x, m))
    assert_same(got[1], general_product(m, x))
    assert_same(got[2], general_product(x, sc(Fraction(-3, 4))))


# -- Cyc times a rational -------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(Fraction(0)), rationals), cycs())
def test_a_cyc_times_a_rational_matches_the_kernel_product(q, c):
    """An order-1 factor scales the other residue: the same order and
    coefficients as the lifted ``poly.mul`` through the constructor, the
    order-1 zero for q = 0."""
    r = Cyc.from_fraction(q)
    want = cyc_product(r, c)
    for got in (r * c, c * r, c.scaled(q)):
        assert (got.order, got.coeffs) == (want.order, want.coeffs)
        assert hash(got) == hash(want) and got == want
    assert (r * c).is_zero == (not q or c.is_zero)
