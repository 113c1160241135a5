"""Products by a monomial c u^e, u = lambda^(1/m), c in Q(zeta), against the
dict oracle of ``scalar_oracle``, and products of a Cyc with a rational
against ``poly.mul``.

A monomial times a value with up to three powers of ln(lambda), at root
indices up to 24 and cyclotomic orders up to 44, must give the oracle's
product in either order: the same terms, the minimal root index (the lcm of
the two, divided by what every exponent of the product shares with it) and
denominators u^b.  "The general path" in the test names is the oracle's
product.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbiqrr.exactalg import Cyc, poly
from orbiqrr.exactalg.cyclotomic import CYC_ONE
from scalar_oracle import assert_value, o_mul, rational, scalar_of

ORDERS = (1, 3, 4, 6, 12, 22, 44)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=7)
nonzero = rationals.filter(bool)


def cyc_product(a, b):
    order, x, y = Cyc._common(a, b)
    return Cyc(order, poly.mul(x, y, Fraction(0)))


# -- operands -------------------------------------------------------------------


@st.composite
def cycs(draw, orders=ORDERS):
    """A sum of up to three c_k zeta_n^k through the constructor (zero possible)."""
    n = draw(st.sampled_from(orders))
    c = [Fraction(0)] * n
    for _ in range(draw(st.integers(1, 3))):
        c[draw(st.integers(0, n - 1))] += draw(rationals)
    return Cyc(n, c)


@st.composite
def monomials(draw):
    """c u^e with u = lambda^(1/m), m = 1..24, e of both signs, c rational or not."""
    c = draw(cycs())
    if c.is_zero:
        c = Cyc.from_fraction(draw(nonzero))
    m = draw(st.integers(1, 24))
    return {(0, Fraction(draw(st.integers(-30, 30)), m)): c}


@st.composite
def others(draw):
    """Up to three powers of ln(lambda), each up to four Cyc terms u^j,
    j = -6..6, at m = 1..24."""
    m = draw(st.integers(1, 24))
    out = {}
    for _ in range(draw(st.integers(1, 6))):
        c = draw(cycs())
        if not c.is_zero:
            out[(draw(st.integers(0, 2)), Fraction(draw(st.integers(-6, 6)), m))] = c
    return out


# -- the product against the oracle's -------------------------------------------


@settings(max_examples=400, deadline=None)
@given(others(), monomials())
@example({(0, Fraction(1, 2)): CYC_ONE}, {(0, Fraction(1, 2)): CYC_ONE})     # the root index drops
@example({(0, Fraction(5, 6)): CYC_ONE, (1, Fraction(0)): CYC_ONE},
         {(0, Fraction(1, 6)): CYC_ONE})
@example({(0, Fraction(-3)): CYC_ONE, (0, Fraction(-1)): Cyc.from_fraction(2)},
         {(0, Fraction(-89, 14)): Cyc.root_of_unity(44, 3)})
@example({(0, Fraction(3, 4)): CYC_ONE}, {(0, Fraction(-7, 6)): CYC_ONE})   # e lifted to 12
def test_a_product_by_a_monomial_matches_the_general_path(a, b):
    x, y = scalar_of(a), scalar_of(b)
    want = o_mul(a, b)
    for got in (x * y, y * x):
        assert_value(got, want)


@settings(max_examples=200, deadline=None)
@given(others(), st.one_of(nonzero, st.integers(-5, 5).filter(bool)))
def test_scaled_by_a_rational_matches_the_general_path(a, q):
    x = scalar_of(a)
    assert_value(x.scaled(q), o_mul(a, rational(q)))


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
