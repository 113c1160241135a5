from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbiqrr.errors import LogObstruction, NonUnitConstantTerm, PoleAtZero
from orbiqrr.exactalg import (
    SCALAR_ONE,
    Cyc,
    Scalar,
    TruncSeries,
    parse_scalar,
    root_of_unity,
    sc,
    series_invert,
)
from orbiqrr.exactalg import scalar
from orbiqrr.exactalg.cyclotomic import CYC_ONE, CYC_ZERO
from orbiqrr.exactalg.poly import add, divmod as pdivmod, exponent_gcd, mul, power, stretch, strip
from orbiqrr.exactalg.scalar import RatFunc, _cgcd

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


class TestScalar:
    def test_rational_round_trip(self):
        x = sc(Fraction(-7, 3))
        assert x.is_rational()
        assert x.as_fraction() == Fraction(-7, 3)
        assert parse_scalar(x.to_obj()) == x

    def test_root_of_unity_basics(self):
        assert root_of_unity(1, 0) == SCALAR_ONE
        assert root_of_unity(2, 1) == sc(-1)
        z12 = root_of_unity(12, 1)
        assert z12 ** 6 == sc(-1)
        assert z12 ** 12 == SCALAR_ONE

    def test_root_of_unity_power_reduction(self):
        # zeta_12^6 reduces through Phi_12(x) = x^4 - x^2 + 1; iterate the product
        z = root_of_unity(12, 1)
        acc = SCALAR_ONE
        for _ in range(6):
            acc = acc * z
        assert acc == sc(-1)

    def test_cyclotomic_reduction_idempotent(self):
        z = root_of_unity(5, 3)
        again = parse_scalar(z.to_obj())
        assert again == z
        assert parse_scalar(again.to_obj()) == again

    def test_mixed_order_arithmetic(self):
        z6 = root_of_unity(6, 1)
        z4 = root_of_unity(4, 1)
        w = z6 * z4  # lives in Q(zeta_12)
        assert w ** 12 == SCALAR_ONE
        assert w ** 6 == sc(1) * (w ** 2) ** 3

    def test_lambda_powers_and_roots(self):
        lam = Scalar.lam(1)
        assert lam * Scalar.lam(-1) == SCALAR_ONE
        half = Scalar.lam(Fraction(1, 2))
        assert half * half == lam
        assert half.lam_den == 2
        assert (half * half).lam_den == 1  # root index drops back out

    def test_nonequiv_limit(self):
        lam = Scalar.lam(1)
        assert (lam + sc(5)).nonequiv_limit() == sc(5)
        with pytest.raises(PoleAtZero):
            Scalar.lam(-1).nonequiv_limit()
        with pytest.raises(LogObstruction):
            Scalar.log_lambda().nonequiv_limit()

    def test_exp_of_log_lambda(self):
        ell = Scalar.log_lambda()
        assert (ell * sc(3)).exp() == Scalar.lam(3)
        assert (ell * sc(Fraction(-1, 6))).exp() == Scalar.lam(Fraction(-1, 6))
        assert sc(0).exp() == SCALAR_ONE

    def test_division(self):
        a = (Scalar.lam(2) + sc(1)) / (Scalar.lam(1) + sc(1))
        assert a * (Scalar.lam(1) + sc(1)) == Scalar.lam(2) + sc(1)

    def test_invertibility_flags(self):
        assert not sc(0).is_invertible
        assert sc(3).is_invertible
        assert not (Scalar.log_lambda() + sc(1)).is_invertible

    def test_exp_obstruction_paths(self):
        from orbiqrr.errors import ExpObstruction
        with pytest.raises(ExpObstruction):
            sc(3).exp()                                      # transcendental constant
        with pytest.raises(ExpObstruction):
            (Scalar.log_lambda() * Scalar.log_lambda()).exp()  # quadratic in ell
        with pytest.raises(ExpObstruction):
            (Scalar.log_lambda() * Scalar.lam(1)).exp()      # lambda-valued multiple

    def test_fractional_power_round_trip(self):
        x = Scalar.lam(Fraction(-1, 6))
        obj = x.to_obj()
        assert obj.get("lam_den") == 6
        assert parse_scalar(obj) == x


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals, rationals, rationals, rationals)
def test_ring_axioms(a0, a1, b0, b1, c0, c1):
    ell = Scalar.log_lambda()
    lam = Scalar.lam(1)
    a = sc(a0) + lam * sc(a1)
    b = sc(b0) + ell * sc(b1)
    c = sc(c0) + Scalar.lam(-1) * sc(c1)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, st.integers(min_value=0, max_value=5),
       st.integers(min_value=1, max_value=6), rationals)
def test_mixed_cyclotomic_root_arithmetic(a, b, k, n, c):
    # scalars mixing zeta_n^k, lambda^(1/2), and plain rationals stay consistent
    z = root_of_unity(n, k)
    half = Scalar.lam(Fraction(1, 2))
    x = sc(a) + z * half
    y = sc(b) + z * z * sc(c)
    assert (x + y) - y == x
    assert x * y == y * x
    if not y.is_zero:
        assert (x / y) * y == x
    assert (z * half) ** (2 * n) == Scalar.lam(n)


@settings(max_examples=40, deadline=None)
@given(rationals, rationals, rationals)
def test_series_multiplication_associative_on_common_window(a, b, c):
    s1 = TruncSeries(1, 0, 1, 3, {(0, (0,)): sc(1), (1, (1,)): sc(a)})
    s2 = TruncSeries(1, 0, 1, 3, {(0, (0,)): sc(2), (0, (1,)): sc(b)})
    s3 = TruncSeries(1, 0, 1, 3, {(1, (0,)): sc(c), (0, (2,)): sc(1)})
    left = (s1 * s2) * s3
    right = s1 * (s2 * s3)
    lo, hi = max(left.zmin, right.zmin), min(left.zmax, right.zmax)
    for d in range(4):
        for z in range(lo, hi + 1):
            assert left.get(z, (d,)) == right.get(z, (d,))


@settings(max_examples=40, deadline=None)
@given(rationals, rationals)
def test_nonequiv_limit_is_a_ring_map(x, y):
    lam = Scalar.lam(1)
    a = sc(x) + lam * sc(2)
    b = sc(y) + lam * lam * sc(3)
    assert (a * b).nonequiv_limit() == a.nonequiv_limit() * b.nonequiv_limit()
    assert (a + b).nonequiv_limit() == a.nonequiv_limit() + b.nonequiv_limit()


class TestTruncSeries:
    def test_invert_one(self):
        one = TruncSeries.one(dmax=3)
        assert series_invert(one) == one

    def test_invert_geometric(self):
        a = TruncSeries(1, 0, 0, 4, {(0, (0,)): sc(1), (0, (1,)): sc(1)})
        inv = series_invert(a)
        for d in range(5):
            assert inv.get(0, (d,)) == sc((-1) ** d)

    def test_invert_1_plus_120Q(self):
        a = TruncSeries(1, 0, 0, 2, {(0, (0,)): sc(1), (0, (1,)): sc(120)})
        inv = series_invert(a)
        assert inv.get(0, (0,)) == sc(1)
        assert inv.get(0, (1,)) == sc(-120)
        assert inv.get(0, (2,)) == sc(14400)
        # oracle: multiply back and check == 1 mod Q^3
        prod = a * inv
        assert prod.get(0, (0,)) == sc(1)
        assert prod.get(0, (1,)).is_zero
        assert prod.get(0, (2,)).is_zero

    def test_invert_ignores_an_empty_negative_window(self):
        # the declared zmin < 0 holds no coefficients; the inverse lives on [0, zmax]
        data = {(0, (0,)): sc(2), (1, (0,)): sc(3), (0, (1,)): sc(1), (2, (1,)): sc(-1)}
        inv = series_invert(TruncSeries(1, -2, 3, 2, data))
        assert (inv.dmax, inv.zmin, inv.zmax) == (2, 0, 3)
        assert inv == series_invert(TruncSeries(1, 0, 3, 2, data))
        assert inv.get(3, (0,)) == sc(Fraction(-27, 16))

    def test_invert_requires_unit(self):
        a = TruncSeries(1, 0, 0, 2, {(0, (1,)): sc(1)})
        with pytest.raises(NonUnitConstantTerm):
            series_invert(a)

    def test_truncation_never_widens(self):
        a = TruncSeries(1, 0, 2, 3, {(0, (0,)): sc(1)})
        b = TruncSeries(1, 0, 1, 2, {(1, (0,)): sc(1)})
        prod = a * b
        assert prod.dmax == 2
        assert prod.zmax == min(a.zmax + b.zmin, b.zmax + a.zmin)

    def test_nonequiv_limit_indexing(self):
        a = TruncSeries(1, -1, 1, 1, {(-1, (0,)): Scalar.lam(1), (1, (1,)): Scalar.lam(1) + sc(2)})
        lim = a.nonequiv_limit()
        assert lim.get(-1, (0,)).is_zero
        assert lim.get(1, (1,)) == sc(2)

    def test_nonequiv_limit_hypergeometric_factor(self):
        # prod_{k=1..5} (lambda + k z) -> 120 z^5 at lambda = 0
        prod = TruncSeries.one(dmax=0, zmin=0, zmax=5)
        for k in range(1, 6):
            factor = TruncSeries(1, 0, 5, 0, {(0, (0,)): Scalar.lam(1), (1, (0,)): sc(k)})
            prod = prod * factor
        lim = prod.nonequiv_limit()
        assert lim.get(5, (0,)) == sc(120)
        for n in range(5):
            assert lim.get(n, (0,)).is_zero


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=4))
def test_random_unit_series_invert(coeffs):
    data = {(0, (0,)): sc(1)}
    for i, c in enumerate(coeffs, start=1):
        data[(0, (i,))] = sc(c)
    a = TruncSeries(1, 0, 0, 4, data)
    inv = series_invert(a)
    prod = a * inv
    assert prod.get(0, (0,)) == sc(1)
    for d in range(1, 5):
        assert prod.get(0, (d,)).is_zero


def _geometric_invert(a: TruncSeries) -> TruncSeries:
    """1/a as the geometric series sum_i (1 - a/c0)^i / c0 on the window
    (0, zmax, dmax), by series products: the path the recurrence of
    ``series_invert`` replaced."""
    d0 = (0,) * a.rank
    inv0 = a.get(0, d0).inverse()
    r = -a.copy_window(0, a.zmax, a.dmax).scale(inv0)
    r.set(0, d0, sc(0))
    out = power = TruncSeries.one(a.rank, 0, a.zmax, a.dmax)
    for _ in range(a.dmax + a.zmax):
        power = power * r
        if power.is_zero:
            break
        out = out + power
    return out.scale(inv0)


def _invert_coeff(kind):
    """One coefficient of the kind: a rational, an element of Q[lambda, 1/lambda],
    or a rational multiple of a root of unity plus a rational."""
    if kind == "rational":
        return rationals.map(sc)
    if kind == "laurent":
        return st.tuples(rationals, st.integers(-2, 2), rationals).map(
            lambda x: Scalar.lam(x[1]).scaled(x[0]) + sc(x[2]))
    return st.tuples(rationals, st.sampled_from((3, 4, 5, 12)), st.integers(1, 11),
                     rationals).map(lambda x: root_of_unity(x[1], x[2]).scaled(x[0]) + sc(x[3]))


@st.composite
def _invertible_series(draw):
    kind = draw(st.sampled_from(("rational", "laurent", "zeta")))
    rank = draw(st.integers(1, 2))
    zmax, dmax = draw(st.integers(0, 2)), draw(st.integers(0, 3 if rank == 1 else 2))
    data = {}
    for n in range(zmax + 1):
        for d in product(range(dmax + 1), repeat=rank):
            if sum(d) <= dmax and draw(st.booleans()):
                data[(n, d)] = draw(_invert_coeff(kind))
    head = draw(_invert_coeff(kind).filter(lambda c: not c.is_zero and c.is_invertible))
    data[(0, (0,) * rank)] = head
    return kind, TruncSeries(rank, draw(st.integers(-1, 0)), zmax, dmax, data)


@settings(max_examples=60, deadline=None)
@given(_invertible_series())
def test_series_invert_recurrence_equals_the_geometric_series(kind_a):
    """The recurrence against the geometric series: the same values on the same
    window, and the same serialised coefficients unless a value has a root of
    unity.  A cyclotomic value has no canonical form (-4 zeta_6 is stored at
    order 6, the same -4 - 4 zeta_3 at order 3), so the two summation orders
    may serialise a zeta-valued coefficient differently."""
    kind, a = kind_a
    fast, slow = series_invert(a), _geometric_invert(a)
    assert (fast.rank, fast.zmin, fast.zmax, fast.dmax) == (slow.rank, slow.zmin, slow.zmax,
                                                              slow.dmax)
    assert fast == slow
    if kind != "zeta":
        assert ({k: v.to_obj() for k, v in fast.items()}
                == {k: v.to_obj() for k, v in slow.items()})
    one, d0 = a * fast, (0,) * a.rank
    assert one.data == ({(0, d0): sc(1)} if one.inside(0, d0) else {})


# -- fast paths against the general ones ----------------------------------------

cyc_orders = st.sampled_from((1, 1, 2, 3, 4, 5, 6, 12))


@st.composite
def cyc_elements(draw):
    """Sums q_i zeta_n^(k_i), plus a random multiple of sum_k zeta_n^k (= 0 for n > 1)."""
    n = draw(cyc_orders)
    terms = draw(st.lists(st.tuples(st.integers(0, 11), rationals), max_size=3))
    c = Cyc.from_fraction(0)
    for k, q in terms:
        c = c + Cyc.from_fraction(q) * Cyc.root_of_unity(n, k)
    if draw(st.booleans()):
        q = Cyc.from_fraction(draw(rationals))
        for k in range(n):
            c = c + q * Cyc.root_of_unity(n, k)
    return c


@settings(max_examples=100, deadline=None)
@given(cyc_elements(), cyc_elements())
def test_cyc_is_zero_matches_all_coefficients(a, b):
    for c in (a, b, a + b, a - a, a * b, a + (-b), a - b):
        assert c.is_zero == all(x == 0 for x in c.coeffs)


def test_cyc_is_zero_on_cancelling_sums():
    z3 = Cyc.root_of_unity(3, 1)
    assert (Cyc.from_fraction(1) + z3 + z3 * z3).is_zero
    z4 = Cyc.root_of_unity(4, 1)
    assert (z4 * z4 + Cyc.from_fraction(1)).is_zero
    z6, z12 = Cyc.root_of_unity(6, 1), Cyc.root_of_unity(12, 1)
    assert (z6 - z12 * z12).is_zero
    assert not z3.is_zero and not (z3 + Cyc.from_fraction(1)).is_zero


@settings(max_examples=100, deadline=None)
@given(st.lists(cyc_elements(), max_size=4), st.lists(cyc_elements(), max_size=4))
def test_ratfunc_polynomial_fast_path(p, q):
    # RatFunc(num, den) is the general constructor: it always normalises by the gcd
    one = (CYC_ONE,)
    a, b = RatFunc(p, one), RatFunc(q, one)
    for fast, slow in (
        (a + b, RatFunc(add(mul(a.num, b.den, CYC_ZERO), mul(b.num, a.den, CYC_ZERO), CYC_ZERO),
                        mul(a.den, b.den, CYC_ZERO))),
        (a + (-a), RatFunc(add(a.num, (-a).num, CYC_ZERO), one)),
        (a * b, RatFunc(mul(a.num, b.num, CYC_ZERO), mul(a.den, b.den, CYC_ZERO))),
    ):
        assert fast.num == slow.num and fast.den == slow.den
        assert hash(fast) == hash(slow)
        assert Scalar((fast,), 1).to_obj() == Scalar((slow,), 1).to_obj()


def _euclidean_ratfunc(num, den):
    """The general normalisation: divide by the Euclidean gcd, then make den monic."""
    num, den = strip(list(num)), strip(list(den))
    g = _cgcd(num, den)
    if len(g) > 1:
        num, _ = pdivmod(num, g, g[-1].inverse(), CYC_ZERO)
        den, _ = pdivmod(den, g, g[-1].inverse(), CYC_ZERO)
    inv_lead = den[-1].inverse()
    return RatFunc([c * inv_lead for c in num], [c * inv_lead for c in den], _reduced=True)


nonzero_cyc = cyc_elements().filter(lambda c: not c.is_zero)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), nonzero_cyc,
       st.lists(cyc_elements(), max_size=3), nonzero_cyc, st.integers(0, 2))
def test_ratfunc_monomial_denominator_fast_path(v, b, head, tail, lead, pad):
    # num = u^v (head + tail u + ...) with unstripped zeros on top; den = lead u^b
    num = [CYC_ZERO] * v + [head] + tail + [CYC_ZERO] * pad
    den = [CYC_ZERO] * b + [lead] + [CYC_ZERO] * pad
    fast, slow = RatFunc(num, den), _euclidean_ratfunc(num, den)
    assert fast.num == slow.num and fast.den == slow.den
    assert hash(fast) == hash(slow)
    assert Scalar((fast,), 1).to_obj() == Scalar((slow,), 1).to_obj()
    assert len(fast.den) - 1 == b - min(b, v)


def test_ratfunc_monomial_denominator_skips_the_gcd(monkeypatch):
    def no_gcd(a, b):
        raise AssertionError("monomial denominators must not run the Euclidean gcd")

    monkeypatch.setattr(scalar, "_cgcd", no_gcd)
    z3 = Cyc.root_of_unity(3, 1)
    two = Cyc.from_fraction(2)
    rf = RatFunc([CYC_ZERO, CYC_ZERO, z3, CYC_ONE], [CYC_ZERO, CYC_ZERO, CYC_ZERO, two])
    assert rf.num == (z3 * two.inverse(), two.inverse()) and rf.den == (CYC_ZERO, CYC_ONE)
    rf = RatFunc([z3, CYC_ONE], [CYC_ZERO, CYC_ZERO, two])
    assert rf.den == (CYC_ZERO, CYC_ZERO, CYC_ONE)


# -- the dense-polynomial kernel over Fraction and Cyc coefficients --------------

RINGS = {
    "fraction": (rationals, Fraction(0), Fraction(1), lambda x: 1 / x),
    "cyc": (cyc_elements(), CYC_ZERO, CYC_ONE, Cyc.inverse),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_kernel_divmod(ring, data):
    elems, zero, _one, inverse = RINGS[ring]
    a = data.draw(st.lists(elems, max_size=5))
    b = strip(data.draw(st.lists(elems, min_size=1, max_size=4)))
    assume(b)
    q, r = pdivmod(a, b, inverse(b[-1]), zero)
    assert len(r) < len(b) and strip(list(r)) == r
    assert add(mul(q, b, zero), r, zero) == strip(list(a))


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_kernel_stretch_and_exponent_gcd(ring, data):
    elems, zero, _one, _inverse = RINGS[ring]
    p = data.draw(st.lists(elems, max_size=5))
    k = data.draw(st.integers(1, 4))
    g0 = data.draw(st.integers(0, 12))
    s = stretch(p, k, zero)
    assert s[::k] == p
    assert all(not c for i, c in enumerate(s) if i % k)
    assert exponent_gcd(p, g0) == gcd(g0, *(i for i, c in enumerate(p) if i and c))
    assert exponent_gcd(s, k) == k


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_kernel_power_is_the_repeated_product(ring, data):
    elems, _zero, one, inverse = RINGS[ring]
    x = data.draw(elems)
    n = data.draw(st.integers(-4, 6))
    assume(n >= 0 or x)
    expected = one
    for _ in range(abs(n)):
        expected = expected * (x if n >= 0 else inverse(x))
    assert power(x, n, one, inverse) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(cyc_elements(), max_size=3), st.lists(cyc_elements(), max_size=3),
       st.lists(cyc_elements(), max_size=3))
def test_cgcd_is_a_monic_common_divisor(p, q, c):
    # a common factor c makes the gcd nonconstant whenever c is
    a, b, c = mul(p, c, CYC_ZERO), mul(q, c, CYC_ZERO), strip(list(c))
    g = _cgcd(a, b)
    if not a and not b:
        assert g == []
        return
    assert g[-1] == CYC_ONE
    for x, divisor in ((a, g), (b, g)) + (((g, c),) if c else ()):
        _, r = pdivmod(x, divisor, divisor[-1].inverse(), CYC_ZERO)
        assert r == []


def _add_from_zeros(a, b, zero):
    """The summation the kernel's add replaced: both operands added onto zeros."""
    out = [zero] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return strip(out)


@settings(max_examples=100, deadline=None)
@given(st.lists(cyc_elements(), max_size=4), st.lists(cyc_elements(), max_size=4))
def test_kernel_add_matches_the_sum_onto_zeros(p, q):
    # add copies its left operand instead of adding it to zeros; the
    # elements must come out identical, conductor and coefficients alike
    fast, slow = add(p, q, CYC_ZERO), _add_from_zeros(p, q, CYC_ZERO)
    assert [(c.order, c.coeffs) for c in fast] == [(c.order, c.coeffs) for c in slow]
