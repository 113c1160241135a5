"""The truncation window shared by TruncSeries and GiventalElement, and the
windowed product, checked on both coefficient types against a plain-dict
reference over Fractions; LoopOperator products keep the same window."""

from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbiqrr.exactalg import TruncSeries, sc
from orbiqrr.givental import GiventalElement
from orbiqrr.loopops import LoopOperator
from orbiqrr.orbtarget import CohClass, projective_space

P2 = projective_space(2)
RANK = 2


class ScalarKind:
    """TruncSeries: a reference entry (n, d, i) -> q is the Scalar q (i = 0)."""

    def make(self, window, data=None):
        return TruncSeries(RANK, *window, data)

    def value(self, q, i):
        return sc(q)

    def times(self, c, q):
        return c * sc(q)

    def product(self, a, b):
        return a * b

    def ref(self, s):
        return {(n, d, 0): c.as_fraction() for (n, d), c in s.items()}


class CohKind:
    """GiventalElement on P^2: a reference entry (n, d, i) -> q is q * p^i (p^3 = 0)."""

    def make(self, window, data=None):
        return GiventalElement(P2, *window, data)

    def value(self, q, i):
        return CohClass(P2, {("0", i): sc(q)})

    def times(self, c, q):
        return c.scale(q)

    def product(self, a, b):
        return a.product(b, lambda x, y: x.mul(y))

    def ref(self, s):
        return {(n, d, i): v.as_fraction()
                for (n, d), c in s.items() for (_cid, i), v in c.terms.items()
                if not v.is_zero}


KINDS = [ScalarKind(), CohKind()]


def inside(window, n, d) -> bool:
    zmin, zmax, dmax = window
    return zmin <= n <= zmax and sum(d) <= dmax


def ref_combine(wa, ra, wb, rb, sign):
    w = tuple(min(x, y) for x, y in zip(wa, wb))
    out = defaultdict(Fraction)
    for r, s in ((ra, 1), (rb, sign)):
        for (n, d, i), v in r.items():
            if inside(w, n, d):
                out[(n, d, i)] += s * v
    return w, {k: v for k, v in out.items() if v}


def ref_product(wa, ra, wb, rb):
    """The product's window (one factor's unknown tail times the other's
    lowest power bounds it) and its entries, by the plain convolution."""
    w = (wa[0] + wb[0], min(wa[1] + wb[0], wb[1] + wa[0]), min(wa[2], wb[2]))
    out = defaultdict(Fraction)
    for (n1, d1, i1), v1 in ra.items():
        for (n2, d2, i2), v2 in rb.items():
            n, d = n1 + n2, tuple(x + y for x, y in zip(d1, d2))
            if inside(w, n, d) and i1 + i2 <= 2:
                out[(n, d, i1 + i2)] += v1 * v2
    return w, {k: v for k, v in out.items() if v}


windows = st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3)).map(
    lambda t: (t[0], t[0] + t[1], t[2]))
# (n, d) -> (q, basis index), zeros included: they must not be stored
entries = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.tuples(st.integers(0, 2), st.integers(0, 2))),
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=4), st.integers(0, 2)),
    max_size=8)


def build(kind, window, raw):
    """The series of the entries inside ``window``, and its reference dict."""
    data, ref = {}, {}
    for (n, d), (q, i) in raw.items():
        if inside(window, n, d):
            i = i if isinstance(kind, CohKind) else 0
            data[(n, d)] = kind.value(q, i)
            if q:
                ref[(n, d, i)] = q
    return kind.make(window, data), ref


def window_of(s):
    return (s.zmin, s.zmax, s.dmax)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS), windows, entries, windows, entries, windows)
def test_window_arithmetic_against_plain_dicts(kind, wa, ea, wb, eb, wc):
    a, ra = build(kind, wa, ea)
    b, rb = build(kind, wb, eb)
    assert kind.ref(a) == ra

    total = a + b
    assert (window_of(total), kind.ref(total)) == ref_combine(wa, ra, wb, rb, 1)

    diff = a - b
    assert (window_of(diff), kind.ref(diff)) == ref_combine(wa, ra, wb, rb, -1)
    via_neg = a + (-b)
    assert window_of(via_neg) == window_of(diff) and via_neg.data == diff.data

    cut = a.copy_window(*wc)
    assert window_of(cut) == wc
    assert kind.ref(cut) == {(n, d, i): v for (n, d, i), v in ra.items() if inside(wc, n, d)}

    mapped = a.map(lambda n, d, c: kind.times(c, n - sum(d)))
    assert window_of(mapped) == wa
    want = {(n, d, i): v * (n - sum(d)) for (n, d, i), v in ra.items() if n != sum(d)}
    assert kind.ref(mapped) == want

    prod = kind.product(a, b)
    assert (window_of(prod), kind.ref(prod)) == ref_product(wa, ra, wb, rb)


@pytest.mark.parametrize("kind", KINDS, ids=["Scalar", "CohClass"])
def test_window_checks_fire(kind):
    with pytest.raises(ValueError, match="zmin > zmax"):
        kind.make((1, 0, 2))
    s = kind.make((-1, 1, 2))
    one = kind.value(Fraction(1), 0)
    for n, d in ((2, (0, 0)), (-2, (0, 0)), (0, (2, 1))):
        with pytest.raises(ValueError, match="outside the window"):
            s.set(n, d, one)
        with pytest.raises(ValueError, match="outside the window"):
            s.add_to(n, d, one)
        with pytest.raises(ValueError, match="outside the window"):
            kind.make((-1, 1, 2), {(n, d): one})
    assert s.is_zero


def test_truncseries_rejects_a_wrong_rank():
    s = TruncSeries(RANK, 0, 1, 2)
    for d in ((0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="wrong rank"):
            s.set(0, d, sc(1))
        with pytest.raises(ValueError, match="wrong rank"):
            TruncSeries(RANK, 0, 1, 2, {(0, d): sc(1)})
    with pytest.raises(ValueError, match="rank mismatch"):
        s * TruncSeries(1, 0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(windows, windows)
def test_one_product_window_for_every_kind(wa, wb):
    """TruncSeries, GiventalElement and LoopOperator products (compose, and
    apply to an element) share one z-window: from the sum of the floors to
    the first power an unknown tail reaches.  Every factor has zmin <= zmax,
    so that window is never empty."""
    want = (wa[0] + wb[0], min(wa[1] + wb[0], wb[1] + wa[0]))
    assert want[0] <= want[1]
    a, b = (LoopOperator(P2, w[0], w[1], {}) for w in (wa, wb))
    products = [kind.product(kind.make(wa), kind.make(wb)) for kind in KINDS]
    products += [a.compose(b), a.apply(CohKind().make(wb))]
    for prod in products:
        assert (prod.zmin, prod.zmax) == want, type(prod).__name__
    assert isinstance(products[2], LoopOperator)
    assert products[3].dmax == wb[2] and type(products[3]) is GiventalElement
