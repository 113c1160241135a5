"""The factor kernel's weighting stage (``jfunction._weigh_rows``) against the
loop it replaced, which built its weights on every call and summed one
transient class per (row, weight) pair.  The two must agree to the byte,
also on zeta-valued coefficients, whose printed form depends on the order
of their sums; and the memoised weight table must not leak from one call
into another."""

import json
import random
from fractions import Fraction
from math import comb, inf

from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbiqrr.exactalg import Scalar, root_of_unity, sc
from orbiqrr.genus0 import jfunction
from orbiqrr.genus0.jfunction import _factor_coefficients, _weigh_rows, _weight_table
from orbiqrr.orbtarget import CohClass, projective_space, weighted_projective

from helpers import rand_frac

TARGETS = (projective_space(2), projective_space(3), weighted_projective([1, 1, 2]))


def _weigh_rows_before(rows, s, e, equivariant, zmin=-inf):
    """The weighting stage before its table was memoised, verbatim."""
    if s == 0:
        return {n: row[0] for n, row in rows.items() if n >= zmin}
    lam_top = e * s if equivariant else 0
    top = max((len(row) for row in rows.values()), default=1) - 1
    weights = {(i, j): Scalar.lam(i - j).scaled(a * comb(i, j))
               for i, a in enumerate(_factor_coefficients(e, s, top + lam_top))
               for j in range(max(0, i - lam_top), min(i, top) + 1)}
    out = {}
    for n, row in rows.items():
        for (i, j), w in weights.items():
            m = n + e * s - i
            if j < len(row) and m >= zmin:
                term = row[j].scale(w)
                out[m] = out[m] + term if m in out else term
    return out


def _dump(out) -> str:
    """The z-powers, slots and values of a result, in their dict orders."""
    return json.dumps([[m, [[list(k), v.to_obj()] for k, v in c.terms.items()]]
                       for m, c in out.items()])


def _coeff(rng: random.Random) -> Scalar:
    """A rational, a lambda-Laurent value, a value with ln(lambda), or one with
    zeta_3, zeta_4 or zeta_6 (conductors whose sums print by summation order)."""
    q = sc(rand_frac(rng))
    kind = rng.randrange(4)
    if kind == 1:
        return q * Scalar.lam(rng.choice([-2, -1, 1, 2])) + sc(rand_frac(rng))
    if kind == 2:
        return q * Scalar.log_lambda() + sc(rand_frac(rng))
    if kind == 3:
        return q * root_of_unity(rng.choice([3, 4, 6]), 1) + sc(rand_frac(rng))
    return q


def _rows(t, rng: random.Random):
    """Up to three rows of up to four classes, at distinct z-powers."""
    rows = {}
    for n in rng.sample(range(-6, 3), rng.randint(0, 3)):
        rows[n] = [CohClass(t, {slot: _coeff(rng) for slot in t.flat_basis
                                if rng.random() < 0.6})
                   for _ in range(rng.randint(1, 4))]
    return rows


# (e, equivariant): lambda stays 0 for e < 0, where x must be nilpotent
_KINDS = ((1, False), (1, True), (2, False), (2, True), (None, False))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TARGETS), st.sampled_from(_KINDS), st.integers(0, 4),
       st.one_of(st.just(-inf), st.integers(-12, 1)), st.integers(0, 2 ** 32 - 1))
@example(TARGETS[0], (1, True), 2, -inf, 0)
@example(TARGETS[1], (None, False), 3, -8, 1)
@example(TARGETS[2], (2, True), 1, 1, 2)
def test_weigh_rows_matches_the_loop_it_replaced(t, kind, s, zmin, seed):
    e, equivariant = kind
    e = -(t.dim + 1) if e is None else e
    rows = _rows(t, random.Random(seed))
    got = _weigh_rows(rows, s, e, equivariant, zmin)
    assert _dump(got) == _dump(_weigh_rows_before(rows, s, e, equivariant, zmin))
    assert all(c.target is t for c in got.values())


def test_a_cut_term_and_an_empty_input():
    """A term exactly at the cut stays; no rows give no terms."""
    t = projective_space(2)
    rows = {0: [t.unit(), t.basis_class("0", "p")]}
    for zmin in (-inf, -1, 0, 1, 2, 3):
        for equivariant in (False, True):
            got = _weigh_rows(rows, 2, 1, equivariant, zmin)
            assert _dump(got) == _dump(_weigh_rows_before(rows, 2, 1, equivariant, zmin))
    assert min(_weigh_rows(rows, 2, 1, False, 1)) == 1
    assert _weigh_rows({}, 2, 1, True) == {} == _weigh_rows({}, 0, 1, False)


def test_the_weight_table_is_keyed_on_the_lambda_top():
    """Nonequivariant and equivariant calls with the same (e, s, top) read
    different tables, in either order after an empty memo."""
    t = projective_space(3)
    rows = {1: [t.unit(), t.basis_class("0", "p"), t.basis_class("0", "p^2")]}
    for order in ((False, True), (True, False)):
        _weight_table.cache_clear()
        for equivariant in order:
            assert (_dump(_weigh_rows(rows, 2, 1, equivariant))
                    == _dump(_weigh_rows_before(rows, 2, 1, equivariant)))


class _Read:
    """Entry i of a weight table that logs (i, j) for every weight read."""

    def __init__(self, i, pairs, log):
        self.i, self.pairs, self.log = i, pairs, log

    def __iter__(self):
        for j, w in self.pairs:
            self.log.append((self.i, j))
            yield j, w


def test_the_loops_read_no_weight_past_the_row_or_the_cut(monkeypatch):
    """For each row, the i-loop visits i = 0 .. min(len(table), len(row) +
    lambda-top, n + e s - zmin + 1) - 1, and for each i the j-loop reads the
    weights of j < len(row) and at most the first one past it."""
    t = projective_space(3)
    p = t.basis_class("0", "p")
    rows = {0: [t.unit()], -5: [t.unit(), p, p.mul(p), p.mul(p).mul(p)], -1: [p, p.mul(p)]}
    log = []

    def logged(*key):
        return tuple(_Read(i, pairs, log) for i, pairs in enumerate(_weight_table(*key)))

    monkeypatch.setattr(jfunction, "_weight_table", logged)
    for s, e, equivariant, zmin in ((3, 1, True, -inf), (3, 1, True, -3), (2, 2, False, -inf),
                                    (2, -4, False, -9), (1, 1, True, 0)):
        lam_top = e * s if equivariant else 0
        table = _weight_table(e, s, 3, lam_top)
        log.clear()
        got = _weigh_rows(rows, s, e, equivariant, zmin)
        assert _dump(got) == _dump(_weigh_rows_before(rows, s, e, equivariant, zmin))
        want = []
        for n, row in rows.items():
            for i in range(min(len(table), len(row) + lam_top, n + e * s - zmin + 1)):
                js = [j for j, _w in table[i]]
                inside = [j for j in js if j < len(row)]
                want += [(i, j) for j in js[:len(inside) + 1]]
        assert log == want, (s, e, equivariant, zmin)


def test_weights_are_shared_and_exact():
    """One table object per key, holding lambda^(i-j) c_i C(i, j)."""
    assert _weight_table(1, 3, 2, 3) is _weight_table(1, 3, 2, 3)
    for i, entry in enumerate(_weight_table(1, 3, 2, 3)):
        c = _factor_coefficients(1, 3, 5)[i]
        assert [j for j, _w in entry] == list(range(max(0, i - 3), min(i, 2) + 1))
        for j, w in entry:
            assert w == Scalar.lam(i - j) * sc(Fraction(c * comb(i, j)))
