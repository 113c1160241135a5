"""The string, dilaton and divisor checkers against the loops they replaced.

``check_universal_equation`` runs the three linear equations through one
instance loop, each equation supplying its right side, and the divisor's
gamma acts on an insertion a_j as ``spread_untwisted(gamma).mul(a_j)``.
``old_string``, ``old_dilaton`` and ``old_divisor`` below are the three
loops written out as they were, the divisor walking the restriction maps
and the product table by hand.  Both must give the same report
(instances, violations in order, their residuals) or raise
InsufficientTable with the same missing keys.

WPS(1,2,2) is in the target list because its twisted sector is a P^1, on
which the restriction of the hyperplane class is not zero: over P^n and
WPS(1,1,2) (twisted sector a point) gamma and its spread act alike on
every insertion.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiqrr.errors import InsufficientTable
from orbiqrr.exactalg import SCALAR_ZERO, sc
from orbiqrr.genus0 import CorrelatorTable, check_universal_equation
from orbiqrr.genus0.correlators import _report, _value
from orbiqrr.orbtarget import projective_space, weighted_projective

from helpers import p1_table, random_table

Frac = Fraction
UNIT = ("0", 0)


def old_string(table):
    missing, violations, instances = [], [], 0
    for (n, d, ins) in list(table.keys()):
        if (UNIT, 0) not in ins or n < 4:
            continue
        rest = list(ins)
        rest.remove((UNIT, 0))
        instances += 1
        lhs = table.entries[(n, d, ins)]
        rhs = SCALAR_ZERO
        for j, (slot, k) in enumerate(rest):
            if k == 0:
                continue
            lowered = rest[:j] + [(slot, k - 1)] + rest[j + 1:]
            rhs = rhs + _value(table, d, lowered, missing)
        resid = lhs - rhs
        if not resid.is_zero:
            violations.append({"n": n, "d": list(d), "insertions": ins,
                               "residual": resid.to_obj()})
    return _report("string", instances, violations, missing)


def old_dilaton(table):
    missing, violations, instances = [], [], 0
    for (n, d, ins) in list(table.keys()):
        if (UNIT, 1) not in ins or n < 4:
            continue
        rest = list(ins)
        rest.remove((UNIT, 1))
        instances += 1
        lhs = table.entries[(n, d, ins)]
        rhs = _value(table, d, rest, missing) * sc(n - 3)
        resid = lhs - rhs
        if not resid.is_zero:
            violations.append({"n": n, "d": list(d), "insertions": ins,
                               "residual": resid.to_obj()})
    return _report("dilaton", instances, violations, missing)


def old_divisor(table):
    t = table.target
    missing, violations, instances = [], [], 0
    comp0 = t.by_id["0"]
    for (n, d, ins) in list(table.keys()):
        for j, (slot, k) in enumerate(ins):
            cid, idx = slot
            if cid != "0" or k != 0 or comp0.basis[idx].degree != 2 or n < 4:
                continue
            gamma = comp0.basis[idx]
            rest = list(ins[:j]) + list(ins[j + 1:])
            instances += 1
            lhs = table.entries[(n, d, ins)]
            pairing = sum((Frac(c) * di for c, di in zip(gamma.curve_pairing, d)), Frac(0))
            rhs = _value(table, d, rest, missing) * sc(pairing)
            for m, (slot2, k2) in enumerate(rest):
                if k2 == 0:
                    continue
                cid2, idx2 = slot2
                comp2 = t.by_id[cid2]
                restr = comp2.untwisted_restriction
                if restr is None:
                    continue
                for g_idx, w in enumerate(restr[idx]):
                    if not w:
                        continue
                    for out_idx, w2 in comp2.product(g_idx, idx2).items():
                        if not w2:
                            continue
                        lowered = rest[:m] + [((cid2, out_idx), k2 - 1)] + rest[m + 1:]
                        rhs = rhs + _value(table, d, lowered, missing) * sc(w * w2)
            resid = lhs - rhs
            if not resid.is_zero:
                violations.append({"n": n, "d": list(d), "insertions": ins,
                                   "residual": resid.to_obj()})
            break
    return _report("divisor", instances, violations, missing)


OLD = {"string": old_string, "dilaton": old_dilaton, "divisor": old_divisor}


def outcome(check, table):
    try:
        return check(table)
    except InsufficientTable as e:
        return ("missing", e.missing)


def assert_same_outcome(kind, table):
    want = outcome(OLD[kind], table)
    got = outcome(lambda tb: check_universal_equation(kind, tb), table)
    assert got == want
    return got


KINDS = sorted(OLD)
TARGETS = {"P1": projective_space(1), "P2": projective_space(2),
           "WPS112": weighted_projective([1, 1, 2]), "WPS122": weighted_projective([1, 2, 2])}


@functools.lru_cache(maxsize=None)
def _full(name):
    return random_table(TARGETS[name], 5, 1, 1.0, random.Random(0))


def full_table(name):
    """Every dimension-valid key with n <= 5 and d <= 1, random values (a fresh copy)."""
    table = CorrelatorTable(TARGETS[name])
    table.entries = dict(_full(name).entries)
    return table


# -- whole tables, one corrupted entry, one deleted entry ------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_p1_table(kind):
    report = assert_same_outcome(kind, p1_table()[1])
    assert report["ok"]


@pytest.mark.parametrize("name", sorted(TARGETS))
@pytest.mark.parametrize("kind", KINDS)
def test_random_full_tables(kind, name):
    report = assert_same_outcome(kind, full_table(name))
    assert report["instances"] > 0 and not report["ok"]


@pytest.mark.parametrize("name", sorted(TARGETS))
@pytest.mark.parametrize("kind", KINDS)
def test_one_corrupted_and_one_deleted_entry(kind, name):
    keys = sorted(_full(name).keys())
    raised = 0
    for key in random.Random(f"{kind}/{name}").sample(keys, 30):
        table = full_table(name)
        table.entries[key] = table.entries[key] + sc(Frac(1, 3))
        assert_same_outcome(kind, table)
        table = full_table(name)
        del table.entries[key]
        raised += isinstance(assert_same_outcome(kind, table), tuple)
    assert raised > 0


def test_divisor_acts_on_twisted_insertions():
    """Over WPS(1,2,2) some divisor instance lowers a twisted-sector
    insertion 1 psibar^k to h psibar^(k-1) with a stored nonzero value: the
    spread of gamma = h is not zero there, and the report matches the walk
    of the restriction maps."""
    table = full_table("WPS122")
    gamma, one, h = (("0", 1), 0), ("1/2", 0), ("1/2", 1)
    hits = 0
    for (n, d, ins) in table.keys():
        if n < 4 or gamma not in ins:
            continue
        rest = list(ins)
        rest.remove(gamma)
        for j, (slot, k) in enumerate(rest):
            if slot == one and k >= 1:
                lowered = rest[:j] + [(h, k - 1)] + rest[j + 1:]
                hits += not (table.get(d, lowered) or SCALAR_ZERO).is_zero
    assert hits > 0
    assert_same_outcome("divisor", table)


# -- random partial tables -------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), name=st.sampled_from(sorted(TARGETS)),
       seed=st.integers(0, 2 ** 32 - 1), fill=st.sampled_from([1.0, 0.97, 0.8]),
       data=st.data())
def test_random_tables(kind, name, seed, fill, data):
    nmax = data.draw(st.integers(4, 5))
    dmax = data.draw(st.integers(0, 1))
    assert_same_outcome(kind, random_table(TARGETS[name], nmax, dmax, fill,
                                           random.Random(seed)))


def test_unknown_kind():
    with pytest.raises(ValueError):
        check_universal_equation("wdvv", p1_table()[1])
