"""The TRR checker against the slot-by-slot subset loop it replaced.

``_check_trr`` evaluates each distinct recursion once: per insertion value
v1 and unordered pair of values, over the sub-multisets of the remaining
insertions with binomial weights, and with the dimension test ahead of any
lookup.  ``subset_loop_trr`` below is the old loop written out: every index
triple, every subset of the remaining slots, every basis pair.  Both must
give the same report (instances, violations in order, their splits and
residuals) or raise InsufficientTable with the same missing keys.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiqrr.errors import InsufficientTable
from orbiqrr.exactalg import SCALAR_ZERO, deg_splits, sc
from orbiqrr.genus0 import CorrelatorTable, build_point_table, check_universal_equation
from orbiqrr.genus0.correlators import _report, _value
from orbiqrr.linalg import mat_inv
from orbiqrr.orbtarget import bmu, point, projective_space, weighted_projective

from helpers import own_point_table, p1_table, random_table

Frac = Fraction


def subset_loop_trr(table: CorrelatorTable) -> dict:
    t = table.target
    ginv = mat_inv(t.gram())
    basis = t.flat_basis
    missing = []
    violations = []
    instances = 0
    for (n, d, ins) in list(table.keys()):
        if n < 3:
            continue
        seen = set()
        for i1 in range(n):
            if ins[i1][1] < 1:
                continue
            for i2 in range(n):
                for i3 in range(n):
                    if len({i1, i2, i3}) != 3:
                        continue
                    sig = (i1, tuple(sorted((ins[i2], ins[i3]))))
                    if sig in seen:
                        continue
                    seen.add(sig)
                    rest = [ins[j] for j in range(n) if j not in (i1, i2, i3)]
                    instances += 1
                    lhs = table.entries[(n, d, ins)]
                    rhs = SCALAR_ZERO
                    a1 = (ins[i1][0], ins[i1][1] - 1)
                    for amask in range(1 << len(rest)):
                        A = [rest[j] for j in range(len(rest)) if amask >> j & 1]
                        B = [rest[j] for j in range(len(rest)) if not amask >> j & 1]
                        for d1, d2 in deg_splits(d):
                            for ai, aslot in enumerate(basis):
                                left = _value(table, d1, [a1] + A + [(aslot, 0)], missing)
                                if left.is_zero:
                                    continue
                                for bi, bslot in enumerate(basis):
                                    w = ginv[bi][ai]
                                    if w.is_zero:
                                        continue
                                    right = _value(table, d2,
                                                   [(bslot, 0), ins[i2], ins[i3]] + B, missing)
                                    rhs = rhs + left * w * right
                    resid = lhs - rhs
                    if not resid.is_zero:
                        violations.append({"n": n, "d": list(d), "insertions": ins,
                                           "split": [i1, i2, i3],
                                           "residual": resid.to_obj()})
    return _report("trr", instances, violations, missing)


def outcome(check, table):
    try:
        return check(table)
    except InsufficientTable as e:
        return ("missing", e.missing)


def assert_same_outcome(table):
    want = outcome(subset_loop_trr, table)
    got = outcome(lambda tb: check_universal_equation("trr", tb), table)
    assert got == want
    return got


# -- consistent tables ----------------------------------------------------------


@pytest.mark.parametrize("nmax, instances", [(3, 0), (4, 1), (5, 6), (6, 20), (7, 52),
                                             (8, 116), (9, 240)])
def test_point_tables(nmax, instances):
    report = assert_same_outcome(build_point_table(point(), nmax))
    assert report["ok"] and report["instances"] == instances


def test_p1_table():
    report = assert_same_outcome(p1_table()[1])
    assert report["ok"] and report["instances"] >= 1


# -- one corrupted or one deleted entry -----------------------------------------

TABLES = {"point7": lambda: own_point_table(7), "P1": lambda: p1_table()[1]}


def _keys(name):
    return sorted(TABLES[name]().keys())


@pytest.mark.parametrize("name", sorted(TABLES))
def test_one_corrupted_entry(name):
    corrupted = 0
    for n, d, ins in _keys(name):
        table = TABLES[name]()
        if not table.dimension_ok(d, ins):
            continue        # stored zeros off the dimension constraint stay zero
        table.set(d, ins, table.entries[(n, d, ins)] + sc(Frac(1, 3)))
        report = assert_same_outcome(table)
        corrupted += not report["ok"]
    assert corrupted >= 3


@pytest.mark.parametrize("name", sorted(TABLES))
def test_one_deleted_entry(name):
    raised = 0
    for key in _keys(name):
        table = TABLES[name]()
        del table.entries[key]
        got = assert_same_outcome(table)
        raised += isinstance(got, tuple)
    assert raised >= 2


# -- random tables: every violation, multi-slot bases, fractional ages ------------

TARGETS = [point(), bmu(2), bmu(3), projective_space(1), weighted_projective([1, 2])]


@settings(max_examples=60, deadline=None)
@given(t=st.sampled_from(TARGETS), seed=st.integers(0, 2 ** 32 - 1),
       fill=st.sampled_from([1.0, 0.97, 0.8]), data=st.data())
def test_random_tables(t, seed, fill, data):
    nmax = data.draw(st.integers(4, 6 if t.dim == 0 else 5))
    dmax = 0 if t.dim == 0 else data.draw(st.integers(0, 1))
    assert_same_outcome(random_table(t, nmax, dmax, fill, random.Random(seed)))


def test_random_tables_fail_and_miss():
    """The random tables above reach both outcomes, with repeated values."""
    rng = random.Random(1)
    full = assert_same_outcome(random_table(projective_space(1), 5, 1, 1.0, rng))
    assert not full["ok"] and len({tuple(v["split"]) for v in full["violations"]}) > 5
    assert isinstance(assert_same_outcome(random_table(bmu(2), 6, 0, 0.8, rng)), tuple)
