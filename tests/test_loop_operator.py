"""LoopOperator stores one multiplier class per z-power.  Each operation is
checked against the matrix formula on the flat basis that it stands for,
written out here with linalg and blockwise sums, on the window that the
WindowedSeries rule gives it."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from orbiqrr.exactalg import SCALAR_ONE, SCALAR_ZERO
from orbiqrr.givental import GiventalElement
from orbiqrr.linalg import (
    gram_matrix,
    mat_inv,
    mat_mul,
    mat_transpose,
    multiplication_matrix,
)
from orbiqrr.loopops import LoopOperator, adjoint, check_symplectomorphism
from orbiqrr.orbtarget import bmu, point, projective_space, weighted_projective

from helpers import random_class

TARGETS = [point()] + [bmu(r) for r in range(2, 6)] + [
    weighted_projective([1, 1, 2]), weighted_projective([1, 2, 3]), projective_space(2)]

targets = st.sampled_from(TARGETS)
seeds = st.integers(0, 2 ** 32 - 1)


def random_operator(t, rng, contains_zero=False):
    """Classes on [zmin, top], declared on a window that may reach past top:
    an operator known to vanish above z^top."""
    zmin = rng.randint(-2, 0 if contains_zero else 1)
    top = max(zmin, 0) + rng.randint(0, 2) if contains_zero else zmin + rng.randint(0, 3)
    classes = {n: random_class(t, rng) for n in range(zmin, top + 1) if rng.random() < 0.8}
    return LoopOperator(t, zmin, top + rng.choice((0, 0, 1, 3, 6)), classes)


def zero_matrix(t):
    size = len(t.flat_basis)
    return [[SCALAR_ZERO] * size for _ in range(size)]


def identity_matrix(t):
    size = len(t.flat_basis)
    return [[SCALAR_ONE if i == j else SCALAR_ZERO for j in range(size)] for i in range(size)]


def mat_add(a, b, sign=1):
    return [[x + y if sign == 1 else x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def matrices(op):
    """The dense blocks of an operator on its window, from its classes."""
    return {n: multiplication_matrix(op.target, op.mult_classes.get(n, op.target.zero_class()))
            for n in range(op.zmin, op.zmax + 1)}


def assert_blocks(op, want, zmin, zmax):
    assert (op.zmin, op.zmax) == (zmin, zmax)
    for n in range(zmin - 1, zmax + 1):
        assert op.block(n) == want.get(n, zero_matrix(op.target)), n


@settings(max_examples=150, deadline=None)
@given(targets, seeds)
def test_compose_is_the_blockwise_matrix_product(t, seed):
    rng = random.Random(seed)
    a, b = random_operator(t, rng), random_operator(t, rng)
    zmin = a.zmin + b.zmin
    zmax = min(a.zmax + b.zmin, b.zmax + a.zmin)
    ma, mb = matrices(a), matrices(b)
    want = {}
    for i, x in ma.items():
        for j, y in mb.items():
            if zmin <= i + j <= zmax:
                want[i + j] = mat_add(want.get(i + j, zero_matrix(t)), mat_mul(x, y))
    assert_blocks(a.compose(b), want, zmin, zmax)


@settings(max_examples=150, deadline=None)
@given(targets, seeds)
def test_adjoint_is_the_gram_transpose(t, seed):
    op = random_operator(t, random.Random(seed))
    g = gram_matrix(t)
    g_inv = mat_inv(g)
    want = {n: mat_mul(g_inv, mat_mul(mat_transpose(b), g)) for n, b in matrices(op).items()}
    assert_blocks(adjoint(t, op), want, op.zmin, op.zmax)


@settings(max_examples=150, deadline=None)
@given(targets, seeds)
def test_sub_identity_flip_and_sum(t, seed):
    rng = random.Random(seed)
    a, b = random_operator(t, rng, contains_zero=True), random_operator(t, rng)
    ma, mb = matrices(a), matrices(b)
    want = dict(ma)
    want[0] = mat_add(ma[0], identity_matrix(t), sign=-1)
    assert_blocks(a.sub_identity(), want, a.zmin, a.zmax)
    want = {n: blk if n % 2 == 0 else mat_add(zero_matrix(t), blk, sign=-1)
            for n, blk in ma.items()}
    assert_blocks(a.flip_z(), want, a.zmin, a.zmax)
    zmin, zmax = min(a.zmin, b.zmin), min(a.zmax, b.zmax)
    want = {n: mat_add(ma.get(n, zero_matrix(t)), mb.get(n, zero_matrix(t)))
            for n in range(zmin, zmax + 1)}
    assert_blocks(a + b, want, zmin, zmax)


@settings(max_examples=150, deadline=None)
@given(targets, seeds)
def test_apply_is_the_matrix_action_on_the_flat_vector(t, seed):
    rng = random.Random(seed)
    op = random_operator(t, rng)
    e = GiventalElement(t, -2, 2, 1)
    for n in range(-2, 3):
        for d in ((0,), (1,)):
            e.add_to(n, d, random_class(t, rng))
    zmin = e.zmin + op.zmin
    zmax = min(e.zmax + op.zmin, op.zmax + e.zmin)
    got = op.apply(e)
    assert (got.zmin, got.zmax, got.dmax) == (zmin, zmax, e.dmax)
    size = len(t.flat_basis)
    for m in range(zmin, zmax + 1):
        for d in ((0,), (1,)):
            want = [SCALAR_ZERO] * size
            for a, blk in matrices(op).items():
                vec = [e.get(m - a, d).coeff(*key) for key in t.flat_basis]
                for i in range(size):
                    for j in range(size):
                        want[i] = want[i] + blk[i][j] * vec[j]
            assert [got.get(m, d).coeff(*key) for key in t.flat_basis] == want, (m, d)


@settings(max_examples=60, deadline=None)
@given(targets, seeds)
def test_apply_keeps_a_rank_two_novikov_degree(t, seed):
    """An operator block has no Novikov degree (key (n, ())), so applying it
    keeps the element's degree whatever its rank."""
    rng = random.Random(seed)
    op = random_operator(t, rng)
    degrees = ((0, 0), (1, 0), (0, 1), (1, 1))
    e = GiventalElement(t, -1, 1, 2)
    for n in range(-1, 2):
        for d in degrees:
            e.add_to(n, d, random_class(t, rng))
    got = op.apply(e)
    assert (got.zmin, got.dmax) == (e.zmin + op.zmin, 2)
    assert all(d in degrees for _n, d in got.data)
    for m in range(got.zmin, got.zmax + 1):
        for d in degrees:
            want = t.zero_class()
            for a, cls in op.mult_classes.items():
                want = want + cls.mul(e.get(m - a, d))
            assert got.get(m, d) == want, (m, d)


@settings(max_examples=80, deadline=None)
@given(targets, seeds)
def test_failing_symplectic_report_matches_the_matrix_products(t, seed):
    """M*(-z) M(z) - 1 by matrices: adjoint g^-1 B^T g, odd blocks negated,
    blockwise products, the identity taken off z^0.  M is declared up to
    z^(2 top - zmin), so the product window is all of [2 zmin, 2 top]."""
    rng = random.Random(seed)
    op = random_operator(t, rng, contains_zero=True)
    top = max([0, *op.mult_classes])
    op = LoopOperator(t, op.zmin, 2 * top - op.zmin, op.mult_classes)
    g = gram_matrix(t)
    g_inv = mat_inv(g)
    m = {n: blk for n, blk in matrices(op).items() if n <= top}
    lo, hi = 2 * op.zmin, 2 * top
    prod = {n: zero_matrix(t) for n in range(lo, hi + 1)}
    for i, x in m.items():
        adj = mat_mul(g_inv, mat_mul(mat_transpose(x), g))
        if i % 2:
            adj = mat_add(zero_matrix(t), adj, sign=-1)
        for j, y in m.items():
            prod[i + j] = mat_add(prod[i + j], mat_mul(adj, y))
    prod[0] = mat_add(prod[0], identity_matrix(t), sign=-1)
    bad = {}
    for n in range(lo, hi + 1):
        entries = [{"row": "/".join(map(str, t.flat_basis[i])),
                    "col": "/".join(map(str, t.flat_basis[j])), "value": x.to_obj()}
                   for i, row in enumerate(prod[n]) for j, x in enumerate(row)
                   if not x.is_zero]
        if entries:
            bad[n] = entries
    want = {"symplectic": not bad, "checked_range": [lo, hi],
            "max_clean_degree": (min(bad) - 1) if bad else hi, "offending_blocks": bad}
    got = check_symplectomorphism(t, op)
    assert got == want
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_a_class_outside_the_window_is_refused():
    t = bmu(3)
    with pytest.raises(ValueError):
        LoopOperator(t, 0, 1, {2: t.unit()})
    with pytest.raises(ValueError):
        LoopOperator(t, 1, 2, {1: t.unit()}).sub_identity()
