"""exp(log Delta) by the weight-graded recurrence against the power series
sum_j L^j / j! that it replaced, on random log blocks.

Both truncate their products to the window [zmin, zmax], so they agree on
the blocks that no dropped term above zmax can reach: z^n with
n <= zmax - dim X, the blocks every caller keeps."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbiqrr.errors import TruncationTooNarrow
from orbiqrr.exactalg import SCALAR_ZERO, Scalar, sc
from orbiqrr.loopops import (
    _exp_classes,
    _zpoly_mul,
    delta_operator,
    euler_s_values,
    log_delta_classes,
)
from orbiqrr.orbtarget import (
    CohClass,
    bmu,
    bmu_character,
    line_bundle_On,
    point,
    projective_space,
    weighted_projective,
    wps_pullback_line,
)

from helpers import rand_frac

Frac = Fraction

TARGETS = [point()] + [bmu(r) for r in range(2, 6)] + [
    weighted_projective([1, 1, 2]), weighted_projective([1, 2, 3])] + [
    projective_space(n) for n in range(1, 5)]

targets = st.sampled_from(TARGETS)
seeds = st.integers(0, 2 ** 32 - 1)


def power_series_exp(t, logs, zmin, zmax):
    """The replaced implementation: per component, exp(head) sum_j rest^j / j!."""
    out = {}
    for comp in t.components:
        cid = comp.cid
        head = SCALAR_ZERO
        rest = {}
        for n, cls in logs.items():
            on_i = cls.restrict(cid)
            if on_i.is_zero:
                continue
            if n == 0:
                c0 = on_i.coeff(cid, 0)
                head = head + c0
                on_i = on_i - CohClass(t, {(cid, 0): c0})
            if not on_i.is_zero:
                rest[n] = rest.get(n, t.zero_class()) + on_i
        scalar_factor = head.exp()
        acc = {0: t.unit(cid)}
        term = {0: t.unit(cid)}
        j = 0
        while term:
            j += 1
            term = _zpoly_mul(t, term, rest, zmin, zmax)
            term = {n: c.scale(Frac(1, j)) for n, c in term.items() if not c.is_zero}
            for n, c in term.items():
                acc[n] = acc.get(n, t.zero_class()) + c
            assert j <= 4 * (t.dim + zmax - zmin + 2), "power series failed to terminate"
        for n, c in acc.items():
            c = c.scale(scalar_factor)
            if not c.is_zero:
                out[n] = out.get(n, t.zero_class()) + c
    return out


def random_coeff(rng):
    """A rational, sometimes times a power of 1/lambda (as in the Euler s-values)."""
    x = sc(rand_frac(rng))
    return x * Scalar.lam(-rng.randint(1, 3)) if rng.random() < 0.3 else x


def random_log_blocks(t, rng, zmax):
    """Random log blocks on z^-1..zmax: nilpotent z^-1 blocks (degree >= 2),
    mixed-degree blocks elsewhere, and (z^0, degree-0) heads q ln(lambda)."""
    blocks = {}
    for n in range(-1, zmax + 1):
        terms = {}
        for cid, idx in t.flat_basis:
            deg = t.by_id[cid].basis[idx].degree
            if (n == -1 and deg < 2) or rng.random() < 0.4:
                continue
            if n == 0 and idx == 0:
                terms[(cid, idx)] = Scalar.log_lambda() * sc(rand_frac(rng))
            else:
                terms[(cid, idx)] = random_coeff(rng)
        blocks[n] = CohClass(t, terms)
    return {n: c for n, c in blocks.items() if not c.is_zero}


def as_obj(classes, top):
    return {n: sorted((k, v.to_obj()) for k, v in c.terms.items())
            for n, c in classes.items() if n <= top}


@settings(max_examples=120, deadline=None)
@given(targets, seeds)
def test_recurrence_equals_the_power_series(t, seed):
    rng = random.Random(seed)
    zmax = rng.randint(0, 3) + t.dim
    zmin = -max(c.dim for c in t.components) - 1
    logs = random_log_blocks(t, rng, zmax)
    want = power_series_exp(t, logs, zmin, zmax)
    got = _exp_classes(t, logs, zmin, zmax)
    assert as_obj(got, zmax - t.dim) == as_obj(want, zmax - t.dim)


@pytest.mark.parametrize("t, bundle, arg, zmax", [
    (weighted_projective([1, 1, 2]), wps_pullback_line, 1, 6),
    (weighted_projective([1, 2, 3]), wps_pullback_line, 2, 5),
    (projective_space(3), line_bundle_On, 1, 4),
    (bmu(5), bmu_character, 2, 8),
])
def test_euler_delta_equals_the_power_series(t, bundle, arg, zmax):
    """delta_operator on the Euler s-values keeps exactly the power series'
    blocks <= zmax, built from the same log window zmax + dim X."""
    F = bundle(t, arg)
    s = euler_s_values(zmax + 2 * t.dim + 2)
    zmin = -max(c.dim for c in t.components) - 1
    want = power_series_exp(t, log_delta_classes(t, F, s, zmax + t.dim), zmin, zmax + t.dim)
    got = delta_operator(t, F, s, zmax).mult_classes
    assert as_obj(got, zmax) == as_obj(want, zmax)


def test_a_piece_of_weight_below_one_is_refused():
    """A degree-0 class at z^-1 has weight -1, which the recurrence cannot place."""
    t = projective_space(1)
    with pytest.raises(TruncationTooNarrow, match="weight"):
        _exp_classes(t, {-1: t.unit()}, -2, 2)
