"""The weight-graded exponential ``graded_exp`` against the power series
sum_j L^j / j! and the other exponentials that it replaced, on random blocks.

Both sides truncate their products to the window, so they agree on the
blocks that no dropped term above zmax can reach: for log blocks whose
z^(-1) pieces carry degree >= 2, z^n with n <= zmax - dim X, the blocks
every caller keeps.

The random pieces are of every kind ``graded_exp`` splits apart: Laurent
values in Q[lambda, 1/lambda], and ln(lambda) multiples, mixed
q + q' ln(lambda) and zeta values.  Values with zeta are compared with
``==``, since a cyclotomic number has no canonical form yet; all others
byte for byte, through ``to_obj``."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from orbiqrr.errors import ExpObstruction, TruncationTooNarrow
from orbiqrr.exactalg import (
    SCALAR_ONE,
    SCALAR_ZERO,
    Scalar,
    TruncSeries,
    deg_add,
    root_of_unity,
    sc,
)
from orbiqrr.genus0 import (
    extract_invariants,
    hypergeometric_modification,
    j_closed_form_Pn,
    mirror_map,
    small_expansion,
)
from orbiqrr.loopops import delta_operator, euler_s_values, log_delta_classes
from orbiqrr.orbtarget import (
    CohClass,
    bmu,
    bmu_character,
    graded_exp,
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


def window_mul(t, a, b, zmin, zmax, dmax):
    out = {}
    for (na, da), ca in a.items():
        for (nb, db), cb in b.items():
            n, d = na + nb, deg_add(da, db)
            if zmin <= n <= zmax and sum(d) <= dmax:
                out[(n, d)] = out.get((n, d), t.zero_class()) + ca.mul(cb)
    return {k: c for k, c in out.items() if not c.is_zero}


def power_series_exp(t, blocks, zmin, zmax, dmax=0):
    """The replaced implementation: per component, exp(head) sum_j rest^j / j!."""
    out = {}
    for comp in t.components:
        cid = comp.cid
        head = SCALAR_ZERO
        rest = {}
        for (n, d), cls in blocks.items():
            on_i = cls.restrict(cid)
            if on_i.is_zero:
                continue
            if n == 0 and not any(d):
                c0 = on_i.coeff(cid, 0)
                head = head + c0
                on_i = on_i - CohClass(t, {(cid, 0): c0})
            if not on_i.is_zero:
                rest[(n, d)] = rest.get((n, d), t.zero_class()) + on_i
        scalar_factor = head.exp()
        d0 = next((tuple(0 for _ in d) for _n, d in blocks), ())
        acc = {(0, d0): t.unit(cid)}
        term = {(0, d0): t.unit(cid)}
        j = 0
        while term:
            j += 1
            term = window_mul(t, term, rest, zmin, zmax, dmax)
            term = {k: c.scale(Frac(1, j)) for k, c in term.items()}
            for k, c in term.items():
                acc[k] = acc.get(k, t.zero_class()) + c
            assert j <= 4 * (t.dim + zmax - zmin + dmax + 2), "power series failed to terminate"
        for k, c in acc.items():
            c = c.scale(scalar_factor)
            if not c.is_zero:
                out[k] = out.get(k, t.zero_class()) + c
    return out


def random_coeff(rng, zeta=False):
    """A rational, sometimes times a power of 1/lambda (as in the Euler s-values);
    or with ln(lambda): q ln(lambda), q + q' ln(lambda), and with zeta a
    value q + q' zeta_n^k."""
    x = sc(rand_frac(rng))
    x = x * Scalar.lam(-rng.randint(1, 3)) if rng.random() < 0.3 else x
    kind = rng.random()
    if kind < 0.15:
        return x * Scalar.log_lambda()
    if kind < 0.3:
        return x + Scalar.log_lambda() * sc(rand_frac(rng))
    if zeta and kind < 0.45:
        n = rng.randint(3, 7)
        return x + root_of_unity(n, rng.randint(1, n - 1)) * sc(rand_frac(rng))
    return x


def has_zeta(classes):
    return any(c.order != 1 for cls in classes.values() for v in cls.terms.values()
               for rf in v.ell for c in rf.num + rf.den)


def assert_blocks_agree(got, want, top, window):
    """got's blocks all lie in window(n, d); on z^n, n <= top, they equal want's:
    by ``==`` when a value carries zeta, else byte for byte."""
    assert all(window(n, d) for n, d in got)
    if has_zeta(got) or has_zeta(want):
        g = {k: c for k, c in got.items() if k[0] <= top}
        assert g.keys() == {k for k in want if k[0] <= top}
        assert all(c == want[k] for k, c in g.items())
    else:
        assert as_obj(got, top) == as_obj(want, top)


def random_log_blocks(t, rng, zmax):
    """Random log blocks on z^-1..zmax: nilpotent z^-1 blocks (degree >= 2),
    mixed-degree blocks elsewhere, and (z^0, degree-0) heads q ln(lambda)."""
    zeta = rng.random() < 0.3
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
                terms[(cid, idx)] = random_coeff(rng, zeta)
        blocks[(n, ())] = CohClass(t, terms)
    return {k: c for k, c in blocks.items() if not c.is_zero}


def random_novikov_blocks(t, rng, zmax, dmax, rank):
    """Random blocks z^n Q^d x on n = -1..zmax, |d| <= dmax, of weight >= 1
    apart from the head; the z^-1 pieces carry degree >= 2 or |d| >= 2, so a
    product meets at most dim X + dmax of them."""
    zeta = rng.random() < 0.3
    blocks = {}
    for n in range(-1, zmax + 1):
        for d in _degrees(rank, dmax):
            terms = {}
            for cid, idx in t.flat_basis:
                deg = t.by_id[cid].basis[idx].degree
                if n + deg + sum(d) <= 0 and not (n == 0 and idx == 0 and not any(d)):
                    continue
                if (n == -1 and deg < 2 and sum(d) < 2) or rng.random() < 0.75:
                    continue
                if n == 0 and idx == 0 and not any(d):
                    terms[(cid, idx)] = Scalar.log_lambda() * sc(rand_frac(rng))
                else:
                    terms[(cid, idx)] = random_coeff(rng, zeta)
            if terms:
                blocks[(n, d)] = CohClass(t, terms)
    return blocks


def _degrees(rank, dmax):
    if rank == 0:
        return [()]
    return [(k,) + rest for k in range(dmax + 1) for rest in _degrees(rank - 1, dmax - k)]


def as_obj(classes, top):
    return {k: sorted((slot, v.to_obj()) for slot, v in c.terms.items())
            for k, c in classes.items() if k[0] <= top}


@settings(max_examples=120, deadline=None)
@given(targets, seeds)
def test_recurrence_equals_the_power_series(t, seed):
    rng = random.Random(seed)
    zmax = rng.randint(0, 3) + t.dim
    zmin = -max(c.dim for c in t.components) - 1
    logs = random_log_blocks(t, rng, zmax)
    want = power_series_exp(t, logs, zmin, zmax)
    got = graded_exp(t, logs, zmin, zmax, 0)
    assert_blocks_agree(got, want, zmax - t.dim, lambda n, d: zmin <= n <= zmax)


@settings(max_examples=60, deadline=None)
@given(targets, seeds)
def test_recurrence_equals_the_power_series_with_novikov_degrees(t, seed):
    """Blocks at Q^d with d != 0 (weight n + deg + |d|), in Novikov rank 1 and 2."""
    rng = random.Random(seed)
    rank = rng.randint(1, 2)
    dmax = rng.randint(1, 2)
    reach = t.dim + dmax            # z^-1 pieces that one product can meet
    zmax = rng.randint(0, 1) + reach
    zmin = -reach - 1
    blocks = random_novikov_blocks(t, rng, zmax, dmax, rank)
    want = power_series_exp(t, blocks, zmin, zmax, dmax)
    got = graded_exp(t, blocks, zmin, zmax, dmax)
    assert_blocks_agree(got, want, zmax - reach,
                        lambda n, d: zmin <= n <= zmax and sum(d) <= dmax)


def old_class_exp(cls):
    """The replaced CohClass.exp: exp(c0) * sum_j nil^j / j! per component."""
    t = cls.target
    out = {}
    for comp in t.components:
        cid = comp.cid
        head = cls.terms.get((cid, 0), SCALAR_ZERO).exp()
        nil = CohClass(t, {(cid, i): v for (cid2, i), v in cls.terms.items()
                           if cid2 == cid and i != 0})
        term = acc = t.unit(cid)
        for j in range(1, comp.dim + 1):
            term = term.mul(nil)
            if term.is_zero:
                break
            acc = acc + term.scale(Frac(1, factorial(j)))
        for k, v in acc.scale(head).terms.items():
            out[k] = out.get(k, SCALAR_ZERO) + v
    return CohClass(t, out)


@settings(max_examples=120, deadline=None)
@given(targets, seeds)
def test_class_exp_equals_the_power_series(t, seed):
    rng = random.Random(seed)
    terms = {}
    for cid, idx in t.flat_basis:
        if rng.random() < 0.3:
            continue
        if idx == 0:
            terms[(cid, idx)] = Scalar.log_lambda() * sc(rand_frac(rng))
        else:
            terms[(cid, idx)] = random_coeff(rng, zeta=True)
    cls = CohClass(t, terms)
    assert cls.exp() == old_class_exp(cls)


@pytest.mark.parametrize("t, bundle, arg, zmax", [
    (weighted_projective([1, 1, 2]), wps_pullback_line, 1, 6),
    (weighted_projective([1, 2, 3]), wps_pullback_line, 2, 5),
    (projective_space(3), wps_pullback_line, 1, 4),
    (bmu(5), bmu_character, 2, 8),
])
def test_euler_delta_equals_the_power_series(t, bundle, arg, zmax):
    F = bundle(t, arg)
    assert_delta_equals_the_power_series(t, F, euler_s_values(zmax + 2 * t.dim + 2), zmax)


def assert_delta_equals_the_power_series(t, F, s, zmax):
    """delta_operator keeps exactly the power series' blocks <= zmax, built
    from the same log window zmax + dim X."""
    zmin = -max(c.dim for c in t.components) - 1
    logs = {(n, ()): c for n, c in log_delta_classes(t, F, s, zmax + t.dim).items()}
    want = power_series_exp(t, logs, zmin, zmax + t.dim)
    got = {(n, ()): c for n, c in delta_operator(t, F, s, zmax).mult_classes.items()}
    assert as_obj(got, zmax) == as_obj(want, zmax)


DELTA_CASES = [
    (weighted_projective([1, 1, 2]), wps_pullback_line, 1),
    (weighted_projective([1, 2, 3]), wps_pullback_line, 2),
    (projective_space(2), wps_pullback_line, 3),
    (bmu(3), bmu_character, 1),
    (bmu(5), bmu_character, 2),
]


def random_s_values(rng, kmax):
    """s_0 a rational multiple of ln(lambda), as the head's exponential needs;
    every other slot zero, q, q lambda^-k, q ln(lambda) or q + q' ln(lambda)."""
    L = Scalar.log_lambda()
    out = [L * sc(rand_frac(rng))]
    for k in range(1, kmax + 1):
        q, q2 = sc(rand_frac(rng)), sc(rand_frac(rng))
        out.append(rng.choice([SCALAR_ZERO, q, q * Scalar.lam(-k), q * L, q + q2 * L]))
    return out


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DELTA_CASES), seeds)
def test_delta_with_ln_lambda_in_any_slot_equals_the_power_series(case, seed):
    t, bundle, arg = case
    rng = random.Random(seed)
    zmax = rng.randint(0, 3)
    s = random_s_values(rng, rng.randint(1, zmax + 2 * t.dim + 2))
    assert_delta_equals_the_power_series(t, bundle(t, arg), s, zmax)


def test_a_head_without_an_exponential_names_its_component():
    """A rational s_0 gives the twisted sectors of B(mu_3) a rational head, which
    has no exponential in the scalar ring; the error names the first one."""
    t = bmu(3)
    with pytest.raises(ExpObstruction, match=r"^component 1: head -1/6: .*transcendental"):
        delta_operator(t, bmu_character(t, 1), [sc(1)], 2)


def test_a_piece_of_weight_below_one_is_refused():
    """A degree-0 class at z^-1 has weight -1, which the recurrence cannot place."""
    t = projective_space(1)
    with pytest.raises(TruncationTooNarrow, match="weight"):
        graded_exp(t, {(-1, ()): t.unit()}, -2, 2, 0)
    with pytest.raises(TruncationTooNarrow, match="weight"):
        graded_exp(t, {(-1, (1,)): t.unit()}, -2, 2, 2)    # weight -1 + 0 + 1 = 0


# -- invariant extraction against its replaced power series -----------------------


def old_mul_exp_class_over_z(e, series, cls):
    """e * exp(series * cls / z) for a nilpotent class and a Q-series with no
    constant term."""
    t = e.target
    out = e.copy_window(e.zmin, e.zmax, e.dmax)
    power_cls = cls
    power_ser = series
    j = 1
    while not power_cls.is_zero and not power_ser.is_zero:
        inv_fact = sc(Frac(1, factorial(j)))
        for (n, d), c in e.data.items():
            prod_cls = c.mul(power_cls)
            if prod_cls.is_zero:
                continue
            for (_z, d2), w in power_ser.items():
                dd = deg_add(d, d2)
                nn = n - j
                if out.inside(nn, dd):
                    out.add_to(nn, dd, prod_cls.scale(w * inv_fact))
        j += 1
        power_cls = power_cls.mul(cls)
        power_ser = power_ser * series
        if j > e.dmax + t.dim + 2:
            break
    return out


def old_exp_series_coeff(series, multiple, degree):
    """Coefficient of Q^degree in exp(multiple * series), series with no constant term."""
    acc = SCALAR_ONE if degree == 0 else SCALAR_ZERO
    term = TruncSeries.one(series.rank, 0, 0, series.dmax)
    scaled = series.scale(sc(multiple))
    for j in range(1, degree + 1):
        term = term * scaled
        acc = acc + term.get(0, (degree,)) * sc(Frac(1, factorial(j)))
    return acc


def old_extracted_n(j_twisted, tau, degree):
    """N_d by the replaced strip-and-unwind."""
    t = j_twisted.target
    dmax = j_twisted.dmax
    tau_p = tau[("0", 1)]
    stripped = old_mul_exp_class_over_z(j_twisted.series, tau_p.scale(sc(-1)),
                                        t.basis_class("0", "p"))
    x = {}
    for d in range(1, dmax + 1):
        val = stripped.get(-1, (d,)).coeff("0", 2)
        for dd in range(1, d):
            val = val - x[dd] * old_exp_series_coeff(tau_p, dd, d - dd)
        x[d] = val
    return {d: (x[d] * sc(Frac(degree, d))).as_fraction() for d in range(1, dmax + 1)}


@pytest.mark.parametrize("dmax", range(1, 9))
def test_extraction_equals_the_power_series(dmax):
    j = j_closed_form_Pn(4, dmax)
    F = wps_pullback_line(j.target, 5)
    i = hypergeometric_modification(j.target, F, j, nonequivariant=True)
    tau, j_tw = mirror_map(i, *small_expansion(i))
    assert extract_invariants(j_tw, tau, F)["N"] == old_extracted_n(j_tw, tau, 5)
