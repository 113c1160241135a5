import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiqrr.bernoulli import bernoulli_number, bernoulli_value
from orbiqrr.exactalg import SCALAR_ONE, SCALAR_ZERO, Scalar, sc
from orbiqrr.givental import GiventalElement, symplectic_form
from orbiqrr.linalg import mat_inv, mat_is_zero, mat_mul, mat_transpose, multiplication_matrix
from orbiqrr.loopops import (
    LoopOperator,
    adjoint,
    check_delta_symplectomorphism,
    check_symplectomorphism,
    class_Am,
    delta_inverse,
    delta_operator,
    euler_s_values,
    is_infinitesimally_symplectic,
    log_delta,
    log_delta_classes,
    twisted_gram,
)
from orbiqrr.orbtarget import (
    CohClass,
    bmu,
    bmu_character,
    point,
    projective_space,
    trivial_bundle,
    weighted_projective,
    wps_pullback_line,
)

from helpers import random_bundle, random_class

Frac = Fraction


# ---------------------------------------------------------------------------
# independent oracle: the stationary-phase log gamma factor per Chern root
#
# For a rank-1 eigen-summand with nilpotent Chern root rho on component i and
# eigen index l (order r), with the (lambda ln lambda - lambda)/z term
# discarded (it acts trivially on the cone):
#   l = 0:   [(rho+lam)ln(rho+lam) - (rho+lam) + (lam - lam*ell)]/z
#            + sum_{m>=2} ((-1)^m B_m / (m(m-1))) (z/(lam+rho))^{m-1}
#   l != 0:  same 1/z part, plus ell*(l/r - 1/2) + (l/r - 1/2) ln(1+rho/lam),
#            with B_m(l/r) in place of B_m.


def log_gamma_blocks(t, cid, rho_coeffs, l, r, zmax):
    """dict zpow -> CohClass on component cid. rho_coeffs: {basis_idx: Frac} of the root."""
    comp = t.by_id[cid]
    dim = comp.dim
    lam = Scalar.lam(1)
    ell = Scalar.log_lambda()
    rho = CohClass(t, {(cid, i): sc(v) for i, v in rho_coeffs.items()})

    def rho_pow(j):
        out = t.unit(cid)
        for _ in range(j):
            out = out.mul(rho)
        return out

    # ln(1 + rho/lam) = sum_{j>=1} (-1)^(j+1) rho^j / (j lam^j), nilpotent
    log1p = t.zero_class()
    for j in range(1, dim + 1):
        log1p = log1p + rho_pow(j).scale(sc(Frac((-1) ** (j + 1), j)) * Scalar.lam(-j))

    blocks = {}

    # 1/z block: (rho+lam)(ell + log1p) - rho - lam - (lam ell - lam)
    zinv = rho.scale(ell) + (t.unit(cid).scale(lam) + rho).mul(log1p) - rho
    if not zinv.is_zero:
        blocks[-1] = zinv

    # z^0 block for twisted indices
    if l % r != 0:
        w = Frac(l, r) - Frac(1, 2)
        z0 = t.unit(cid).scale(ell * sc(w)) + log1p.scale(sc(w))
        if not z0.is_zero:
            blocks[0] = z0

    # z^(m-1) blocks, m >= 2: ((-1)^m B_m(l/r)/(m(m-1))) (lam+rho)^(1-m)
    for m in range(2, zmax + 2):
        b = bernoulli_value(m, Frac(l % r, r))
        if b == 0:
            continue
        coeff = Frac((-1) ** m, m * (m - 1)) * b
        # (lam+rho)^(1-m) = lam^(1-m) (1+rho/lam)^(1-m)
        inv_pow = t.unit(cid)
        for j in range(1, dim + 1):
            c = Frac(1)
            for x in range(j):
                c *= Frac(1 - m - x, x + 1)
            inv_pow = inv_pow + rho_pow(j).scale(sc(c) * Scalar.lam(-j))
        cls = inv_pow.scale(sc(coeff) * Scalar.lam(1 - m))
        if m - 1 <= zmax and not cls.is_zero:
            blocks[m - 1] = blocks.get(m - 1, t.zero_class()) + cls
    return blocks


class TestAmClasses:
    def test_bmu2_A2(self):
        t = bmu(2)
        F = bmu_character(t, 1)
        a2 = class_Am(t, F, 2)
        assert a2.coeff("0", 0) == sc(Frac(1, 6))      # B_2(0)
        assert a2.coeff("1", 0) == sc(Frac(-1, 12))    # B_2(1/2)

    def test_bmu3_A3(self):
        t = bmu(3)
        F = bmu_character(t, 1)
        a3 = class_Am(t, F, 3)
        assert a3.coeff("0", 0).is_zero                 # B_3(0) = 0
        assert a3.coeff("1", 0) == sc(Frac(1, 27))      # B_3(1/3)
        assert a3.coeff("2", 0) == sc(Frac(-1, 27))     # B_3(2/3)

    def test_A0_is_total_chern_rank(self):
        rng = random.Random(3)
        for t in (bmu(4), weighted_projective([1, 1, 2])):
            F = random_bundle(t, rng, rank=3)
            a0 = class_Am(t, F, 0)
            for comp in t.components:
                assert a0.degree_part(0).coeff(comp.cid, 0) == sc(3)


def _class_Am_slow(t, F, m):
    """A_m by the loop over every (component, l) pair, one class sum per part."""
    out = t.zero_class()
    for comp in t.components:
        for l in range(comp.r):
            cls = F.eigen_class(comp.cid, l)
            if cls.is_zero:
                continue
            w = bernoulli_value(m, Frac(l, comp.r))
            if w:
                out = out + cls.scale(sc(w))
    return out


def _assert_same_Am(t, F):
    for m in range(10):
        fast, slow = class_Am(t, F, m), _class_Am_slow(t, F, m)
        assert fast.target is t
        assert fast == slow, (t.name, F.name, m)
        assert ({k: v.to_obj() for k, v in fast.terms.items()}
                == {k: v.to_obj() for k, v in slow.terms.items()}), (t.name, F.name, m)


class TestAmOverNonzeroParts:
    """class_Am visits only F.eigen; the slow path visits every (component, l)."""

    @pytest.mark.parametrize("r", range(2, 13))
    def test_characters(self, r):
        t = bmu(r)
        for j in range(r):
            _assert_same_Am(t, bmu_character(t, j))

    @pytest.mark.parametrize("weights", [[1, 1, 2], [1, 2, 3], [1, 1, 1, 1, 2]])
    def test_wps_lines(self, weights):
        t = weighted_projective(weights)
        for deg in range(-3, 4):
            _assert_same_Am(t, wps_pullback_line(t, deg))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([("bmu", r) for r in range(2, 13)] + [("wps", (1, 1, 2)), ("wps", (1, 2, 3))]),
           st.integers(0, 2 ** 32), st.integers(1, 4))
    def test_random_bundles(self, spec, seed, rank):
        kind, arg = spec
        t = bmu(arg) if kind == "bmu" else weighted_projective(list(arg))
        _assert_same_Am(t, random_bundle(t, random.Random(seed), rank=rank))


class TestAdjointness:
    def test_am_parity_adjointness_plain_and_twisted(self):
        rng = random.Random(12)
        targets = [bmu(r) for r in range(2, 7)] + [weighted_projective([1, 1, 2])]
        s = [sc(0), sc(Frac(1, 2)), sc(Frac(-2, 3)), sc(Frac(1, 5))]
        for t in targets:
            F = random_bundle(t, rng)
            g_tw = twisted_gram(t, F, s)
            g_tw_inv = mat_inv(g_tw)
            for m in range(2, 9):
                cls = class_Am(t, F, m)
                mult = multiplication_matrix(t, cls)
                sign = (-1) ** (m % 2)  # odd m >= 3 anti-self-adjoint, even self-adjoint
                plain = adjoint(t, LoopOperator(t, 0, 0, {0: cls})).block(0)
                twisted = mat_mul(g_tw_inv, mat_mul(mat_transpose(mult), g_tw))
                for blk in (plain, twisted):
                    diff = [[x - (y if sign == 1 else -y) for x, y in zip(r1, r2)]
                            for r1, r2 in zip(blk, mult)]
                    assert mat_is_zero(diff), (t.name, m)

    def test_A1_correction_anti_self_adjoint(self):
        rng = random.Random(5)
        for t in (bmu(3), weighted_projective([1, 1, 2])):
            F = random_bundle(t, rng)
            cls = class_Am(t, F, 1) + F.invariant_part().scale(sc(Frac(1, 2)))
            B = multiplication_matrix(t, cls)
            assert is_infinitesimally_symplectic(t, B, 0)

    def test_infinitesimal_symplectic_generators(self):
        rng = random.Random(8)
        t = bmu(3)
        F = random_bundle(t, rng)
        gens = []
        for m in range(2, 6, 2):      # A_{2m} z^{2m-1}
            gens.append((class_Am(t, F, m), m - 1))
        for m in range(3, 7, 2):      # A_{2m+1} z^{2m}
            gens.append((class_Am(t, F, m), m - 1))
        gens.append((class_Am(t, F, 0).degree_part(2), -1))
        gens.append((class_Am(t, F, 1) + F.invariant_part().scale(sc(Frac(1, 2))), 0))
        for cls, zpow in gens:
            # B z^zpow declared 12 powers past its floor: a sample spans 12,
            # so op.apply(sample) keeps the sample's top
            lo = min(zpow, 0)
            op = LoopOperator(t, lo, lo + 12, {zpow: cls})
            for _ in range(50):
                f = _rand_elem(t, rng)
                g = _rand_elem(t, rng)
                lhs = symplectic_form(t, op.apply(f), g)
                rhs = symplectic_form(t, f, op.apply(g))
                assert (lhs + rhs).is_zero


def _rand_elem(t, rng, lo=-5, hi=5):
    e = GiventalElement(t, lo - 1, hi + 1, 0)
    for k in range(lo, hi + 1):
        cls = random_class(t, rng)
        if not cls.is_zero:
            e.add_to(k, (0,), cls)
    return e


class TestLogDelta:
    def test_zero_bundle_gives_zero(self):
        t = bmu(2)
        F = bmu_character(t, 0)  # trivial character: only l=0 data
        blocks = log_delta_classes(t, F, [sc(0), sc(0)], 3)
        assert not blocks

    def test_bmu2_s1_blocks(self):
        t = bmu(2)
        F = bmu_character(t, 1)
        s1 = Frac(3, 7)
        blocks = log_delta_classes(t, F, [sc(0), sc(s1)], 3)
        z1 = blocks[1]
        assert z1.coeff("0", 0) == sc(s1 * Frac(1, 12))    # s1 B_2(0)/2!
        assert z1.coeff("1", 0) == sc(s1 * Frac(-1, 24))   # s1 B_2(1/2)/2!

    def test_z_inverse_block_is_chern(self):
        t = projective_space(1)
        F = wps_pullback_line(t, 3)
        s = [sc(Frac(1, 2)), sc(Frac(-1, 3))]
        blocks = log_delta_classes(t, F, s, 2)
        # z^-1 block = sum_k s_k ch_{k+1}(q^*F) = s_0 (3p) + s_1 (9/2 p^2 -> 0 on P^1)
        assert blocks[-1].coeff("0", 1) == sc(Frac(3, 2))
        assert blocks[-1].coeff("0", 0).is_zero

    def test_euler_point_z1_coefficient(self):
        t = point()
        F = trivial_bundle(t, 1)
        s = euler_s_values(6)
        blocks = log_delta_classes(t, F, s, 3)
        assert blocks[1].coeff("0", 0) == sc(Frac(1, 12)) * Scalar.lam(-1)

    def test_euler_s_values(self):
        s = euler_s_values(3)
        assert s[0] == Scalar.log_lambda()
        assert s[1] == Scalar.lam(-1)
        assert s[2] == sc(-1) * Scalar.lam(-2)
        assert s[3] == sc(2) * Scalar.lam(-3)
        assert euler_s_values(2, include_log=False)[0].is_zero

    def test_euler_exp_identity_on_nilpotent(self):
        # exp(sum_k s_k x^k / k!) should reproduce lambda + x for nilpotent x;
        # check on P^2 with x = the hyperplane class (x^3 = 0)
        t = projective_space(2)
        x = t.basis_class("0", "p")
        s = euler_s_values(4)
        log = t.zero_class()
        fact = 1
        xp = t.unit()
        for k, sk in enumerate(s):
            if k:
                fact *= k
                xp = xp.mul(x)
            log = log + xp.scale(sk * sc(Frac(1, fact)))
        val = log.exp()
        expect = t.unit().scale(Scalar.lam(1)) + x
        assert val == expect


class TestGammaConsistency:
    def test_point_trivial_bundle(self):
        t = point()
        F = trivial_bundle(t, 1)
        zmax = 3
        got = log_delta_classes(t, F, euler_s_values(zmax + 2), zmax)
        want = log_gamma_blocks(t, "0", {}, 0, 1, zmax)
        _assert_same_blocks(t, got, want, ["0"], zmax)

    def test_bmu3_char1_all_sectors(self):
        t = bmu(3)
        F = bmu_character(t, 1)
        zmax = 3
        got = log_delta_classes(t, F, euler_s_values(zmax + 2), zmax)
        # sector u: l=1, r=3; sector u^2: l=2, r=3; untwisted: l=0
        for cid, l, r in (("0", 0, 1), ("1", 1, 3), ("2", 2, 3)):
            want = log_gamma_blocks(t, cid, {}, l, r, zmax)
            _assert_same_blocks(t, got, want, [cid], zmax)
        # the ell*(l/r - 1/2) term is really there
        assert got[0].coeff("1", 0) == Scalar.log_lambda() * sc(Frac(1, 3) - Frac(1, 2))

    def test_p1_o1_with_nilpotent_root(self):
        t = projective_space(1)
        F = wps_pullback_line(t, 1)
        zmax = 3
        got = log_delta_classes(t, F, euler_s_values(zmax + 3), zmax)
        want = log_gamma_blocks(t, "0", {1: Frac(1)}, 0, 1, zmax)
        _assert_same_blocks(t, got, want, ["0"], zmax)

    def test_delta_matches_exp_of_gamma_point(self):
        # exponentiate the gamma series independently (plain scalar z-poly exp)
        # and compare with the Delta operator through z^3
        t = point()
        F = trivial_bundle(t, 1)
        zmax = 3
        d = delta_operator(t, F, euler_s_values(zmax + 4, include_log=False), zmax)
        want_log = log_gamma_blocks(t, "0", {}, 0, 1, zmax + 2)
        coeffs = {n: cls.coeff("0", 0) for n, cls in want_log.items() if n >= 1}
        exp_blocks = {0: SCALAR_ONE}
        term = {0: SCALAR_ONE}
        fact = 1
        for j in range(1, zmax + 2):
            new = {}
            for n1, c1 in term.items():
                for n2, c2 in coeffs.items():
                    n = n1 + n2
                    if n <= zmax + 1:
                        new[n] = new.get(n, SCALAR_ZERO) + c1 * c2
            term = new
            fact *= j
            for n, c in term.items():
                if n <= zmax:
                    exp_blocks[n] = exp_blocks.get(n, SCALAR_ZERO) + c * sc(Frac(1, fact))
        for n in range(0, zmax + 1):
            got = d.mult_classes.get(n, t.zero_class()).coeff("0", 0)
            assert got == exp_blocks.get(n, SCALAR_ZERO), n


def _assert_same_blocks(t, got, want, cids, zmax):
    for n in range(-1, zmax + 1):
        g = got.get(n, t.zero_class())
        w = want.get(n, t.zero_class())
        for cid in cids:
            assert g.restrict(cid) == w.restrict(cid), (cid, n)


class TestDelta:
    def test_s_zero_is_identity(self):
        t = bmu(2)
        F = bmu_character(t, 1)
        d = delta_operator(t, F, [sc(0), sc(0)], 3)
        assert mat_is_zero(d.sub_identity().block(0))
        for n in range(1, 4):
            assert mat_is_zero(d.block(n))

    def test_delta_times_inverse(self):
        t = bmu(2)
        F = bmu_character(t, 1)
        s = [sc(0), sc(Frac(1, 3)), sc(Frac(-1, 2))]
        d = delta_operator(t, F, s, 4)
        dinv = delta_inverse(t, F, s, 4)
        # multiplication operators commute; exp(L)exp(-L) = 1 blockwise on the window
        prod = d.compose(dinv)
        resid = prod.sub_identity()
        for n in range(prod.zmin, prod.zmax + 1):
            assert mat_is_zero(resid.block(n)), n

    def test_delta_symplectomorphism_bmu3(self):
        t = bmu(3)
        F = bmu_character(t, 1)
        s = [sc(0), sc(Frac(2, 5)), sc(Frac(-1, 3)), sc(Frac(1, 7))]
        report = check_delta_symplectomorphism(t, F, s, 4)
        assert report["symplectic"]
        assert report["log_residual_zero"]
        assert report["max_clean_degree"] >= 4

    def test_delta_symplectomorphism_wps(self):
        rng = random.Random(21)
        t = weighted_projective([1, 1, 2])
        F = random_bundle(t, rng)
        s = [sc(0), sc(Frac(1, 2)), sc(Frac(3, 4)), sc(Frac(-2, 7))]
        report = check_delta_symplectomorphism(t, F, s, 4)
        assert report["symplectic"]

    def test_delta_symplectomorphism_with_log_s0(self):
        # s_0 = 2 ln(lambda) exercises the lambda-power scalar heads
        t = bmu(3)
        F = bmu_character(t, 1)
        s = [Scalar.log_lambda() * sc(2), sc(Frac(1, 2)), sc(0), sc(Frac(1, 4))]
        report = check_delta_symplectomorphism(t, F, s, 3)
        assert report["symplectic"]

    def test_failing_operator_pinpointed(self):
        # M = 1 + z, known through z^2: M*(-z)M(z) = 1 - z^2, so the first
        # offending block is z^2
        t = point()
        one = t.unit()
        m = LoopOperator(t, 0, 2, {0: one, 1: one})
        report = check_symplectomorphism(t, m)
        assert report["checked_range"] == [0, 2]
        assert not report["symplectic"]
        assert 2 in report["offending_blocks"]
        assert report["max_clean_degree"] == 1

    def test_identity_is_symplectic(self):
        t = bmu(2)
        report = check_symplectomorphism(t, LoopOperator(t, 0, 3, {0: t.unit_everywhere()}))
        assert report["symplectic"] and report["checked_range"] == [0, 3]

    def test_delta_cone_transform_round_trip(self):
        # Delta^{-1}(Delta(x)) = x on the reliable window of a sample element
        rng = random.Random(13)
        t = bmu(2)
        F = bmu_character(t, 1)
        s = [sc(0), sc(Frac(1, 3)), sc(Frac(-1, 2))]
        d = delta_operator(t, F, s, 6)
        dinv = delta_inverse(t, F, s, 6)
        x = _rand_elem(t, rng, lo=-2, hi=2)
        back = dinv.apply(d.apply(x))
        lo, hi = back.zmin, back.zmax
        for (n, dd), cls in x.data.items():
            if lo <= n <= hi:
                assert back.get(n, dd) == cls
        for (n, dd), cls in back.data.items():
            assert x.get(n, dd) == cls
