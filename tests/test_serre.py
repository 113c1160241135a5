import random
from fractions import Fraction

import pytest

from orbiqrr.exactalg import SCALAR_ONE, Scalar, TruncSeries, root_of_unity, sc
from orbiqrr.givental import GiventalElement
from orbiqrr.loopops import euler_s_values
from orbiqrr.orbtarget import (
    bmu,
    bmu_character,
    point,
    projective_space,
    trivial_bundle,
    weighted_projective,
    wps_pullback_line,
)
from orbiqrr.serre import (
    check_serre_cone,
    dual_am_identity_report,
    dual_bundle,
    dual_s_values,
    dual_variable_map,
    euler_dual_s_values,
    novikov_sign_twist,
    serre_M_operator,
)

from helpers import random_bundle

Frac = Fraction


class TestDualData:
    def test_dual_s_signs(self):
        s = [sc(5), sc(7), sc(11)]
        sd = dual_s_values(s)
        assert sd[0] == sc(-5)    # k = 0: (-1)^1
        assert sd[1] == sc(7)     # k = 1: (-1)^2
        assert sd[2] == sc(-11)

    def test_involutions(self):
        rng = random.Random(2)
        s = [sc(Frac(1, 2)), sc(Frac(-1, 3)), sc(Frac(2, 7))]
        assert dual_s_values(dual_s_values(s)) == s
        for t in (bmu(3), bmu(4), projective_space(1)):
            F = random_bundle(t, rng)
            assert dual_bundle(dual_bundle(F)) == F

    def test_euler_dual_matches_up_to_phase(self):
        s, phase = euler_dual_s_values(3)
        se = euler_s_values(3)
        assert phase == sc(-1)
        assert s[0] == -se[0]          # the pi*sqrt(-1) part is the separate phase
        for k in (1, 2, 3):
            assert s[k] == (se[k] if k % 2 else -se[k])

    def test_dual_bundle_examples(self):
        t = bmu(3)
        F = bmu_character(t, 1)
        Fd = dual_bundle(F)
        assert Fd.eigen_rank("1", 2) == 1     # char 1 -> char 2 data on sector u
        assert Fd.eigen_rank("1", 1) == 0
        t2 = projective_space(4)
        O5 = wps_pullback_line(t2, 5)
        O5d = dual_bundle(O5)
        assert O5d.c1_pairing == (Frac(-5),)
        assert O5d.eigen_chern("0", 0, 1).coeff("0", 1) == sc(-5)
        assert O5d.eigen_chern("0", 0, 2).coeff("0", 2) == sc(Frac(25, 2))
        triv = trivial_bundle(point(), 1)
        assert dual_bundle(triv) == triv

    def test_dual_class_inverse_random(self):
        rng = random.Random(8)
        s = [sc(0), sc(Frac(1, 2)), sc(Frac(-2, 5)), sc(Frac(1, 3))]
        for t in (bmu(2), projective_space(2)):
            for _ in range(5):
                F = random_bundle(t, rng, rank=rng.randint(1, 3))
                c = F.twist_class(s)
                cd = dual_bundle(F).twist_class(dual_s_values(s))
                assert c.mul(cd) == t.unit_everywhere()


class TestVariableMap:
    def test_s_zero_identity(self):
        t = bmu(2)
        F = bmu_character(t, 1)
        e = GiventalElement(t, 0, 2, 0)
        e.add_to(0, (0,), t.unit("1").scale(sc(3)))
        e.add_to(1, (0,), t.unit())
        out = dual_variable_map(t, F, [sc(0), sc(0)], e)
        assert out == e

    def test_sector_with_zero_invariant_part(self):
        # on a sector where F^(0) = 0, c(0) = 1 and the map is the identity
        t = bmu(2)
        F = bmu_character(t, 1)
        s = [sc(0), sc(Frac(1, 2))]
        e = GiventalElement(t, 0, 1, 0)
        e.add_to(0, (0,), t.unit("1").scale(sc(5)))
        out = dual_variable_map(t, F, s, e)
        assert out.get(0, (0,)) == e.get(0, (0,))
        assert out.get(1, (0,)).is_zero

    def test_point_exponential_map(self):
        # rank-1 F on the point with s = (2 ln lambda): c(F) = lambda^2,
        # t_dual = lambda^2 t + (1 - lambda^2) z
        t = point()
        F = trivial_bundle(t, 1)
        s = [Scalar.log_lambda() * sc(2)]
        e = GiventalElement(t, 0, 1, 0)
        e.add_to(0, (0,), t.unit().scale(sc(7)))
        out = dual_variable_map(t, F, s, e)
        lam2 = Scalar.lam(2)
        assert out.get(0, (0,)).coeff("0", 0) == sc(7) * lam2
        assert out.get(1, (0,)).coeff("0", 0) == SCALAR_ONE - lam2


class TestMOperatorAndTwist:
    def test_bmu2_trivial_phase(self):
        t = bmu(2)
        F = bmu_character(t, 1)
        M = serre_M_operator(t, F)
        # twisted sector: exponent 1/2 - 1/2 = 0
        assert M.coeff("1", 0) == SCALAR_ONE

    def test_bmu3_zeta12(self):
        t = bmu(3)
        F = bmu_character(t, 1)
        M = serre_M_operator(t, F)
        assert M.coeff("1", 0) == root_of_unity(12, 1)   # (-1)^(1/6)
        # sector u^2: exponent 1/2 - 2/3 = -1/6, so zeta_12^{-1}
        assert M.coeff("2", 0) == root_of_unity(12, 11)

    def test_novikov_sign_twist(self):
        t = projective_space(4)
        F = wps_pullback_line(t, 5)
        s = TruncSeries(1, 0, 0, 3, {(0, (0,)): sc(1), (0, (1,)): sc(3), (0, (2,)): sc(7)})
        tw = novikov_sign_twist(s, F)
        assert tw.get(0, (1,)) == sc(-3)     # odd pairing 5
        assert tw.get(0, (2,)) == sc(7)      # even pairing 10
        assert novikov_sign_twist(tw, F) == s   # involution

    def test_novikov_sign_twist_on_a_givental_element(self):
        t = projective_space(4)
        F = wps_pullback_line(t, 5)
        p = t.basis_class("0", "p")
        e = GiventalElement(t, -1, 1, 2, {(1, (0,)): t.unit(), (0, (1,)): p,
                                          (-1, (2,)): p.scale(sc(7))})
        tw = novikov_sign_twist(e, F)
        assert (tw.zmin, tw.zmax, tw.dmax) == (-1, 1, 2)
        assert tw.get(1, (0,)) == t.unit()
        assert tw.get(0, (1,)) == p.scale(sc(-1))   # odd pairing 5
        assert tw.get(-1, (2,)) == p.scale(sc(7))   # even pairing 10
        assert novikov_sign_twist(tw, F) == e


class TestEigenSumIdentity:
    def test_am_dual_identity(self):
        rng = random.Random(4)
        for r in range(2, 5):
            t = bmu(r)
            for _ in range(3):
                F = random_bundle(t, rng)
                report = dual_am_identity_report(t, F, mmax=5)
                assert report["ok"], report

    def test_am_dual_identity_with_chern_classes(self):
        rng = random.Random(6)
        t = projective_space(2)
        F = random_bundle(t, rng, rank=2)
        report = dual_am_identity_report(t, F, mmax=4)
        assert report["ok"], report


class TestSerreCone:
    def test_s_zero_trivial(self):
        t = bmu(2)
        F = bmu_character(t, 1)
        report = check_serre_cone(t, F, [sc(0), sc(0)], 2)
        assert report["ok"]

    def test_p1_o1_generic_s(self):
        t = projective_space(1)
        F = wps_pullback_line(t, 1)
        s = [Scalar.log_lambda(), sc(Frac(1, 2)), sc(Frac(-1, 3))]
        report = check_serre_cone(t, F, s, 3)
        assert report["ok"], report

    def test_bmu2_generic_s(self):
        t = bmu(2)
        F = bmu_character(t, 1)
        s = [sc(0), sc(Frac(2, 7)), sc(Frac(1, 5))]
        report = check_serre_cone(t, F, s, 3)
        assert report["ok"], report

    @pytest.mark.parametrize("s", [
        [Scalar.log_lambda()],
        [Scalar.log_lambda() * sc(2), sc(1)],
        [Scalar.log_lambda(), sc(Frac(1, 2)), sc(Frac(-1, 3)), sc(Frac(2, 7))],
    ], ids=["L", "2L,1", "L,1/2,-1/3,2/7"])
    @pytest.mark.parametrize("target, bundle, arg", [
        (lambda: weighted_projective([1, 1, 2]), wps_pullback_line, 1),
        (lambda: weighted_projective([1, 2, 3]), wps_pullback_line, 2),
        (lambda: projective_space(1), wps_pullback_line, 1),
        (lambda: projective_space(2), wps_pullback_line, 1),
        (lambda: bmu(2), bmu_character, 1),
        (lambda: bmu(3), bmu_character, 1),
        (lambda: bmu(5), bmu_character, 1),
    ], ids=["WPS112/O1", "WPS123/O2", "P1/O1", "P2/O1", "Bmu2", "Bmu3", "Bmu5"])
    def test_log_lambda_s0_keeps_the_dilaton_untwisted(self, target, bundle, arg, s):
        """The dilaton z sits on the untwisted unit only, so dual_variable_map
        adds no z-term on the twisted sectors, also when s_0 = q ln(lambda)."""
        t = target()
        report = check_serre_cone(t, bundle(t, arg), s, 3)
        assert report["affine_map_consistent"] and report["ok"], report

    def test_a_wrong_dual_is_pinpointed_blockwise(self, monkeypatch):
        """With F in place of F^dual, the offending z-powers are those where the
        matrices of the two operators differ."""
        from orbiqrr import serre
        from orbiqrr.loopops import delta_operator, log_delta
        t = bmu(3)
        F = bmu_character(t, 1)
        s = [sc(0), sc(Frac(2, 7)), sc(Frac(1, 5))]
        sd = dual_s_values(s)
        zmax = 3
        monkeypatch.setattr(serre, "dual_bundle", lambda G: G)
        report = check_serre_cone(t, F, s, zmax)
        L, Ld = log_delta(t, F, s, zmax), log_delta(t, F, sd, zmax)
        depth = max(c.dim for c in t.components) + 1
        D, Dd = delta_operator(t, F, s, zmax + depth), delta_operator(t, F, sd, zmax + depth)
        want_log = [n for n in range(min(L.zmin, Ld.zmin), zmax + 1)
                    if L.block(n) != Ld.block(n)]
        want_delta = [n for n in range(D.zmin, zmax + 1) if D.block(n) != Dd.block(n)]
        assert want_log and want_delta
        assert report["offending_log_blocks"] == want_log
        assert report["offending_delta_blocks"] == want_delta
        assert not report["log_blocks_equal"] and not report["delta_blocks_equal"]
        assert not report["ok"]
