"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a `PASS criterion N` line with its runtime (visible with
pytest -s / -v via the timing assertion).  Expected values are frozen from
the independent oracles in oracles.py (classical mirror computation, string
recursion) or verified low-order constants.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from orbiqrr.bernoulli import bernoulli_poly, bernoulli_value
from orbiqrr.errors import PositivityViolated
from orbiqrr.exactalg import SCALAR_ONE, Scalar, root_of_unity, sc
from orbiqrr.fockquant import (
    build_point_potential,
    commutator_cocycle,
    hamiltonian_cocycle,
    mat_eye_like,
    quantize_monomial,
    string_residual,
)
from orbiqrr.genus0 import (
    build_point_table,
    check_universal_equation,
    hypergeometric_modification,
    j_closed_form_Pn,
    mirror_map,
    nonequivariant_limit,
    quintic_pipeline,
    small_expansion,
)
from orbiqrr.linalg import mat_is_zero, mat_mul, mat_transpose, mat_inv, gram_matrix, multiplication_matrix
from orbiqrr.loopops import (
    LoopOperator,
    adjoint,
    check_delta_symplectomorphism,
    class_Am,
    euler_s_values,
    log_delta_classes,
    twisted_gram,
)
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
    serre_M_operator,
)

from helpers import own_point_table, p1_table, random_bundle
from oracles import quintic_instanton_numbers, string_recursion_point_correlator
from test_fockquant import anti_self_adjoint, random_symplectic_monomial
from test_loopops import log_gamma_blocks, _assert_same_blocks

Frac = Fraction


@contextmanager
def budget(number: int, name: str, seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"PASS criterion {number}: {name} ({elapsed:.2f}s < {seconds:.0f}s)")
    assert elapsed < seconds, f"criterion {number} exceeded its {seconds}s budget"


def test_criterion_1_bernoulli():
    with budget(1, "Bernoulli polynomials and reflection", 1.0):
        assert bernoulli_poly(0) == [Frac(1)]
        assert bernoulli_poly(1) == [Frac(-1, 2), Frac(1)]
        assert bernoulli_poly(2) == [Frac(1, 6), Frac(-1), Frac(1)]
        rng = random.Random(2026)
        xs = [Frac(rng.randint(-60, 60), rng.randint(1, 24)) for _ in range(50)]
        for m in range(21):
            for x in xs:
                assert bernoulli_value(m, 1 - x) == (-1) ** m * bernoulli_value(m, x)


def test_criterion_2_adjointness():
    with budget(2, "A_m (anti-)self-adjointness under both pairings", 5.0):
        rng = random.Random(7)
        targets = [bmu(r) for r in range(2, 7)] + [weighted_projective([1, 1, 2])]
        s = [sc(0), sc(Frac(1, 2)), sc(Frac(-2, 3)), sc(Frac(1, 5))]
        for t in targets:
            F = random_bundle(t, rng)
            grams = [gram_matrix(t), twisted_gram(t, F, s)]
            for j in range(2, 10):       # covers A_{2m}, A_{2m+1} for m <= 4
                mult = multiplication_matrix(t, class_Am(t, F, j))
                sign = sc((-1) ** (j % 2))
                for g in grams:
                    adj = mat_mul(mat_inv(g), mat_mul(mat_transpose(mult), g))
                    resid = [[x - y * sign for x, y in zip(r1, r2)]
                             for r1, r2 in zip(adj, mult)]
                    assert mat_is_zero(resid), (t.name, j)


def test_criterion_3_symplectomorphism():
    with budget(3, "Delta*(-z) Delta(z) = 1 through z^4, generic s", 10.0):
        s = [sc(0), sc(Frac(2, 5)), sc(Frac(-1, 3)), sc(Frac(1, 7))]
        t1 = bmu(3)
        rep1 = check_delta_symplectomorphism(t1, bmu_character(t1, 1), s, 4)
        assert rep1["symplectic"] and rep1["max_clean_degree"] >= 4
        assert rep1["log_residual_zero"]
        rng = random.Random(31)
        t2 = weighted_projective([1, 1, 2])
        rep2 = check_delta_symplectomorphism(t2, random_bundle(t2, rng), s, 4)
        assert rep2["symplectic"] and rep2["max_clean_degree"] >= 4


def test_criterion_4_euler_gamma_factors():
    with budget(4, "log Delta matches log gamma factors through z^3", 5.0):
        zmax = 3
        # point with the trivial bundle: z^1 coefficient 1/(12 lambda)
        t = point()
        F = trivial_bundle(t, 1)
        got = log_delta_classes(t, F, euler_s_values(zmax + 2), zmax)
        assert got[1].coeff("0", 0) == sc(Frac(1, 12)) * Scalar.lam(-1)
        want = log_gamma_blocks(t, "0", {}, 0, 1, zmax)
        _assert_same_blocks(t, got, want, ["0"], zmax)
        # twisted sector including the ln(lambda) (l/r - 1/2) term
        t2 = bmu(3)
        F2 = bmu_character(t2, 1)
        got2 = log_delta_classes(t2, F2, euler_s_values(zmax + 2), zmax)
        assert got2[0].coeff("1", 0) == Scalar.log_lambda() * sc(Frac(1, 3) - Frac(1, 2))
        for cid, l, r in (("0", 0, 1), ("1", 1, 3), ("2", 2, 3)):
            want2 = log_gamma_blocks(t2, cid, {}, l, r, zmax)
            _assert_same_blocks(t2, got2, want2, [cid], zmax)


def test_criterion_5_quantum_lefschetz_quintic():
    with budget(5, "P4/O(5) quantum Lefschetz against the classical mirror oracle", 30.0):
        oracle_n, oracle_N = quintic_instanton_numbers(3)
        result = quintic_pipeline(3)
        f = result["F"]
        assert f.get(0, (0,)) == SCALAR_ONE
        assert f.get(0, (1,)) == sc(120)
        gp = result["G"][("0", 1)]
        assert gp.get(0, (1,)) == sc(770)
        # the quoted mirror ratio G_1/F_1 = 770/120 = 77/12; the map itself is
        # the series quotient G/F = 770 Q + ... (what the oracle pins)
        assert gp.get(0, (1,)) / f.get(0, (1,)) == sc(Frac(77, 12))
        tau_p = result["tau"][("0", 1)]
        assert tau_p.get(0, (1,)) == sc(770)
        table = result["invariants"]
        assert table["N"][1] == 2875 == oracle_N[1]
        assert table["N"][2] == Frac(4876875, 8) == oracle_N[2]
        assert table["n"][2] == 609250 == oracle_n[2]
        assert table["N"][3] == oracle_N[3]
        assert table["n"][3] == oracle_n[3]


def test_criterion_6_quantization():
    with budget(6, "quantization shapes, cocycle -1/2, string identity", 10.0):
        t = point()
        eye = mat_eye_like(t)
        # shape formulas, structurally
        op_neg = quantize_monomial(t, eye, -1, 5)
        assert op_neg.qq[((0, 0), (0, 0))] == sc(Frac(-1, 2))
        assert all(op_neg.qd[((k, 0), (k - 1, 0))] == sc(-1) for k in range(1, 6))
        assert not op_neg.dd
        op_pos = quantize_monomial(t, eye, 1, 5)
        assert op_pos.dd[((0, 0), (0, 0))] == sc(Frac(1, 2))
        assert all(op_pos.qd[((k, 0), (k + 1, 0))] == sc(-1) for k in range(0, 5))
        assert not op_pos.qq
        t2 = bmu(2)
        rng0 = random.Random(5)
        B0 = anti_self_adjoint(t2, rng0)
        while all(x.is_zero for row in B0 for x in row):
            B0 = anti_self_adjoint(t2, rng0)
        op_zero = quantize_monomial(t2, B0, 0, 3)
        assert not op_zero.qq and not op_zero.dd and op_zero.qd
        # [z^, (1/z)^] = -1/2 = -(1/4)(1 + delta)
        val = commutator_cocycle(t, (eye, 1), (eye, -1), 6)
        assert val == sc(Frac(-1, 2))
        assert hamiltonian_cocycle(op_pos, op_neg) == sc(Frac(-1, 2))
        # 20 random symplectic pairs with |m| <= 3
        rng = random.Random(99)
        done = 0
        while done < 20:
            tt = (t, t2)[done % 2]
            A = random_symplectic_monomial(tt, rng)
            B = random_symplectic_monomial(tt, rng)
            K = abs(A[1]) + abs(B[1]) + 3
            assert commutator_cocycle(tt, A, B, K) == hamiltonian_cocycle(
                quantize_monomial(tt, A[0], A[1], K),
                quantize_monomial(tt, B[0], B[1], K))
            done += 1
        # string identity on the n <= 6 point potential
        pot = build_point_potential(t, 6)
        assert string_residual(t, pot).is_zero


def test_criterion_7_universal_equations():
    with budget(7, "string/dilaton/TRR on the point table, divisor on the P^1 table", 10.0):
        t = point()
        table = build_point_table(t, 8)
        for kind in ("string", "dilaton", "trr"):
            report = check_universal_equation(kind, table)
            assert report["ok"] and report["instances"] > 0, kind
        report = check_universal_equation("divisor", table)
        assert report["ok"] and report["instances"] == 0  # vacuous on a point
        # sanity against the string-recursion oracle
        assert point_value(table, (1, 0, 0, 0)) == string_recursion_point_correlator((1, 0, 0, 0))
        # the divisor equation on real P^1 numbers, and a corrupted entry caught
        _t1, table1 = p1_table()
        report = check_universal_equation("divisor", table1)
        assert report["ok"] and report["instances"] > 0, report
        p = ("0", 1)
        table1.set((1,), [(p, 0), (p, 0), (p, 0), (p, 0)], sc(5))
        assert not check_universal_equation("divisor", table1)["ok"]


def point_value(table, kp):
    slot = ("0", 0)
    return table.get((0,), [(slot, k) for k in kp]).as_fraction()


def test_criterion_8_serre():
    with budget(8, "quantum Serre duality ingredients and cone checks", 15.0):
        rng = random.Random(17)
        s = [sc(0), sc(Frac(1, 3)), sc(Frac(-1, 4))]
        # involutions
        assert dual_s_values(dual_s_values(s)) == s
        for r in range(2, 5):
            t = bmu(r)
            F = random_bundle(t, rng)
            assert dual_bundle(dual_bundle(F)) == F
            # c_dual(F_dual) c(F) = 1
            assert F.twist_class(s).mul(dual_bundle(F).twist_class(dual_s_values(s))) \
                == t.unit_everywhere()
            # A_m eigen-sum identity with the m = 1 anomaly cancellation
            assert dual_am_identity_report(t, F, mmax=5)["ok"]
        # cone residuals on P1/O(1) and Bmu2 through z^3, s <= s_2
        t1 = projective_space(1)
        rep1 = check_serre_cone(t1, wps_pullback_line(t1, 1),
                                [Scalar.log_lambda(), sc(Frac(1, 2)), sc(Frac(-1, 3))], 3)
        assert rep1["ok"], rep1
        t2 = bmu(2)
        rep2 = check_serre_cone(t2, bmu_character(t2, 1),
                                [sc(0), sc(Frac(2, 7)), sc(Frac(1, 5))], 3)
        assert rep2["ok"], rep2
        # M operator value
        t3 = bmu(3)
        M = serre_M_operator(t3, bmu_character(t3, 1))
        assert M.coeff("1", 0) == root_of_unity(12, 1)


def test_criterion_9_negative_controls():
    with budget(9, "negative controls: positivity and corrupted tables", 5.0):
        # P1 / O(3): c1(F) = 3 > c1(T) = 2
        j = j_closed_form_Pn(1, 1)
        t = j.target
        F = wps_pullback_line(t, 3)
        i = nonequivariant_limit(hypergeometric_modification(t, F, j))
        with pytest.raises(PositivityViolated, match=r"z\^2 survives"):
            small_expansion(i)
        # corrupted correlator entry pinpointed by the string checker
        table = own_point_table(6)
        slot = ("0", 0)
        table.set((0,), [(slot, 1), (slot, 0), (slot, 0), (slot, 0)], sc(2))
        report = check_universal_equation("string", table)
        assert not report["ok"]
        bad = [v for v in report["violations"] if v["n"] == 4]
        assert bad and bad[0]["residual"] == "1"
