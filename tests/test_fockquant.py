import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiqrr.errors import IndexOverflow, NotInfinitesimallySymplectic, TruncationTooNarrow
from orbiqrr.exactalg import SCALAR_ONE, SCALAR_ZERO, Scalar, root_of_unity, sc
from orbiqrr.fockquant import (
    FockOperator,
    FockPolynomial,
    build_point_potential,
    commutator_cocycle,
    hamiltonian_cocycle,
    mat_eye_like,
    quantize_monomial,
    string_operator,
    string_residual,
)
from orbiqrr.linalg import gram_inverse, gram_matrix, mat_inv, mat_is_zero, mat_mul, mat_transpose
from orbiqrr.orbtarget import (
    bmu,
    dump_target,
    load_target,
    point,
    projective_space,
    weighted_projective,
)

from helpers import scaled

Frac = Fraction


def anti_self_adjoint(t, rng):
    """Random B with B* = -B for the target's pairing: B = G^{-1} S with S^T = -S."""
    n = len(t.flat_basis)
    g = gram_matrix(t)
    s = [[SCALAR_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = sc(Frac(rng.randint(-4, 4), rng.randint(1, 3)))
            s[i][j] = v
            s[j][i] = -v
    return mat_mul(mat_inv(g), s)


def self_adjoint(t, rng):
    n = len(t.flat_basis)
    g = gram_matrix(t)
    s = [[SCALAR_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = sc(Frac(rng.randint(-4, 4), rng.randint(1, 3)))
            s[i][j] = v
            s[j][i] = v
    return mat_mul(mat_inv(g), s)


def random_symplectic_monomial(t, rng, mmax=3):
    m = rng.randint(-mmax, mmax)
    B = self_adjoint(t, rng) if m % 2 else anti_self_adjoint(t, rng)
    return B, m


@pytest.mark.parametrize("build", [
    point, lambda: bmu(3), lambda: projective_space(2), lambda: weighted_projective([1, 2, 3]),
    lambda: bmu(2), lambda: bmu(12), lambda: projective_space(1), lambda: projective_space(4),
    lambda: weighted_projective([1, 1, 2]), lambda: weighted_projective([2, 3]),
    lambda: weighted_projective([1, 1, 1, 1, 2]),
    lambda: load_target(dump_target(weighted_projective([1, 2, 3]), []))[0]])
def test_gram_and_its_inverse_are_built_once_per_target(build):
    """The memo equals a fresh inverse of a fresh Gram matrix, and no caller can change it;
    on every family of built-in targets and on a config target."""
    t = build()
    g, ginv = gram_matrix(t), gram_inverse(t)
    assert gram_matrix(t) is g and t.gram() is g and gram_inverse(t) is ginv
    assert all(isinstance(row, tuple) for row in g + ginv)
    fresh = [list(row) for row in build().gram()]
    assert [list(row) for row in g] == fresh
    assert [list(row) for row in ginv] == mat_inv(fresh)
    n = len(t.flat_basis)
    assert mat_mul(g, ginv) == [[sc(int(i == j)) for j in range(n)] for i in range(n)]


class TestShapes:
    def test_string_operator_point(self):
        t = point()
        op = string_operator(t, 5)
        # -(1/2h) q_0^2 - sum_{k>=1} q_k d_{k-1}
        assert op.qq[((0, 0), (0, 0))] == sc(Frac(-1, 2))
        assert op.qd[((1, 0), (0, 0))] == sc(-1)
        assert op.qd[((5, 0), (4, 0))] == sc(-1)
        assert not op.dd

    def test_z_operator_point(self):
        t = point()
        op = quantize_monomial(t, mat_eye_like(t), 1, 5)
        # -sum q_k d_{k+1} + (h/2) d_0^2
        assert op.dd[((0, 0), (0, 0))] == sc(Frac(1, 2))
        assert op.qd[((0, 0), (1, 0))] == sc(-1)
        assert not op.qq

    def test_m0_pure_qd_shape(self):
        rng = random.Random(3)
        t = bmu(2)
        B = anti_self_adjoint(t, rng)
        op = quantize_monomial(t, B, 0, 4)
        assert not op.qq and not op.dd
        # -B q d with the matrix entries
        for (qv, dv), c in op.qd.items():
            (k, b), (k2, a) = qv, dv
            assert k == k2
            assert c == sc(-1) * B[a][b]

    def test_precondition_enforced(self):
        t = point()
        with pytest.raises(NotInfinitesimallySymplectic):
            quantize_monomial(t, mat_eye_like(t), 0, 4)   # id z^0 is not symplectic


class TestApply:
    def test_string_kills_zero(self):
        t = point()
        op = string_operator(t, 4)
        zero = FockPolynomial(t, 4, 4)
        assert op.apply(zero).is_zero

    def test_dd_on_square(self):
        t = point()
        op = FockOperator(t, 3)
        op.add_dd((0, 0), (0, 0), sc(Frac(1, 2)))
        p = FockPolynomial(t, 3, 3)
        p.add_term(((0, 0), (0, 0)), 0, SCALAR_ONE)
        res = op.apply(p)
        # (h/2) d_0^2 (q_0^2) = h
        assert res.coeff((), 1) == SCALAR_ONE

    def test_index_overflow(self):
        from orbiqrr.errors import IndexOverflow
        t = point()
        op = FockOperator(t, 6)
        op.add_qq((5, 0), (6, 0), sc(1))
        p = FockPolynomial(t, 3, 4)   # variables only up to q_3
        p.add_term(((0, 0),), 0, sc(1))
        with pytest.raises(IndexOverflow):
            op.apply(p)

    def test_linearity(self):
        t = bmu(2)
        rng = random.Random(1)
        B1 = anti_self_adjoint(t, rng)
        B2 = anti_self_adjoint(t, rng)
        both = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(B1, B2)]
        K = 4
        p = FockPolynomial(t, K, 4)
        p.add_term(((0, 0), (1, 1)), 0, sc(3))
        p.add_term(((2, 1),), -1, sc(Frac(1, 2)))
        lhs = quantize_monomial(t, both, 0, K).apply(p)
        rhs = (quantize_monomial(t, B1, 0, K) + quantize_monomial(t, B2, 0, K)).apply(p)
        assert lhs == rhs


class TestCocycle:
    def test_z_and_inverse_z(self):
        t = point()
        val = commutator_cocycle(t, (mat_eye_like(t), 1), (mat_eye_like(t), -1), 6)
        assert val == sc(Frac(-1, 2))
        # cross-check against the closed form -(1/4) C(p0 p0, q0 q0) = -(1/4)(1+1)
        opA = quantize_monomial(t, mat_eye_like(t), 1, 6)
        opB = quantize_monomial(t, mat_eye_like(t), -1, 6)
        assert hamiltonian_cocycle(opA, opB) == sc(Frac(-1, 2))

    def test_positive_pairs_vanish(self):
        t = point()
        val = commutator_cocycle(t, (mat_eye_like(t), 1), (mat_eye_like(t), 3), 8)
        assert val.is_zero

    def test_self_commutator(self):
        t = point()
        val = commutator_cocycle(t, (mat_eye_like(t), 1), (mat_eye_like(t), 1), 6)
        assert val.is_zero

    def test_truncation_guard(self):
        t = point()
        with pytest.raises(TruncationTooNarrow):
            commutator_cocycle(t, (mat_eye_like(t), 2), (mat_eye_like(t), -2), 5)

    def test_random_pairs_match_closed_form(self):
        rng = random.Random(9)
        for t in (point(), bmu(2)):
            for _ in range(10):
                A = random_symplectic_monomial(t, rng)
                B = random_symplectic_monomial(t, rng)
                K = abs(A[1]) + abs(B[1]) + 3
                val = commutator_cocycle(t, A, B, K)
                closed = hamiltonian_cocycle(
                    quantize_monomial(t, A[0], A[1], K),
                    quantize_monomial(t, B[0], B[1], K))
                assert val == closed


class TestStringIdentity:
    def test_point_potential_small_values(self):
        t = point()
        pot = build_point_potential(t, 6)
        # <1,1,1>/3! at t_0^3 and psi-insertion values
        assert pot.coeff(((0, 0), (0, 0), (0, 0)), -1) == sc(Frac(1, 6))
        assert pot.coeff(((0, 0), (0, 0), (0, 0), (1, 0)), -1) == sc(Frac(1, 6))

    def test_string_residual_vanishes(self):
        t = point()
        pot = build_point_potential(t, 6)
        resid = string_residual(t, pot)
        assert resid.is_zero

    def test_string_residual_catches_corruption(self):
        t = point()
        pot = build_point_potential(t, 6)
        pot.add_term(((0, 0), (0, 0), (0, 0), (1, 0)), -1, sc(Frac(1, 100)))
        resid = string_residual(t, pot)
        assert not resid.is_zero


# -- one-pass apply against the composed loop it replaced ---------------------


def _mul_var(p, var):
    out = FockPolynomial(p.target, p.kmax, p.degmax)
    for mono, coeffs in p.terms.items():
        if len(mono) + 1 > p.degmax:
            continue
        for h, c in coeffs.items():
            out.add_term(mono + (var,), h, c)
    return out


def _shift_hbar(p, dh):
    out = FockPolynomial(p.target, p.kmax, p.degmax)
    for mono, coeffs in p.terms.items():
        for h, c in coeffs.items():
            out.add_term(mono, h + dh, c)
    return out


def _apply_composed(op, p):
    """One throw-away polynomial per operator term, summed with +."""
    out = FockPolynomial(p.target, p.kmax, p.degmax)
    for (v1, v2), c in op.qq.items():
        out = out + scaled(_shift_hbar(_mul_var(_mul_var(p, v1), v2), -1), c)
    for (qv, dv), c in op.qd.items():
        out = out + scaled(_mul_var(p.derivative(dv), qv), c)
    for (v1, v2), c in op.dd.items():
        out = out + scaled(_shift_hbar(p.derivative(v1).derivative(v2), 1), c)
    return out


def _apply_scan(op, p):
    """The one-pass apply that scans every qd and dd term for each monomial."""
    out = FockPolynomial(p.target, p.kmax, p.degmax)
    for mono, coeffs in p.terms.items():
        if len(mono) + 2 <= p.degmax:
            for (v1, v2), c in op.qq.items():
                for h, x in coeffs.items():
                    out.add_term(mono + (v1, v2), h - 1, x * c)
        for (qv, dv), c in op.qd.items():
            mult = mono.count(dv)
            if mult:
                rest = list(mono)
                rest.remove(dv)
                cm = c if mult == 1 else c * sc(mult)
                for h, x in coeffs.items():
                    out.add_term(rest + [qv], h, x * cm)
        for (v1, v2), c in op.dd.items():
            rest = list(mono)
            m1 = rest.count(v1)
            if m1:
                rest.remove(v1)
                m2 = rest.count(v2)
                if m2:
                    rest.remove(v2)
                    cm = c if m1 * m2 == 1 else c * sc(m1 * m2)
                    for h, x in coeffs.items():
                        out.add_term(rest, h + 1, x * cm)
    return out


_TARGETS = {"point": point(), "bmu2": bmu(2), "bmu3": bmu(3)}
_K = 4
_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool)
# zeta_3 and +-zeta_6: Cyc has no canonical form across conductors, so sums of
# these serialise by the order in which they were added
_zeta_coeffs = st.sampled_from([root_of_unity(3, 1), root_of_unity(6, 1),
                                -root_of_unity(6, 1), root_of_unity(4, 1)])


@st.composite
def _operators(draw, t):
    nb = len(t.flat_basis)
    if draw(st.booleans()):
        m = draw(st.integers(-3, 3))
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        B = self_adjoint(t, rng) if m % 2 else anti_self_adjoint(t, rng)
        return quantize_monomial(t, B, m, _K)
    # hand-built: repeated variables in qq and dd, qd with q = d allowed
    var = st.tuples(st.integers(0, 2), st.integers(0, nb - 1))
    op = FockOperator(t, _K)
    for v in draw(st.lists(var, max_size=2)):
        op.add_qq(v, v, draw(_coeffs))
        op.add_dd(v, v, draw(_coeffs))
    for v1, v2 in draw(st.lists(st.tuples(var, var), max_size=3)):
        op.add_qq(v1, v2, draw(_coeffs))
        op.add_qd(v1, v2, draw(_coeffs))
        op.add_dd(v1, v2, draw(_coeffs))
    # diagonal terms q_a d_a, q_b d_b, ...: each maps a monomial holding a and b
    # to itself, so their products land on one key
    for v in draw(st.lists(var, max_size=3, unique=True)):
        op.add_qd(v, v, draw(st.one_of(_coeffs, _zeta_coeffs)))
    return op


@st.composite
def _polynomials(draw, t, degmax):
    nb = len(t.flat_basis)
    # few variables, so that monomials repeat them (multiplicities >= 2)
    pool = draw(st.lists(st.tuples(st.integers(0, _K), st.integers(0, nb - 1)),
                         min_size=1, max_size=3))
    lengths = st.sampled_from([0, 1, degmax - 2, degmax - 1, degmax])
    p = FockPolynomial(t, _K, degmax)
    for _ in range(draw(st.integers(1, 5))):
        n = draw(lengths)
        mono = tuple(draw(st.sampled_from(pool)) for _ in range(n))
        p.add_term(mono, draw(st.integers(-1, 1)), draw(_coeffs))
    return p


@st.composite
def _cases(draw):
    t = _TARGETS[draw(st.sampled_from(sorted(_TARGETS)))]
    return draw(_operators(t)), draw(_polynomials(t, draw(st.integers(2, 5))))


def _outcome(apply, op, p):
    try:
        res = apply(op, p)
    except IndexOverflow:
        return "IndexOverflow"
    return res.kmax, res.degmax, res.terms


def _serialised(outcome):
    if outcome == "IndexOverflow":
        return outcome
    kmax, degmax, terms = outcome
    return kmax, degmax, {mono: {h: c.to_obj() for h, c in coeffs.items()}
                          for mono, coeffs in terms.items()}


@settings(max_examples=300, deadline=None)
@given(_cases(), st.booleans())
def test_apply_matches_composed_loop(case, overflow):
    op, p = case
    if overflow:
        # a qq variable past the polynomial's kmax: raised wherever a product lands
        op.add_qq((_K + 1, 0), (0, 0), sc(1))
    outcome = _outcome(FockOperator.apply, op, p)
    assert outcome == _outcome(_apply_composed, op, p)
    # the same bytes as a scan over every term: each key summed in the same order
    assert _serialised(outcome) == _serialised(_outcome(_apply_scan, op, p))
    if overflow and any(len(mono) + 2 <= p.degmax for mono in p.terms):
        assert outcome == "IndexOverflow"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sub_matches_adding_the_negation(data):
    t = _TARGETS[data.draw(st.sampled_from(sorted(_TARGETS)))]
    p = data.draw(_polynomials(t, data.draw(st.integers(2, 5))))
    q = data.draw(_polynomials(t, data.draw(st.integers(2, 5))))
    diff, ref = p - q, p + scaled(q, sc(-1))
    assert (diff.kmax, diff.degmax, diff.terms) == (ref.kmax, ref.degmax, ref.terms)
    assert (p - p).is_zero


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_apply_sums_a_shared_key_in_term_order(order):
    # Three diagonal terms map q_a q_b q_c to itself.  Where the zeta_6 terms
    # come first they cancel and zeta_3 stays in conductor 3; summed in
    # another order the same value serialises in conductor 6.
    t = point()
    terms = [((0, 0), root_of_unity(3, 1)), ((1, 0), root_of_unity(6, 1)),
             ((2, 0), -root_of_unity(6, 1))]
    op = FockOperator(t, _K)
    for i in order:
        v, c = terms[i]
        op.add_qd(v, v, c)
    p = FockPolynomial(t, _K, 3)
    p.add_term(tuple(v for v, _ in terms), 0, SCALAR_ONE)
    assert _serialised(_outcome(FockOperator.apply, op, p)) == \
        _serialised(_outcome(_apply_scan, op, p))


def test_apply_never_rebuilds_the_sum(monkeypatch):
    def no_add(self, o):
        raise AssertionError("apply must accumulate into one output, not add polynomials")

    t = bmu(3)
    rng = random.Random(5)
    op = (quantize_monomial(t, self_adjoint(t, rng), -3, _K)
          + quantize_monomial(t, self_adjoint(t, rng), 3, _K))
    assert op.qq and op.qd and op.dd
    p = FockPolynomial(t, _K, 4)
    p.add_term(((0, 1), (0, 1), (2, 2)), 0, sc(3))
    p.add_term(((1, 0),), -1, sc(Frac(1, 2)))
    p.add_term((), 1, SCALAR_ONE)
    expected = _apply_composed(op, p).terms
    assert expected
    monkeypatch.setattr(FockPolynomial, "__add__", no_add)
    assert op.apply(p).terms == expected
