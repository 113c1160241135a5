"""Quantization of quadratic Hamiltonians on the Fock space.

Variables q_k^alpha are indexed by (k, flat basis index); polynomials carry
exact Scalar coefficients that are Laurent in hbar on a bounded window
(genus <= 1 terms: hbar^-1 through hbar^1 suffice for every identity here).
Operators are sums of the three Darboux shapes

    hbar^-1 q q,   q d/dq,   hbar d/dq d/dq,

exactly as produced by quantizing B z^m:

  m < 0:  (1/2h) sum_{0<=k<=-m-1} (-1)^{k+m} B_{ab} q_k^b q_{-1-k-m}^a
          - sum_{k>=-m} B^a_b q_k^b d/dq_{k+m}^a
  m > 0:  - sum_{k>=0} B^a_b q_k^b d/dq_{k+m}^a
          + (h/2) sum_{0<=k<=m-1} (-1)^k B^{ab} d/dq_k^b d/dq_{m-1-k}^a
  m = 0:  - sum_{k>=0} B^a_b q_k^b d/dq_k^a

(the m = 0 sign follows from h_A = (1/2) Omega(Af, f) and agrees with the
m -> 0 limits of the other two shapes).  Index sums are truncated at K.

The cocycle C(A, B) = [A^, B^] - {A, B}^ of A = B_1 z^m_1, B = B_2 z^m_2 is
computed on the coefficient dicts, never by applying operators: for
normal-ordered operators the commutator is the sum of contractions
[d_i, q_j] = delta_ij of one operator's d/dq with the other's q, minus the
same with the roles swapped (a q_v^2 or d_v^2 term contracts on v twice).
Single contractions give a quadratic part, which must equal {A, B}^; the
double contractions (hbar dd against hbar^-1 qq) give the constant, the
cocycle.  With ksafe = K - |m_1| - |m_2|, a quadratic term that survives
the subtraction raises TruncationTooNarrow when it is an hbar^-1 qq term,
a q d term with d-index below ksafe, or an hbar dd term with both indices
below ksafe; terms past that are left by the truncation at K.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    IndexOverflow,
    NotInfinitesimallySymplectic,
    TruncationTooNarrow,
)
from .exactalg import SCALAR_ONE, SCALAR_ZERO, Scalar, sc
from .linalg import (
    Matrix,
    gram_inverse,
    gram_matrix,
    mat_is_zero,
    mat_mul,
    multiplication_matrix,
)
from .loopops import is_infinitesimally_symplectic
from .orbtarget import CohClass, TargetModel

Frac = Fraction
Var = Tuple[int, int]                  # (k, flat basis index)
Monomial = Tuple[Var, ...]             # sorted


class FockPolynomial:
    """Truncated polynomial in the q_k^alpha with hbar-Laurent Scalar coefficients."""

    __slots__ = ("target", "kmax", "degmax", "terms")

    def __init__(self, target: TargetModel, kmax: int, degmax: int,
                 terms: Optional[Dict[Monomial, Dict[int, Scalar]]] = None):
        self.target = target
        self.kmax = kmax
        self.degmax = degmax
        self.terms: Dict[Monomial, Dict[int, Scalar]] = {}
        if terms:
            for mono, coeffs in terms.items():
                for h, c in coeffs.items():
                    self.add_term(mono, h, c)

    def add_term(self, mono: Sequence[Var], hpow: int, coeff):
        coeff = sc(coeff)
        if coeff.is_zero:
            return
        mono = tuple(sorted(mono))
        if len(mono) > self.degmax:
            return
        for (k, a) in mono:
            if k > self.kmax or k < 0:
                raise IndexOverflow(f"variable index {k} outside [0, {self.kmax}]")
            if a >= len(self.target.flat_basis):
                raise IndexOverflow(f"basis index {a} out of range")
        bucket = self.terms.setdefault(mono, {})
        new = bucket.get(hpow, SCALAR_ZERO) + coeff
        if new.is_zero:
            bucket.pop(hpow, None)
            if not bucket:
                del self.terms[mono]
        else:
            bucket[hpow] = new

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, o: "FockPolynomial", negate: bool) -> "FockPolynomial":
        out = FockPolynomial(self.target, min(self.kmax, o.kmax),
                             min(self.degmax, o.degmax))
        for src, neg in ((self, False), (o, negate)):
            for mono, coeffs in src.terms.items():
                if len(mono) <= out.degmax:
                    for h, c in coeffs.items():
                        out.add_term(mono, h, -c if neg else c)
        return out

    def __add__(self, o: "FockPolynomial") -> "FockPolynomial":
        return self._combine(o, False)

    def __sub__(self, o: "FockPolynomial") -> "FockPolynomial":
        return self._combine(o, True)

    def derivative(self, var: Var) -> "FockPolynomial":
        out = FockPolynomial(self.target, self.kmax, self.degmax)
        for mono, coeffs in self.terms.items():
            mult = mono.count(var)
            if not mult:
                continue
            reduced = list(mono)
            reduced.remove(var)
            for h, c in coeffs.items():
                out.add_term(tuple(reduced), h, c * sc(mult))
        return out

    def coeff(self, mono: Sequence[Var], hpow: int) -> Scalar:
        return self.terms.get(tuple(sorted(mono)), {}).get(hpow, SCALAR_ZERO)

    def __eq__(self, o) -> bool:
        if not isinstance(o, FockPolynomial):
            return NotImplemented
        return (self - o).is_zero

    def __repr__(self):
        rows = []
        for mono, coeffs in sorted(self.terms.items()):
            for h, c in sorted(coeffs.items()):
                rows.append(f"h^{h} {mono}: {c.to_obj()}")
        return "FockPolynomial(" + "; ".join(rows) + ")"


class FockOperator:
    """Sum of the three quantization shapes, with Scalar coefficients."""

    __slots__ = ("target", "kmax", "qq", "qd", "dd")

    def __init__(self, target: TargetModel, kmax: int):
        self.target = target
        self.kmax = kmax
        self.qq: Dict[Tuple[Var, Var], Scalar] = {}   # hbar^-1 q q
        self.qd: Dict[Tuple[Var, Var], Scalar] = {}   # q d
        self.dd: Dict[Tuple[Var, Var], Scalar] = {}   # hbar d d

    def _accum(self, bucket: Dict, key, coeff: Scalar):
        if coeff.is_zero:
            return
        new = bucket.get(key, SCALAR_ZERO) + coeff
        if new.is_zero:
            bucket.pop(key, None)
        else:
            bucket[key] = new

    def add_qq(self, v1: Var, v2: Var, coeff):
        self._accum(self.qq, tuple(sorted((v1, v2))), sc(coeff))

    def add_qd(self, qvar: Var, dvar: Var, coeff):
        self._accum(self.qd, (qvar, dvar), sc(coeff))

    def add_dd(self, v1: Var, v2: Var, coeff):
        self._accum(self.dd, tuple(sorted((v1, v2))), sc(coeff))

    def __add__(self, o: "FockOperator") -> "FockOperator":
        out = FockOperator(self.target, min(self.kmax, o.kmax))
        for src in (self, o):
            for key, x in src.qq.items():
                out._accum(out.qq, key, x)
            for key, x in src.qd.items():
                out._accum(out.qd, key, x)
            for key, x in src.dd.items():
                out._accum(out.dd, key, x)
        return out

    def apply(self, p: FockPolynomial) -> FockPolynomial:
        """The operator applied to p, truncated at p's kmax and degmax.

        A single pass: each monomial of p meets the terms in their dict
        order, which fixes the summation order into each output key (and so
        the serialised Cyc form), and every product goes straight into one
        output through add_term.  A qd term whose d-variable, or a dd term
        whose first d-variable, is absent from the monomial gives nothing
        and is skipped.
        """
        out = FockPolynomial(p.target, p.kmax, p.degmax)
        add = out.add_term
        for mono, coeffs in p.terms.items():
            if len(mono) + 2 <= p.degmax:
                for (v1, v2), c in self.qq.items():
                    grown = mono + (v1, v2)
                    for h, x in coeffs.items():
                        add(grown, h - 1, x * c)
            present = set(mono)
            for (qv, dv), c in self.qd.items():
                if dv not in present:
                    continue
                mult = mono.count(dv)
                rest = list(mono)
                rest.remove(dv)
                rest.append(qv)
                cm = c if mult == 1 else c * sc(mult)
                for h, x in coeffs.items():
                    add(rest, h, x * cm)
            for (v1, v2), c in self.dd.items():
                if v1 not in present:
                    continue
                m1 = mono.count(v1)
                rest = list(mono)
                rest.remove(v1)
                m2 = rest.count(v2)
                if not m2:
                    continue
                rest.remove(v2)
                cm = c if m1 * m2 == 1 else c * sc(m1 * m2)
                for h, x in coeffs.items():
                    add(rest, h + 1, x * cm)
        return out

    def to_obj(self) -> dict:
        def rows(bucket):
            return [
                {"vars": [list(v1), list(v2)], "coeff": c.to_obj()}
                for (v1, v2), c in sorted(bucket.items())
            ]
        return {"K": self.kmax, "qq_over_hbar": rows(self.qq),
                "q_d": rows(self.qd), "hbar_dd": rows(self.dd)}


def _as_matrix(t: TargetModel, B) -> Matrix:
    if isinstance(B, CohClass):
        return multiplication_matrix(t, B)
    return B


def quantize_monomial(t: TargetModel, B, m: int, K: int,
                      check: bool = True) -> FockOperator:
    """Quantization of the infinitesimally symplectic B z^m, indices <= K."""
    Bm = _as_matrix(t, B)
    if check and not is_infinitesimally_symplectic(t, Bm, m):
        raise NotInfinitesimallySymplectic(
            f"B z^{m} is not infinitesimally symplectic (need B* = (-1)^{m + 1} B)")
    n = len(t.flat_basis)
    op = FockOperator(t, K)
    if m < 0:
        lower = mat_mul(gram_matrix(t), Bm)     # B_{ab} = g_{ac} B^c_b
        halves = _halves(lower, n)
        for k in range(0, -m):
            k2 = -1 - k - m
            if k > K or k2 > K:
                continue
            odd = (k + m) % 2
            for a, b, c in halves:
                op.add_qq((k, b), (k2, a), c[odd])
    negated = [(a, b, -Bm[a][b]) for a in range(n) for b in range(n) if not Bm[a][b].is_zero]
    for k in range(max(0, -m), K - max(0, m) + 1):
        for a, b, c in negated:
            op.add_qd((k, b), (k + m, a), c)
    if m > 0:
        upper = mat_mul(Bm, gram_inverse(t))   # B^{ab} = B^a_c g^{cb}
        halves = _halves(upper, n)
        for k in range(0, m):
            k2 = m - 1 - k
            if k > K or k2 > K:
                continue
            odd = k % 2
            for a, b, c in halves:
                op.add_dd((k, b), (k2, a), c[odd])
    return op


_HALF = Frac(1, 2)


def _halves(M: Matrix, n: int) -> List[Tuple[int, int, Tuple[Scalar, Scalar]]]:
    """(a, b, (M_ab / 2, -M_ab / 2)) for each nonzero entry M_ab, a, b < n, rows first."""
    return [(a, b, (M[a][b].scaled(_HALF), M[a][b].scaled(-_HALF)))
            for a in range(n) for b in range(n) if not M[a][b].is_zero]


def string_operator(t: TargetModel, K: int) -> FockOperator:
    """(1/z)^ = -(1/2h) q_0 g q_0 - sum_{k>=1} q_k d/dq_{k-1} (componentwise in the basis)."""
    return quantize_monomial(t, mat_eye_like(t), -1, K, check=True)


def mat_eye_like(t: TargetModel) -> Matrix:
    n = len(t.flat_basis)
    return [[SCALAR_ONE if i == j else SCALAR_ZERO for j in range(n)] for i in range(n)]


# -- cocycle ---------------------------------------------------------------------


def build_point_potential(t: TargetModel, nmax: int) -> FockPolynomial:
    """Genus-0 point potential F^0 truncated at n <= nmax insertions.

    Expressed in t-variables (the affine dilaton shift q_1 = t_1 - 1 is
    applied symbolically by the string-residual helper, never expanded);
    carried at the hbar^-1 level.  Each entry of ``build_point_table`` gives
    one monomial, its insertions, with the entry's value over
    prod (multiplicity)! as coefficient.
    """
    from .genus0.correlators import build_point_table
    pot = FockPolynomial(t, nmax, nmax)
    for (_n, _d, insertions), value in build_point_table(t, nmax).entries.items():
        denom = prod(factorial(m) for m in Counter(insertions).values())
        pot.add_term([(k, t.flat_index[slot]) for slot, k in insertions], -1,
                     value.scaled(Frac(1, denom)))
    return pot


def string_residual(t: TargetModel, potential: FockPolynomial) -> FockPolynomial:
    """The hbar^-1 part of (1/z)^ D, for D = exp(hbar^-1 F^0), in t-variables:

        -(1/2) t_0^a g_{ab} t_0^b - sum_{k>=1} (t_k - delta_{k,1}) dF/dt_{k-1}.

    With the potential truncated at n <= N the residual vanishes in all
    degrees < N; the top degree is a truncation boundary artifact, so the
    result is truncated one degree below the potential.
    """
    g = gram_matrix(t)
    nb = len(t.flat_basis)
    out = FockPolynomial(t, potential.kmax, potential.degmax - 1)
    for a in range(nb):
        for b in range(nb):
            if not g[a][b].is_zero:
                out.add_term(((0, a), (0, b)), -1, g[a][b] * sc(Frac(-1, 2)))
    # - sum_{k>=1} t_k dF/dt_{k-1} through a shape-conforming operator
    op = FockOperator(t, potential.kmax)
    for k in range(1, potential.kmax + 1):
        for a in range(nb):
            op.add_qd((k, a), (k - 1, a), sc(-1))
    shifted = op.apply(potential)
    # + dF/dt_0^{unit} from the dilaton slot t_1 = q_1 + 1 along the unit direction
    unit_idx = t.flat_index[("0", 0)]
    shifted = shifted + potential.derivative((0, unit_idx))
    # the sum keeps the smaller degmax: out's, one below the potential's
    return out + shifted


def hamiltonian_cocycle(opA: FockOperator, opB: FockOperator) -> Scalar:
    """Closed form: C(pp, qq) = 1 + delta on matching index pairs.

    The dd coefficients of an operator are the pp coefficients of its
    Hamiltonian, the hbar^-1 qq coefficients are the qq ones, so
    C(h_A, h_B) = sum_pairs (ppA * qqB - qqA * ppB) (1 + delta_pair).
    """
    out = SCALAR_ZERO
    for key, c in opA.dd.items():
        other = opB.qq.get(key)
        if other is not None:
            delta = 1 if key[0] == key[1] else 0
            out = out + c * other * sc(1 + delta)
    for key, c in opA.qq.items():
        other = opB.dd.get(key)
        if other is not None:
            delta = 1 if key[0] == key[1] else 0
            out = out - c * other * sc(1 + delta)
    return out


def _contractions(X: FockOperator, Y: FockOperator):
    """XY - :XY: for normal-ordered X and Y, as ((qq, qd, dd), constant).

    Every d/dq of X is contracted with every q of Y on the same variable
    ([d_i, q_j] = delta_ij); Y is indexed by variable, so only such pairs
    meet.  A diagonal key counts twice on either side: d_v (c q_v^2) gives
    2c q_v, and (b d_v^2) q_v gives 2b d_v.  The one double contraction,
    hbar b d_x d_y against hbar^-1 a q_x q_y, gives the constant
    a b (1 + delta_xy).
    """
    qq_on: Dict[Var, List] = {}      # v -> (w, a) for a q_v q_w in Y.qq, a doubled on v = w
    for (u, v), a in Y.qq.items():
        if u == v:
            qq_on.setdefault(u, []).append((u, a.scaled(2)))
        else:
            qq_on.setdefault(u, []).append((v, a))
            qq_on.setdefault(v, []).append((u, a))
    qd_on: Dict[Var, List] = {}      # u -> (v, c) for c q_u d_v in Y.qd
    for (u, v), c in Y.qd.items():
        qd_on.setdefault(u, []).append((v, c))
    qq: Dict[Tuple[Var, Var], Scalar] = {}
    qd: Dict[Tuple[Var, Var], Scalar] = {}
    dd: Dict[Tuple[Var, Var], Scalar] = {}
    constant = SCALAR_ZERO
    for (x, y), c in X.qd.items():                   # c q_x d_y
        for w, a in qq_on.get(y, ()):
            key = (x, w) if x <= w else (w, x)
            qq[key] = qq.get(key, SCALAR_ZERO) + c * a
        for v, c2 in qd_on.get(y, ()):
            key = (x, v)
            qd[key] = qd.get(key, SCALAR_ZERO) + c * c2
    for (x, y), b in X.dd.items():                   # hbar b d_x d_y
        if x == y:
            ends, bs = ((x, x),), b.scaled(2)
        else:
            ends, bs = ((x, y), (y, x)), b
        for hit, left in ends:
            for w, a in qq_on.get(hit, ()):
                key = (w, left)
                qd[key] = qd.get(key, SCALAR_ZERO) + bs * a
                if hit == x and w == y:
                    constant = constant + b * a
            for v, c2 in qd_on.get(hit, ()):
                key = (left, v) if left <= v else (v, left)
                dd[key] = dd.get(key, SCALAR_ZERO) + bs * c2
    return (qq, qd, dd), constant


def _checked(hpow: int, key: Tuple[Var, Var], ksafe: int) -> bool:
    """Whether a surviving term fails the cocycle check: every hbar^-1 qq
    term, a q d term whose d-index is below ksafe, an hbar dd term whose
    indices both are."""
    (k1, _), (k2, _) = key
    return hpow < 0 or k2 < ksafe and (hpow == 0 or k1 < ksafe)


def commutator_cocycle(t: TargetModel, A: Tuple, B: Tuple, K: int) -> Scalar:
    """Scalar part of [A^, B^] - {A, B}^ for A = (B_1, m_1), B = (B_2, m_2).

    The commutator is formed on the coefficient dicts: both operators are
    normal ordered, so [A^, B^] = (A^B^ - :A^B^:) - (B^A^ - :B^A^:), the
    contractions of one operator's d/dq with the other's q
    (``_contractions``).  Single contractions give the quadratic part,
    from which the quantized bracket {A, B}^ = ((B_1 B_2 - B_2 B_1)
    z^(m_1 + m_2))^ is subtracted; the double contractions (dd against qq)
    give the constant, which is returned.

    Truncating both operators at K leaves terms near K in the difference.
    With ksafe = K - |m_1| - |m_2| (at least 2, as K >= |m_1| + |m_2| + 2
    is required), a surviving term raises TruncationTooNarrow, naming it,
    when it is an hbar^-1 qq term, a q d term whose d-index is below ksafe,
    or an hbar dd term with both indices below ksafe.  That covers every
    term whose indices all lie below ksafe, and every term that the probe
    polynomials q_k^a (k < ksafe) and q_k^a q_(k+1)^a (k < ksafe - 1) of an
    evaluation-based check would see.
    """
    (B1, m1), (B2, m2) = A, B
    if K < abs(m1) + abs(m2) + 2:
        raise TruncationTooNarrow(f"need K >= |m|+|m'|+2 = {abs(m1) + abs(m2) + 2}")
    op1 = quantize_monomial(t, B1, m1, K)
    op2 = quantize_monomial(t, B2, m2, K)
    M1, M2 = _as_matrix(t, B1), _as_matrix(t, B2)
    LC = [[x - y for x, y in zip(r12, r21)]
          for r12, r21 in zip(mat_mul(M1, M2), mat_mul(M2, M1))]
    bracket = FockOperator(t, K)
    if not mat_is_zero(LC):
        bracket = quantize_monomial(t, LC, m1 + m2, K, check=False)

    ab, c_ab = _contractions(op1, op2)
    ba, c_ba = _contractions(op2, op1)
    ksafe = K - abs(m1) - abs(m2)
    shapes = (("qq/hbar", -1), ("q d", 0), ("hbar dd", 1))
    for (name, hpow), plus, minus, sub in zip(shapes, ab, ba,
                                              (bracket.qq, bracket.qd, bracket.dd)):
        for key in sorted(set(plus) | set(minus) | set(sub)):
            if not _checked(hpow, key, ksafe):
                continue
            rest = (plus.get(key, SCALAR_ZERO) - minus.get(key, SCALAR_ZERO)
                    - sub.get(key, SCALAR_ZERO))
            if not rest.is_zero:
                raise TruncationTooNarrow(
                    f"commutator residual keeps the non-scalar term {name} on "
                    f"{key[0]}, {key[1]} (hbar^{hpow}, coefficient {rest.to_obj()}) "
                    f"with ksafe = {ksafe}")
    return c_ab - c_ba
