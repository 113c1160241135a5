"""Independent oracles used by the tests.

ci_instanton_numbers implements the classical mirror computation for a
Calabi-Yau threefold complete intersection P^n[a_1, ..., a_k] with plain
Fraction power series: hypergeometric solutions
F = sum prod_i (a_i d)!/(d!)^(n+1) q^d and G = F-weighted harmonic-number
sums, the mirror map Q = q exp(G/F), and the Yukawa coupling

    kappa + sum_d n_d d^3 Q^d / (1 - Q^d)
        = kappa / ((1 - mu q) F(q)^2) * (q dT/dq)^(-3),  T = log q + G/F,

kappa = prod a_i, mu = prod a_i^a_i, from which the n_d are extracted
triangularly; quintic_instanton_numbers is its P4[5] case (kappa = 5,
mu = 5^5).  ci_mirror_map is its first step, (F, G/F), on its own: it holds
for every P^n[a_1, ..., a_k] with sum a_i = n + 1, P^n/O(n+1) included.
None of the package machinery is used here.

pn_j_degree_series gives the degree-d slice of the J-function of P^n from
the same Fraction series helpers.

string_recursion_point_correlator computes point psi-integrals purely from
the string equation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, Tuple

Frac = Fraction


# -- plain Fraction power series, dense lists, index = q-degree ----------------


def s_mul(a: List[Frac], b: List[Frac], nmax: int) -> List[Frac]:
    out = [Frac(0)] * (nmax + 1)
    for i, x in enumerate(a[: nmax + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: nmax + 1 - i]):
            if y:
                out[i + j] += x * y
    return out


def s_inv(a: List[Frac], nmax: int) -> List[Frac]:
    assert a[0] != 0
    out = [Frac(0)] * (nmax + 1)
    out[0] = 1 / a[0]
    for n in range(1, nmax + 1):
        acc = Frac(0)
        for k in range(1, n + 1):
            if k < len(a):
                acc += a[k] * out[n - k]
        out[n] = -acc / a[0]
    return out


def s_exp(a: List[Frac], nmax: int) -> List[Frac]:
    assert a[0] == 0
    out = [Frac(0)] * (nmax + 1)
    out[0] = Frac(1)
    term = [Frac(0)] * (nmax + 1)
    term[0] = Frac(1)
    for j in range(1, nmax + 1):
        term = s_mul(term, a, nmax)
        for n in range(nmax + 1):
            out[n] += term[n] / factorial(j)
    return out


def s_compose(a: List[Frac], b: List[Frac], nmax: int) -> List[Frac]:
    """a(b(q)) for b with b[0] = 0."""
    assert b[0] == 0
    out = [Frac(0)] * (nmax + 1)
    out[0] = a[0] if a else Frac(0)
    power = [Frac(0)] * (nmax + 1)
    power[0] = Frac(1)
    for k in range(1, min(len(a), nmax + 1)):
        power = s_mul(power, b, nmax)
        if a[k]:
            for n in range(nmax + 1):
                out[n] += a[k] * power[n]
    return out


def harmonic(n: int) -> Frac:
    return sum((Frac(1, k) for k in range(1, n + 1)), Frac(0))


def quintic_instanton_numbers(dmax: int) -> Tuple[Dict[int, Frac], Dict[int, Frac]]:
    """Returns (n, N) of the quintic threefold P4[5]: instanton numbers and the
    multiple-cover sums N_d = sum_{k|d} n_{d/k} / k^3."""
    return ci_instanton_numbers(4, (5,), dmax)


def ci_mirror_map(n_amb: int, degrees: Tuple[int, ...],
                  dmax: int) -> Tuple[List[Frac], List[Frac]]:
    """(F, G/F) to q^dmax of the complete intersection P^n[a_1, ..., a_k] with
    sum a_i = n + 1 (c1 = 0), as dense lists: F_d = prod_i (a_i d)! / (d!)^(n+1)
    and G_d = F_d sum_i a_i (H(a_i d) - H(d)).  For P^n/O(n+1) that is
    F_d = ((n+1) d)! / (d!)^(n+1) and G_d = (n+1) F_d (H((n+1) d) - H(d)).
    G/F has no q^0 term; its q^d coefficients, d >= 1, are the mirror map tau."""
    assert sum(degrees) == n_amb + 1
    F = []
    for d in range(dmax + 1):
        num = 1
        for a in degrees:
            num *= factorial(a * d)
        F.append(Frac(num, factorial(d) ** (n_amb + 1)))
    G = [F[d] * sum((a * (harmonic(a * d) - harmonic(d)) for a in degrees), Frac(0))
         for d in range(dmax + 1)]
    return F, s_mul(G, s_inv(F, dmax), dmax)


def ci_instanton_numbers(n_amb: int, degrees: Tuple[int, ...],
                         dmax: int) -> Tuple[Dict[int, Frac], Dict[int, Frac]]:
    """Returns (n, N) of the Calabi-Yau threefold complete intersection
    P^n[a_1, ..., a_k] (sum a_i = n + 1, n - k = 3), with F and G/F of
    ``ci_mirror_map`` and the Yukawa coupling kappa / ((1 - mu q) F^2 (q dT/dq)^3),
    kappa = prod a_i, mu = prod a_i^a_i."""
    assert sum(degrees) == n_amb + 1 and n_amb - len(degrees) == 3
    nmax = dmax
    kappa, mu = 1, 1
    for a in degrees:
        kappa, mu = kappa * a, mu * a ** a
    F, g_over_f = ci_mirror_map(n_amb, degrees, nmax)
    # mirror map: Q = q e^{G/F}; invert to q = q(Q) by fixed-point iteration
    exp_gf = s_exp(g_over_f, nmax)
    bigq_of_q = s_mul([Frac(0), Frac(1)] + [Frac(0)] * (nmax - 1), exp_gf, nmax)
    q_of_bigq = [Frac(0), Frac(1)] + [Frac(0)] * (nmax - 1)
    for _ in range(nmax + 2):
        # q = Q * exp(-(G/F)(q))
        inner = s_compose(g_over_f, q_of_bigq, nmax)
        e = s_exp([-x for x in inner], nmax)
        q_of_bigq = s_mul([Frac(0), Frac(1)] + [Frac(0)] * (nmax - 1), e, nmax)
    # sanity: the two maps invert each other
    check = s_compose(bigq_of_q, q_of_bigq, nmax)
    assert check[1] == 1 and all(c == 0 for c in check[2:]), "mirror map inversion failed"
    # B-model Yukawa in q
    disc = [Frac(1)] + [Frac(0)] * nmax
    if nmax >= 1:
        disc[1] = Frac(-mu)
    f_sq = s_mul(F, F, nmax)
    # q dT/dq = 1 + q d/dq (G/F)
    dT = [Frac(0)] * (nmax + 1)
    dT[0] = Frac(1)
    for k in range(1, nmax + 1):
        dT[k] = g_over_f[k] * k
    inv_part = s_mul(s_mul(disc, f_sq, nmax), s_mul(dT, s_mul(dT, dT, nmax), nmax), nmax)
    K_q = [kappa * x for x in s_inv(inv_part, nmax)]
    # change variables to Q
    K_Q = s_compose(K_q, q_of_bigq, nmax)
    # K(Q) = kappa + sum n_d d^3 Q^d / (1 - Q^d): extract n_d triangularly
    n: Dict[int, Frac] = {}
    for m in range(1, nmax + 1):
        acc = K_Q[m]
        for d in range(1, m):
            if m % d == 0:
                acc -= n[d] * d ** 3
        n[m] = acc / Frac(m ** 3)
    big_n: Dict[int, Frac] = {}
    for d in range(1, nmax + 1):
        big_n[d] = sum((n[d // k] / Frac(k ** 3) for k in range(1, d + 1) if d % k == 0),
                       Frac(0))
    return n, big_n


# -- the J-function of P^n ------------------------------------------------------


def pn_j_degree_series(n: int, d: int) -> List[Frac]:
    """[y^a] of 1 / prod_{k=1..d} (1 + y/k)^(n+1), a = 0..n.

    With y = p/z, J_d of P^n is z (z^d d!)^(-(n+1)) times this series in p
    (p^(n+1) = 0): the p^a coefficient sits at z^(1 - (n+1) d - a)."""
    prod = [Frac(1)]
    for k in range(1, d + 1):
        prod = s_mul(prod, [Frac(1), Frac(1, k)], n)
    power = [Frac(1)]
    for _ in range(n + 1):
        power = s_mul(power, prod, n)
    return s_inv(power, n)


# -- point correlators from the string equation --------------------------------


@lru_cache(maxsize=None)
def string_recursion_point_correlator(kpowers: Tuple[int, ...]) -> Frac:
    """<psi^{k_1} ... psi^{k_n}>_{0,n} for the point, by string recursion only."""
    n = len(kpowers)
    if sum(kpowers) != n - 3 or n < 3:
        return Frac(0)
    if n == 3:
        return Frac(1)
    ks = sorted(kpowers)
    assert ks[0] == 0, "dimension forces a zero power for n > 3"
    rest = ks[1:]
    acc = Frac(0)
    for j in range(len(rest)):
        if rest[j] == 0:
            continue
        lowered = rest[:j] + [rest[j] - 1] + rest[j + 1:]
        acc += string_recursion_point_correlator(tuple(sorted(lowered)))
    return acc
