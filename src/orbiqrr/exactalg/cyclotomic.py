"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are residue polynomials modulo the N-th cyclotomic polynomial
Phi_N, with Fraction coefficients.  Different orders mix freely: operands
are lifted into Q(zeta_lcm) via zeta_N = zeta_M^(M/N).  Elements whose
residue is constant are demoted back to order 1, so plain rationals stay
plain through round trips.  The residue arithmetic (sums, products,
reduction mod Phi_N, lifting and the stride demotion) runs on the dense
polynomial kernel in ``poly``.  At order 1 (every coefficient of an
untwisted or zeta-free value) ``+ * inverse`` skip it: each is one call of
the rational kernel in ``rational``, as is ``neg`` per coefficient at
every order.  A product with an order-1 factor (``scaled``) skips it too:
a reduced residue times a nonzero rational stays reduced in the same
positions, so the other residue is scaled with one rational-kernel product
per nonzero entry, and no lift, product, reduction or demotion runs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import List, Sequence, Tuple

from ..errors import NonInvertible
from . import poly
from .rational import q_add, q_div, q_mul, q_neg

Frac = Fraction

_ZERO, _ONE = Frac(0), Frac(1)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> Tuple[Frac, ...]:
    """Coefficients of Phi_n, lowest degree first (integer-valued Fractions)."""
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    if n == 1:
        return (Frac(-1), Frac(1))
    # divide x^n - 1 by Phi_d for every proper divisor d
    p: List[Frac] = [Frac(-1)] + [Frac(0)] * (n - 1) + [Frac(1)]
    for d in range(1, n):
        if n % d == 0:
            q, r = poly.divmod(p, cyclotomic_poly(d), _ONE, _ZERO)
            assert not r, "cyclotomic division must be exact"
            p = q
    return tuple(p)


def _ext_gcd(a: List[Frac], b: List[Frac]) -> Tuple[List[Frac], List[Frac], List[Frac]]:
    """Return (g, u, v) with u*a + v*b = g over Q[x]."""
    r0, r1 = list(a), list(b)
    u0, u1 = [Frac(1)], []
    v0, v1 = [], [Frac(1)]
    while poly.strip(r1):
        q, r = poly.divmod(r0, r1, 1 / r1[-1], _ZERO)
        r0, r1 = r1, r
        u0, u1 = u1, poly.add(u0, [-c for c in poly.mul(q, u1, _ZERO)], _ZERO)
        v0, v1 = v1, poly.add(v0, [-c for c in poly.mul(q, v1, _ZERO)], _ZERO)
    return r0, u0, v0


class Cyc:
    """An element of Q(zeta_order) as a residue polynomial mod Phi_order.

    A product with an order-1 factor is ``scaled``: the other residue times
    the rational, entry by entry, with no lift, kernel product or reduction.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[Frac], _reduced: bool = False):
        if _reduced:
            self.order = order
            self.coeffs = tuple(coeffs)
            return
        phi = cyclotomic_poly(order)
        deg = len(phi) - 1
        c = list(coeffs)
        if len(c) >= len(phi):
            _, c = poly.divmod(c, phi, _ONE, _ZERO)   # Phi_N is monic
        c += [_ZERO] * (deg - len(c))
        c = c[:deg]
        if order > 1 and all(x == 0 for x in c[1:]):
            order, c = 1, [c[0]]
        elif order == 1:
            c = [c[0]] if c else [Frac(0)]
        else:
            # demote zeta_M^(g*i) combinations into Q(zeta_{M/g})
            g = poly.exponent_gcd(c, order)
            if g > 1:
                sub = Cyc(order // g, c[::g])
                order, c = sub.order, list(sub.coeffs)
        self.order = order
        self.coeffs = tuple(c)

    # -- constructors

    @staticmethod
    def from_fraction(x) -> "Cyc":
        return Cyc(1, [Frac(x)], _reduced=True)

    @staticmethod
    def root_of_unity(n: int, k: int) -> "Cyc":
        if n < 1:
            raise ValueError("order must be >= 1")
        k %= n
        if k == 0:
            return Cyc.from_fraction(1)
        g = gcd(n, k)
        n, k = n // g, k // g
        mono = [Frac(0)] * k + [Frac(1)]
        return Cyc(n, mono)

    # -- structure

    # The constructor demotes every element with c[1:] all zero to order 1.
    # Scalar tests its coefficients by truth value (__bool__); is_zero is
    # read off the hot path: by inverse, by RatFunc at the JSON boundary and
    # by the tests' scalar oracle.

    def __bool__(self) -> bool:
        return self.order != 1 or bool(self.coeffs[0])

    @property
    def is_zero(self) -> bool:
        return self.order == 1 and not self.coeffs[0]

    @property
    def is_rational(self) -> bool:
        return self.order == 1

    def as_fraction(self) -> Frac:
        if self.order != 1:
            raise ValueError("not a rational cyclotomic element")
        return self.coeffs[0]

    def _lift_coeffs(self, m: int) -> List[Frac]:
        """Raw residue coefficients inside Q(zeta_m); requires order | m."""
        if m % self.order:
            raise ValueError(f"cannot lift order {self.order} into order {m}")
        return poly.stretch(self.coeffs, m // self.order, _ZERO)

    @staticmethod
    def _common(a: "Cyc", b: "Cyc") -> Tuple[int, List[Frac], List[Frac]]:
        """Common order and raw lifted coefficient vectors (no demotion)."""
        if a.order == b.order:
            return a.order, list(a.coeffs), list(b.coeffs)
        m = a.order * b.order // gcd(a.order, b.order)
        return m, a._lift_coeffs(m), b._lift_coeffs(m)

    # -- arithmetic

    def __add__(self, other: "Cyc") -> "Cyc":
        if self.order == 1 and other.order == 1:
            return Cyc(1, (q_add(self.coeffs[0], other.coeffs[0]),), _reduced=True)
        order, a, b = Cyc._common(self, other)
        return Cyc(order, poly.add(a, b, _ZERO))

    def __sub__(self, other: "Cyc") -> "Cyc":
        return self + (-other)

    def __neg__(self) -> "Cyc":
        return Cyc(self.order, tuple(q_neg(c) for c in self.coeffs), _reduced=True)

    def __mul__(self, other: "Cyc") -> "Cyc":
        if self.order == 1:
            if other.order == 1:
                return Cyc(1, (q_mul(self.coeffs[0], other.coeffs[0]),), _reduced=True)
            return other.scaled(self.coeffs[0])
        if other.order == 1:
            return self.scaled(other.coeffs[0])
        order, a, b = Cyc._common(self, other)
        return Cyc(order, poly.mul(a, b, _ZERO))

    def scaled(self, q: Frac) -> "Cyc":
        """self * q for a Fraction q: one rational-kernel product per nonzero
        residue entry.  A reduced residue times a nonzero rational is reduced
        in the same positions, so the order stays; q = 0 gives the order-1 zero."""
        if not q._numerator:
            return CYC_ZERO
        return Cyc(self.order, tuple(q_mul(x, q) if x._numerator else x for x in self.coeffs),
                   _reduced=True)

    def inverse(self) -> "Cyc":
        if self.is_zero:
            raise NonInvertible("division by zero in Q(zeta)")
        if self.order == 1:
            return Cyc(1, (q_div(_ONE, self.coeffs[0]),), _reduced=True)
        g, u, _ = _ext_gcd(list(self.coeffs), list(cyclotomic_poly(self.order)))
        assert len(g) == 1, "residue poly must be coprime to Phi_N"
        scale = 1 / g[0]
        return Cyc(self.order, [c * scale for c in u])

    def __pow__(self, n: int) -> "Cyc":
        return poly.power(self, n, CYC_ONE, Cyc.inverse)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        m, a, b = Cyc._common(self, other)
        ra, rb = Cyc(m, a), Cyc(m, b)
        return ra.order == rb.order and ra.coeffs == rb.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        if self.order == 1:
            return f"Cyc({self.coeffs[0]})"
        return f"Cyc(zeta_{self.order}; {list(self.coeffs)})"


CYC_ZERO = Cyc.from_fraction(0)
CYC_ONE = Cyc.from_fraction(1)
