"""Dense univariate polynomials, lowest degree first, over any coefficient ring.

One kernel serves the Fraction residues of ``Cyc``, which lift a residue to
a common order (``stretch``) and find the least order of one
(``exponent_gcd``), and the gcd by which ``RatFunc`` reduces outside JSON;
``Scalar`` holds monomials, not dense polynomials, and takes only its
powers here.  A
coefficient needs ``+``, ``-``, ``*`` and a truth value that is false
exactly for zero.  Callers pass the ring's zero, its one, or the inverse
of a leading coefficient, so nothing here depends on the coefficient type.

Sums and products keep one evaluation order: a sum adds the right operand
onto a copy of the left one (zero + c is c itself in every ring here), a
product runs the left index in the outer loop and skips zero coefficients.
``Cyc`` has no canonical form across conductors, so a sum taken in another
order could serialise differently.
"""

from __future__ import annotations

from math import gcd
from typing import List, Sequence, Tuple


def strip(p: List) -> List:
    """Drop trailing zero coefficients in place and return p."""
    while p and not p[-1]:
        p.pop()
    return p


def add(a: Sequence, b: Sequence, zero) -> List:
    out = list(a) + [zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return strip(out)


def mul(a: Sequence, b: Sequence, zero) -> List:
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = out[i + j] + ca * cb
    return strip(out)


def divmod(a: Sequence, b: Sequence, inv_lead, zero) -> Tuple[List, List]:
    """(q, r) with a = q*b + r and deg r < deg b, over a field.

    b must be stripped and nonzero, and inv_lead must be 1 / b[-1].
    """
    r = strip(list(a))
    q = [zero] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        c = r[-1] * inv_lead
        k = len(r) - len(b)
        q[k] = c
        for i, cb in enumerate(b):
            r[k + i] = r[k + i] - c * cb
        strip(r)
    return q, r


def stretch(p: Sequence, k: int, zero) -> List:
    """p(x) -> p(x^k) for k >= 1."""
    out = [zero] * (k * (len(p) - 1) + 1)
    out[::k] = p
    return out


def exponent_gcd(p: Sequence, g: int) -> int:
    """gcd of g and every exponent i >= 1 whose coefficient p[i] is nonzero."""
    for i in range(1, len(p)):
        if p[i]:
            g = gcd(g, i)
            if g == 1:
                break
    return g


def power(x, n: int, one, inverse):
    """x**n by repeated squaring; a negative n raises inverse(x) to -n."""
    if n < 0:
        x, n = inverse(x), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out
