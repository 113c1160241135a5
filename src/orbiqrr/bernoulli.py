"""Exact Bernoulli polynomials B_m(x).

Convention: t e^{tx} / (e^t - 1) = sum_m B_m(x) t^m / m!, so B_1(0) = -1/2.
Numbers come from the triangular recurrence
    B_m = -1/(m+1) * sum_{k<m} C(m+1, k) B_k,
and polynomials from B_m(x) = sum_k C(m, k) B_k x^{m-k}.  Everything is an
exact Fraction; polynomials are memoized up to the largest m requested,
and values at a point in a bounded cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import List

_numbers: List[Fraction] = [Fraction(1)]
_polys: List[List[Fraction]] = [[Fraction(1)]]


def bernoulli_number(m: int) -> Fraction:
    """B_m = B_m(0)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    while len(_numbers) <= m:
        n = len(_numbers)
        s = sum(Fraction(comb(n + 1, k)) * _numbers[k] for k in range(n))
        _numbers.append(-s / (n + 1))
    return _numbers[m]


def bernoulli_poly(m: int) -> List[Fraction]:
    """Coefficients of B_m(x), lowest degree first; leading coefficient is 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    bernoulli_number(m)
    while len(_polys) <= m:
        n = len(_polys)
        coeffs = [Fraction(comb(n, k)) * _numbers[k] for k in range(n, -1, -1)]
        _polys.append(coeffs)
    return list(_polys[m])


@lru_cache(maxsize=256)
def bernoulli_value(m: int, x) -> Fraction:
    """B_m(x) at a rational point, exactly."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(bernoulli_poly(m)):
        acc = acc * x + c
    return acc
