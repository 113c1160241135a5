"""Rational arithmetic on a Fraction's integer parts.

``fractions.Fraction``'s operators reduce numerator and denominator with the
gcds of Knuth, TAOCP vol. 2, section 4.5.1, and then build the result
through ``Fraction.__new__``, whose type dispatch costs more than the gcds.
The functions here take the same steps on ``_numerator`` and
``_denominator`` and build the result with ``_frac``, which sets the two
slots of a new Fraction and nothing else.  A result is an ordinary Fraction
in lowest terms with a positive denominator: the value, ``str``, hash and
``==`` of the one ``fractions`` builds.

Every operand is a Fraction (an int has no slots); ``Scalar`` and ``Cyc``
hold their rationals as Fractions.  A zero divisor raises
ZeroDivisionError, as ``fractions`` does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


def _frac(n: int, d: int) -> Fraction:
    """n/d for coprime n and d > 0, without normalising again."""
    out = _new(Fraction)
    out._numerator = n
    out._denominator = d
    return out


def q_add(a: Fraction, b: Fraction) -> Fraction:
    """a + b: the sum over lcm(da, db), divided by what it shares with gcd(da, db)."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = gcd(da, db)
    if g == 1:
        return _frac(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _frac(t, s * db)
    return _frac(t // g2, s * (db // g2))


def q_sub(a: Fraction, b: Fraction) -> Fraction:
    """a - b, as ``q_add``."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = gcd(da, db)
    if g == 1:
        return _frac(na * db - da * nb, da * db)
    s = da // g
    t = na * (db // g) - nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _frac(t, s * db)
    return _frac(t // g2, s * (db // g2))


def q_mul(a: Fraction, b: Fraction) -> Fraction:
    """a * b: each numerator is reduced against the other side's denominator."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _frac(na * nb, da * db)


def q_div(a: Fraction, b: Fraction) -> Fraction:
    """a / b: as ``q_mul`` with b inverted, the sign moved to the numerator."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    if not nb:
        raise ZeroDivisionError("rational division by zero")
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(da, db)
    if g2 > 1:
        da //= g2
        db //= g2
    if nb < 0:
        return _frac(-na * db, -nb * da)
    return _frac(na * db, nb * da)


def q_neg(a: Fraction) -> Fraction:
    """-a."""
    return _frac(-a._numerator, a._denominator)
