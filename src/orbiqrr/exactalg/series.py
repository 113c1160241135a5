"""Truncated Laurent series in z over a truncated Novikov ring, Scalar coefficients.

Truncation semantics: coefficients with Novikov degree <= dmax and z-exponent
in [zmin, zmax] are exact; below zmin the series is exactly zero; above zmax
and beyond dmax it is unknown.  Arithmetic shrinks the declared window to the
region both operands actually determine, so results never silently claim
knowledge they do not have.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..errors import NonUnitConstantTerm
from .scalar import SCALAR_ONE, SCALAR_ZERO, Scalar, sc

Deg = Tuple[int, ...]


def deg_total(d: Deg) -> int:
    return sum(d)


def deg_add(a: Deg, b: Deg) -> Deg:
    return tuple(x + y for x, y in zip(a, b))


def zero_deg(rank: int) -> Deg:
    return (0,) * rank


class TruncSeries:
    """sum_{d, n} c_{d,n} Q^d z^n with explicit truncation (dmax, zmin, zmax)."""

    __slots__ = ("rank", "dmax", "zmin", "zmax", "coeffs")

    def __init__(self, rank: int, dmax: int, zmin: int, zmax: int,
                 coeffs: Dict[Tuple[Deg, int], Scalar] | None = None):
        if zmin > zmax:
            raise ValueError("zmin > zmax")
        self.rank = rank
        self.dmax = dmax
        self.zmin = zmin
        self.zmax = zmax
        self.coeffs = {}
        if coeffs:
            for (d, n), c in coeffs.items():
                self._set(d, n, sc(c))

    def _inside(self, d: Deg, n: int) -> bool:
        return deg_total(d) <= self.dmax and self.zmin <= n <= self.zmax

    def _set(self, d: Deg, n: int, c: Scalar):
        if len(d) != self.rank:
            raise ValueError(f"Novikov degree {d} has wrong rank (expected {self.rank})")
        if not self._inside(d, n):
            raise ValueError(f"index (d={d}, z^{n}) outside declared truncation")
        if c.is_zero:
            self.coeffs.pop((d, n), None)
        else:
            self.coeffs[(d, n)] = c

    def _add_to(self, d: Deg, n: int, c: Scalar):
        cur = self.coeffs.get((d, n), SCALAR_ZERO)
        self._set(d, n, cur + c)

    # -- constructors

    @staticmethod
    def from_scalar(c, rank: int = 1, dmax: int = 0, zmin: int = 0, zmax: int = 0) -> "TruncSeries":
        s = TruncSeries(rank, dmax, zmin, zmax)
        c = sc(c)
        if not c.is_zero:
            s._set(zero_deg(rank), 0, c)
        return s

    @staticmethod
    def one(rank: int = 1, dmax: int = 0, zmin: int = 0, zmax: int = 0) -> "TruncSeries":
        return TruncSeries.from_scalar(SCALAR_ONE, rank, dmax, zmin, zmax)

    def copy_window(self, dmax: int, zmin: int, zmax: int) -> "TruncSeries":
        """Restrict to a (smaller) window."""
        out = TruncSeries(self.rank, dmax, zmin, zmax)
        for (d, n), c in self.coeffs.items():
            if out._inside(d, n):
                out._set(d, n, c)
        return out

    def get(self, d: Deg, n: int = 0) -> Scalar:
        return self.coeffs.get((d, n), SCALAR_ZERO)

    def items(self) -> Iterable[Tuple[Tuple[Deg, int], Scalar]]:
        return self.coeffs.items()

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    # -- ring operations

    def __add__(self, o: "TruncSeries") -> "TruncSeries":
        if self.rank != o.rank:
            raise ValueError("rank mismatch")
        out = TruncSeries(self.rank, min(self.dmax, o.dmax),
                          min(self.zmin, o.zmin), min(self.zmax, o.zmax))
        for (d, n), c in self.coeffs.items():
            if out._inside(d, n):
                out._add_to(d, n, c)
        for (d, n), c in o.coeffs.items():
            if out._inside(d, n):
                out._add_to(d, n, c)
        return out

    def __neg__(self) -> "TruncSeries":
        out = TruncSeries(self.rank, self.dmax, self.zmin, self.zmax)
        for (d, n), c in self.coeffs.items():
            out._set(d, n, -c)
        return out

    def __sub__(self, o: "TruncSeries") -> "TruncSeries":
        return self + (-o)

    def scale(self, c) -> "TruncSeries":
        c = sc(c)
        out = TruncSeries(self.rank, self.dmax, self.zmin, self.zmax)
        if c.is_zero:
            return out
        for (d, n), x in self.coeffs.items():
            out._set(d, n, x * c)
        return out

    def __mul__(self, o: "TruncSeries") -> "TruncSeries":
        if self.rank != o.rank:
            raise ValueError("rank mismatch")
        # reliable ceiling: unknown tail of one factor times known floor of the other
        zmax = min(self.zmax + o.zmin, o.zmax + self.zmin)
        zmin = self.zmin + o.zmin
        out = TruncSeries(self.rank, min(self.dmax, o.dmax), zmin, zmax)
        for (d1, n1), c1 in self.coeffs.items():
            for (d2, n2), c2 in o.coeffs.items():
                d, n = deg_add(d1, d2), n1 + n2
                if out._inside(d, n):
                    out._add_to(d, n, c1 * c2)
        return out

    def __eq__(self, o) -> bool:
        if not isinstance(o, TruncSeries):
            return NotImplemented
        if self.rank != o.rank:
            return False
        return self.coeffs == o.coeffs

    def __repr__(self):
        terms = ", ".join(f"Q^{list(d)} z^{n}: {c.to_obj()}" for (d, n), c in sorted(self.coeffs.items()))
        return f"TruncSeries[d<={self.dmax}, {self.zmin}<=z<={self.zmax}]({terms})"

    # -- limits

    def nonequiv_limit(self) -> "TruncSeries":
        out = TruncSeries(self.rank, self.dmax, self.zmin, self.zmax)
        for (d, n), c in self.coeffs.items():
            out._set(d, n, c.nonequiv_limit())
        return out


def series_invert(a: TruncSeries) -> TruncSeries:
    """Multiplicative inverse at the declared truncation.

    Requires the (d=0, z=0) coefficient invertible and no content below z^0
    (the inverse of a series with a genuine z-pole is not a truncated power
    series in this ring).
    """
    d0 = zero_deg(a.rank)
    c0 = a.get(d0, 0)
    if c0.is_zero or not c0.is_invertible:
        raise NonUnitConstantTerm("constant term is zero or not invertible")
    for (d, n), _ in a.coeffs.items():
        if n < 0:
            raise NonUnitConstantTerm("cannot invert a series with negative z-powers")
    inv0 = c0.inverse()
    # r = 1 - a/c0 has no (0,0) term and (Novikov + z)-valuation >= 1.  z^0 is
    # inside a's window (c0 != 0), and on [0, a.zmax] every product power * r
    # keeps that window.
    r = a.copy_window(a.dmax, 0, a.zmax).scale(inv0)
    r._set(d0, 0, SCALAR_ZERO)
    r = -r
    out = power = TruncSeries.one(a.rank, a.dmax, 0, a.zmax)
    for _ in range(a.dmax + a.zmax):
        power = power * r
        if power.is_zero:
            break
        out = out + power
    return out.scale(inv0)
