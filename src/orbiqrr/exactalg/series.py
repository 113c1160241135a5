"""Truncated z-Laurent series over a truncated Novikov ring.

``WindowedSeries`` holds the truncation window and the arithmetic that only
needs it; its docstring states the window rule.  ``window_product`` is the
package's one product of two windowed block dicts (series products, the
graded exponential, loop operators and invariant extraction call it).
``TruncSeries`` is the Scalar-valued series with its ring product and
``series_invert``.  ``Deg``, ``zero_deg`` and the ``deg_*`` functions are the
one owner of Novikov degrees: zero, sum, pairing, splittings and JSON reader.
"""

from __future__ import annotations

import operator
from itertools import product
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from ..errors import NonUnitConstantTerm, SchemaError
from .scalar import SCALAR_ONE, SCALAR_ZERO, Scalar, sc

Deg = Tuple[int, ...]
Key = Tuple[int, Deg]


def deg_add(a: Deg, b: Deg) -> Deg:
    """a + b, with () the zero degree of any rank (a block with no Q)."""
    if not a:
        return b
    if not b:
        return a
    return tuple(x + y for x, y in zip(a, b))


def zero_deg(rank: int) -> Deg:
    return (0,) * rank


def deg_pairing(v: Sequence, d: Deg):
    """<v, d> = sum of v_i d_i over the d_i != 0 (int 0 at d = 0); ValueError on unequal lengths."""
    if len(v) != len(d):
        raise ValueError(f"a pairing vector of {len(v)} entries against the degree {d}")
    return sum(c * x for c, x in zip(v, d) if x)


def deg_splits(d: Deg) -> Iterator[Tuple[Deg, Deg]]:
    """Every d = d1 + d2 with d1, d2 >= 0, d1 in lexicographic order."""
    for d1 in product(*(range(x + 1) for x in d)):
        yield d1, tuple(x - y for x, y in zip(d, d1))


def deg_from_json(x, rank: int, path: str, owner: str) -> Deg:
    """A JSON list of ``rank`` nonnegative ints as a degree, else a SchemaError."""
    if not (isinstance(x, list) and len(x) == rank and all(type(a) is int and a >= 0 for a in x)):
        raise SchemaError(f"{path}: expected {rank} nonnegative integers "
                          f"(the curve rank of {owner})")
    return tuple(x)


def window_product(a: Dict[Key, object], b: Dict[Key, object], mul: Callable,
                   inside: Callable) -> Dict[Key, object]:
    """sum of mul(x, y) z^(n+m) Q^(d+e) over blocks x z^n Q^d of a and y z^m Q^e of b,
    keeping the keys where inside(n, d) holds and dropping zero sums.

    a is the outer loop and each sum is cur + new, so a block's terms add up
    in one fixed order (``Cyc`` has no canonical form, so that order is part
    of the output bytes).
    """
    out: Dict[Key, object] = {}
    for (n1, d1), x in a.items():
        for (n2, d2), y in b.items():
            key = (n1 + n2, deg_add(d1, d2))
            if not inside(*key):
                continue
            cur = out.get(key)
            c = mul(x, y) if cur is None else cur + mul(x, y)
            if c.is_zero:
                out.pop(key, None)
            else:
                out[key] = c
    return out


class WindowedSeries:
    """sum_{n, d} c_{n,d} z^n Q^d, stored sparsely by (n, d), inside a window.

    The window is (zmin, zmax, dmax).  A coefficient with zmin <= n <= zmax
    and sum(d) <= dmax is exact; below zmin the series is exactly zero; above
    zmax and past dmax it is unknown.  Arithmetic shrinks the window to the
    region every operand determines, so a result never claims knowledge its
    operands lack.  Zero coefficients are not stored.

    A subclass fixes the coefficient type through three hooks: ``_empty``
    (an empty series of its kind on a window), ``zero`` (the value of an
    absent coefficient) and ``_times`` (a coefficient times a Scalar).
    """

    __slots__ = ("zmin", "zmax", "dmax", "data")

    def __init__(self, zmin: int, zmax: int, dmax: int, data: Optional[Dict[Key, object]] = None):
        if zmin > zmax:
            raise ValueError("zmin > zmax")
        self.zmin = zmin
        self.zmax = zmax
        self.dmax = dmax
        self.data: Dict[Key, object] = {}
        if data:
            for (n, d), c in data.items():
                self.set(n, d, c)

    def inside(self, n: int, d: Deg) -> bool:
        return self.zmin <= n <= self.zmax and sum(d) <= self.dmax

    def set(self, n: int, d: Deg, c):
        if not self.inside(n, d):
            raise ValueError(f"(z^{n}, Q^{d}) outside the window "
                             f"[{self.zmin}..{self.zmax}, d<={self.dmax}]")
        if c.is_zero:
            self.data.pop((n, d), None)
        else:
            self.data[(n, d)] = c

    def add_to(self, n: int, d: Deg, c):
        cur = self.data.get((n, d))
        self.set(n, d, c if cur is None else cur + c)

    def get(self, n: int, d: Deg):
        return self.data.get((n, d), self.zero())

    def items(self) -> Iterable[Tuple[Key, object]]:
        return self.data.items()

    @property
    def is_zero(self) -> bool:
        return not self.data

    def copy_window(self, zmin: int, zmax: int, dmax: int):
        """The coefficients that lie in the window (zmin, zmax, dmax)."""
        out = self._empty(zmin, zmax, dmax)
        for (n, d), c in self.data.items():
            if out.inside(n, d):
                out.set(n, d, c)
        return out

    def map(self, fn: Callable):
        """The series with coefficients fn(n, d, c), on the same window."""
        out = self._empty(self.zmin, self.zmax, self.dmax)
        for (n, d), c in self.data.items():
            out.set(n, d, fn(n, d, c))
        return out

    # -- linear structure

    def _sum_empty(self, o):
        """The empty series on the window where self + o is known."""
        return self._empty(min(self.zmin, o.zmin), min(self.zmax, o.zmax),
                           min(self.dmax, o.dmax))

    def _combine(self, o, negate: bool):
        out = self._sum_empty(o)
        for src, neg in ((self, False), (o, negate)):
            for (n, d), c in src.data.items():
                if out.inside(n, d):
                    out.add_to(n, d, -c if neg else c)
        return out

    def __add__(self, o):
        return self._combine(o, False)

    def __sub__(self, o):
        return self._combine(o, True)

    def __neg__(self):
        return self.map(lambda n, d, c: -c)

    def product(self, o, mul: Callable):
        """self * o with coefficient product mul(self's, o's).

        The result is known from zmin + o.zmin up to the first power an
        unknown tail reaches: one factor's tail (above its zmax) times the
        other's lowest power.  Each factor has zmin <= zmax, so that window
        is never empty.
        """
        zmax = min(self.zmax + o.zmin, o.zmax + self.zmin)
        out = self._empty(self.zmin + o.zmin, zmax, min(self.dmax, o.dmax))
        out.data = window_product(self.data, o.data, mul, out.inside)
        return out

    def scale(self, s):
        s = sc(s)
        return self.map(lambda n, d, c: self._times(c, s))

    def nonequiv_limit(self):
        return self.map(lambda n, d, c: c.nonequiv_limit())

    def __repr__(self):
        rows = ", ".join(f"z^{n} Q^{list(d)}: {c!r}" for (n, d), c in sorted(self.data.items()))
        return f"{type(self).__name__}[{self.zmin}..{self.zmax}, d<={self.dmax}]({rows})"


class TruncSeries(WindowedSeries):
    """A WindowedSeries over Scalar, with Novikov degrees of length ``rank``."""

    __slots__ = ("rank",)

    def __init__(self, rank: int, zmin: int, zmax: int, dmax: int,
                 data: Optional[Dict[Key, Scalar]] = None):
        self.rank = rank
        super().__init__(zmin, zmax, dmax, data)

    def _empty(self, zmin: int, zmax: int, dmax: int) -> "TruncSeries":
        return TruncSeries(self.rank, zmin, zmax, dmax)

    def zero(self) -> Scalar:
        return SCALAR_ZERO

    @staticmethod
    def _times(c: Scalar, s: Scalar) -> Scalar:
        return c * s

    def set(self, n: int, d: Deg, c: Scalar):
        if len(d) != self.rank:
            raise ValueError(f"Novikov degree {d} has wrong rank (expected {self.rank})")
        WindowedSeries.set(self, n, d, c)

    @staticmethod
    def from_scalar(c, rank: int = 1, zmin: int = 0, zmax: int = 0, dmax: int = 0) -> "TruncSeries":
        s = TruncSeries(rank, zmin, zmax, dmax)
        s.set(0, zero_deg(rank), sc(c))
        return s

    @staticmethod
    def one(rank: int = 1, zmin: int = 0, zmax: int = 0, dmax: int = 0) -> "TruncSeries":
        return TruncSeries.from_scalar(SCALAR_ONE, rank, zmin, zmax, dmax)

    def __mul__(self, o: "TruncSeries") -> "TruncSeries":
        if self.rank != o.rank:
            raise ValueError("rank mismatch")
        return self.product(o, operator.mul)

    def __eq__(self, o) -> bool:
        if not isinstance(o, TruncSeries):
            return NotImplemented
        return self.rank == o.rank and self.data == o.data


def series_invert(a: TruncSeries) -> TruncSeries:
    """Multiplicative inverse at the declared truncation, on the window (0, zmax, dmax).

    Requires the (d=0, z=0) coefficient c0 invertible and no content below
    z^0 (the inverse of a series with a genuine z-pole is not a truncated
    power series in this ring).  b = 1/a solves sum_j a_j b_(k-j) = [k = 0]
    key by key, b_0 = 1/c0 and

        b_k = -(1/c0) sum_{j != 0} a_j b_(k-j),

    over the keys k = (n, d) of the window in order of weight n + |d|: each
    j != 0 has weight >= 1 (no z-power below 0, Novikov degrees >= 0), so
    every b_(k-j) is known when b_k is solved.  For K keys that is at most
    K^2 scalar products, where the geometric series sum_i (1 - a/c0)^i
    takes dmax + zmax series products and as many sums.
    """
    d0 = zero_deg(a.rank)
    c0 = a.get(0, d0)
    if c0.is_zero or not c0.is_invertible:
        raise NonUnitConstantTerm("constant term is zero or not invertible")
    if any(n < 0 for (n, _d) in a.data):
        raise NonUnitConstantTerm("cannot invert a series with negative z-powers")
    inv0 = c0.inverse()
    minus_inv0 = -inv0
    rest = [(n, d, c) for (n, d), c in a.data.items() if (n, d) != (0, d0)]
    out = TruncSeries(a.rank, 0, a.zmax, a.dmax, {(0, d0): inv0})
    b = out.data
    keys = sorted(((n, d) for n in range(a.zmax + 1)
                   for d in product(range(a.dmax + 1), repeat=a.rank) if sum(d) <= a.dmax),
                  key=lambda k: k[0] + sum(k[1]))
    for n, d in keys[1:]:
        acc = None
        for jn, jd, c in rest:
            bk = b.get((n - jn, tuple(x - y for x, y in zip(d, jd))))
            if bk is not None:
                acc = c * bk if acc is None else acc + c * bk
        if acc is not None and not acc.is_zero:
            b[(n, d)] = acc * minus_inv0
    return out
