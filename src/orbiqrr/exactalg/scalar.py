"""Scalars: Laurent polynomials in lambda^(1/m) over Q(zeta_N), with powers of
l = ln(lambda), a formal symbol.

Every scalar of the twisted theory has this form: s_0 = l and
s_k ~ lambda^-k, the factors prod(lambda + rho + kz) are polynomial in
lambda, and e_lambda(F)^-1 = lambda^-1 sum_j (-rho/lambda)^j is finite
because rho is nilpotent.

A Scalar holds its root index m (``lam_den``) and ``parts``: per power
l^0, l^1, ... one Laurent polynomial in u = lambda^(1/m), stored as
(shift, coefficients), the value sum_i c_i u^(shift + i).  A coefficient is
a Fraction exactly when it is rational and a ``Cyc`` of order > 1
otherwise.  The end coefficients of a part are nonzero, a zero part is
(0, ()), and the top part is not zero.  m is minimal, gcd(m, every exponent
present) = 1: fractional lambda powers (square roots of Euler twists,
exp(l * (l_i/r_i - 1/2)) factors) lift m, and a result that is a Laurent
polynomial in lambda drops back to m = 1.

That form is canonical up to its ``Cyc`` coefficients, which have no
canonical form across conductors: ``==`` compares it, and ``to_obj`` and
the hash are read off it.  A plain rational is the part (0, (q,)) at m = 1,
and it also keeps its Fraction in ``_q`` (None on every other value), so
two rationals combine in one call of the rational kernel in ``rational``,
compare as Fractions and hash as their Fraction.  Coefficients combine
with that kernel when both are rational, and with ``Cyc`` arithmetic
otherwise (a rational factor scales the residue, ``Cyc.scaled``).  Sums
align two parts at the lower shift; products convolve them, the left index
outermost, and add the product of the l^i and l^j parts into l^(i+j).
Only a monomial c u^e (one part, one coefficient) is invertible.

``to_obj`` prints a part as {"num", "den"} over the monic denominator u^b:
a part with shift s >= 0 is u^s times its coefficients over 1, one with
s < 0 is its coefficients over u^-s.  ``parse_scalar`` reads outside JSON
through ``RatFunc``, the reduced fraction of Cyc-polynomials in u, and
refuses a reduced denominator that is not c u^b; ``Scalar.ell`` is the
read-only view of a value as one such fraction per power of l.

One singleton for 1 and one for 0: every result equal to 1 is
``SCALAR_ONE``, and a product with it returns the other operand.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd
from typing import List, Optional, Sequence, Tuple

from ..errors import ExpObstruction, LogObstruction, NonInvertible, PoleAtZero, SchemaError
from ..jsonread import array, integer, mapping, only, rational, required
from . import poly
from .cyclotomic import CYC_ONE, CYC_ZERO, Cyc
from .rational import q_add, q_div, q_mul, q_neg, q_sub

Frac = Fraction
_ZERO, _ONE = Frac(0), Frac(1)

Part = Tuple[int, tuple]          # (shift, coefficients): sum_i c_i u^(shift + i)
_PZERO: Part = (0, ())


def _cgcd(a: Sequence[Cyc], b: Sequence[Cyc]) -> List[Cyc]:
    """Monic gcd of two Cyc-polynomials in u (empty when both are zero)."""
    r0, r1 = poly.strip(list(a)), poly.strip(list(b))
    while r1:
        _, r = poly.divmod(r0, r1, r1[-1].inverse(), CYC_ZERO)
        r0, r1 = r1, r
    if r0:
        inv_lead = r0[-1].inverse()
        r0 = [c * inv_lead for c in r0]
    return r0


class RatFunc:
    """Reduced fraction num/den of Cyc-polynomials in u, den monic and coprime
    to num: the normal form outside JSON is read through, and the read-only
    ``Scalar.ell`` view.  It has no arithmetic.

    A monomial denominator c u^b is reduced without the Euclidean gcd: u is
    irreducible, so the monic gcd of c u^b and u^v q(u) with q(0) != 0 is
    u^min(b, v), and the constructor drops that power from both sides and
    divides by c.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence[Cyc], den: Sequence[Cyc], _reduced: bool = False):
        if _reduced:
            self.num = tuple(num)
            self.den = tuple(den)
            return
        num = poly.strip(list(num))
        den = poly.strip(list(den))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self.num, self.den = (), (CYC_ONE,)
            return
        b = len(den) - 1
        if all(c.is_zero for c in den[:b]):
            # den = c u^b: the monic gcd is u^m, m = min(b, ord_u num)
            m = next((v for v, c in enumerate(num[:b]) if not c.is_zero), b)
            inv_lead = den[-1].inverse()
            self.num = tuple(c * inv_lead for c in num[m:])
            self.den = (CYC_ZERO,) * (b - m) + (CYC_ONE,)
            return
        g = _cgcd(num, den)
        if len(g) > 1:
            num, _ = poly.divmod(num, g, CYC_ONE, CYC_ZERO)   # g is monic
            den, _ = poly.divmod(den, g, CYC_ONE, CYC_ZERO)
        inv_lead = den[-1].inverse()
        self.num = tuple(c * inv_lead for c in num)
        self.den = tuple(c * inv_lead for c in den)


class Scalar:
    """Root index ``lam_den`` and one Laurent part per power of l (see the
    module docstring); ``_q`` is the Fraction of a plain rational, else None.
    Build values with the constructors below, never with the class."""

    __slots__ = ("lam_den", "parts", "_q")

    # -- constructors

    @staticmethod
    def from_fraction(x) -> "Scalar":
        return _from_q(Frac(x))

    @staticmethod
    def from_cyc(c: Cyc) -> "Scalar":
        if c.order == 1:
            return _from_q(c.coeffs[0])
        return _new(1, ((0, (c,)),))

    @staticmethod
    def lam(power=1) -> "Scalar":
        """lambda**power for a rational power."""
        power = Frac(power)
        if power == 0:
            return SCALAR_ONE
        return _new(power.denominator, ((power.numerator, (_ONE,)),))

    @staticmethod
    def log_lambda() -> "Scalar":
        """The formal symbol l = ln(lambda)."""
        return _new(1, (_PZERO, (0, (_ONE,))))

    # -- structure

    @property
    def is_zero(self) -> bool:
        q = self._q
        return q is not None and not q._numerator

    @property
    def is_invertible(self) -> bool:
        """True exactly for a monomial c u^e: one part with one coefficient."""
        parts = self.parts
        return len(parts) == 1 and len(parts[0][1]) == 1

    def is_rational(self) -> bool:
        return self._q is not None

    @property
    def is_laurent(self) -> bool:
        """True when the value lies in Q[lambda, 1/lambda] (rationals and zero included)."""
        if self._q is not None:
            return True
        parts = self.parts
        return (len(parts) == 1 and self.lam_den == 1
                and all(type(c) is Frac for c in parts[0][1]))

    def as_fraction(self) -> Frac:
        if self._q is None:
            raise ValueError(f"not a plain rational: {self!r}")
        return self._q

    @property
    def ell(self) -> Tuple[RatFunc, ...]:
        """The value as one RatFunc over the monic u^b per power of l (a view)."""
        return tuple(RatFunc(*[[_cyc(c) for c in side] for side in _num_den(p)], _reduced=True)
                     for p in self.parts)

    # -- arithmetic

    def __add__(self, o: "Scalar") -> "Scalar":
        p = self._q
        if p is not None:
            if not p._numerator:
                return o         # zero plus anything is that thing, a non-Scalar too
            q = o._q
            if q is not None:
                return _from_q(q_add(p, q)) if q._numerator else self
        elif o.is_zero:
            return self
        m, x, y = _common(self, o)
        return _build([_padd(a, b) for a, b in zip_longest(x, y, fillvalue=_PZERO)], m)

    def __neg__(self) -> "Scalar":
        if self._q is not None:
            return _from_q(q_neg(self._q))
        return _new(self.lam_den, tuple((s, tuple(q_neg(c) if type(c) is Frac else -c
                                                  for c in cs)) for s, cs in self.parts))

    def __sub__(self, o: "Scalar") -> "Scalar":
        p, q = self._q, o._q
        if p is not None and q is not None:
            return _from_q(q_sub(p, q))
        return self + (-o)

    def __mul__(self, o: "Scalar") -> "Scalar":
        if self is SCALAR_ONE:
            return o
        if o is SCALAR_ONE:
            return self
        p, q = self._q, o._q
        if p is not None:
            if q is not None:
                return _from_q(q_mul(p, q))
            return o._scaled(p) if p._numerator else SCALAR_ZERO
        if q is not None:
            return self._scaled(q) if q._numerator else SCALAR_ZERO
        m, x, y = _common(self, o)
        if len(x) == 1 and len(y) == 1:
            return _build([_pmul(x[0], y[0])], m)
        out: List[Part] = []
        for i, a in enumerate(x):
            if not a[1]:
                continue
            for j, b in enumerate(y):
                if not b[1]:
                    continue
                k = i + j
                out += [_PZERO] * (k + 1 - len(out))
                out[k] = _padd(out[k], _pmul(a, b))
        return _build(out, m)

    def scaled(self, q) -> "Scalar":
        """self * q for an int or Fraction q, without building a Scalar for q."""
        if type(q) is not Frac:
            q = Frac(q)
        n = q._numerator
        if (n == 1 and q._denominator == 1) or self.is_zero:
            return self
        if not n:
            return SCALAR_ZERO
        return self._scaled(q)

    def _scaled(self, q: Frac) -> "Scalar":
        """self * q for a nonzero self and a nonzero rational q: one kernel
        product per coefficient, a Cyc residue scaled entry by entry."""
        p = self._q
        if p is not None:
            return _from_q(q_mul(p, q))
        return _new(self.lam_den, tuple((s, tuple(q_mul(c, q) if type(c) is Frac else c.scaled(q)
                                                  for c in cs)) for s, cs in self.parts))

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise NonInvertible("division by zero scalar")
        if self._q is not None:
            return _from_q(q_div(_ONE, self._q))
        if len(self.parts) != 1:
            raise NonInvertible("scalar with log-lambda terms is not invertible")
        s, cs = self.parts[0]
        if len(cs) != 1:
            raise NonInvertible(f"only a monomial c*lambda^(a/m) is invertible, "
                                f"not {self.to_obj()}")
        c = cs[0]
        return _new(self.lam_den, ((-s, (q_div(_ONE, c) if type(c) is Frac else c.inverse(),)),))

    def __truediv__(self, o: "Scalar") -> "Scalar":
        p, q = self._q, o._q
        # a zero divisor goes on to inverse, which raises
        if p is not None and q is not None and q._numerator:
            return _from_q(q_div(p, q))
        return self * o.inverse()

    def __pow__(self, n: int) -> "Scalar":
        return poly.power(self, n, SCALAR_ONE, Scalar.inverse)

    def __eq__(self, o) -> bool:
        if isinstance(o, Scalar):
            p = self._q
            if p is not None or o._q is not None:
                return p == o._q
            return self.lam_den == o.lam_den and self.parts == o.parts
        if isinstance(o, (int, Fraction)):
            return self._q == o
        return NotImplemented

    def __hash__(self):
        q = self._q
        return hash(q) if q is not None else hash((self.lam_den, self.parts))

    # -- limits and special maps

    def nonequiv_limit(self) -> "Scalar":
        """Substitute lambda = 0 exactly: sum_i c_i u^(s + i) with c_0 != 0 goes
        to 0 for s > 0, to c_0 for s = 0, and has a pole for s < 0."""
        if self._q is not None:
            return self
        if len(self.parts) > 1:
            raise LogObstruction("ln(lambda) survives at lambda = 0")
        s, cs = self.parts[0]
        if s > 0:
            return SCALAR_ZERO
        if s < 0:
            raise PoleAtZero("pole at lambda = 0")
        c = cs[0]
        return _from_q(c) if type(c) is Frac else _new(1, ((0, (c,)),))

    def exp(self) -> "Scalar":
        """exp(self), defined for rational multiples of l = ln(lambda): exp(a*l) = lambda^a."""
        if self.is_zero:
            return SCALAR_ONE
        parts = self.parts
        if len(parts) > 2:
            raise ExpObstruction("exp only defined for a * ln(lambda)")
        if parts[0][1]:
            raise ExpObstruction("exp of a nonzero constant is transcendental")
        s, cs = parts[1]
        if s or len(cs) != 1 or type(cs[0]) is not Frac:
            raise ExpObstruction("exp needs a rational multiple of ln(lambda)")
        return Scalar.lam(cs[0])

    # -- serialization

    def to_obj(self):
        """Canonical JSON-ready form; plain rationals collapse to 'p/q' strings."""
        if self._q is not None:
            return str(self._q)
        if len(self.parts) == 1:
            obj = _part_obj(self.parts[0])
        else:
            obj = {"ell": [_part_obj(p) for p in self.parts]}
        if self.lam_den != 1:
            obj["lam_den"] = self.lam_den
        return obj

    def __repr__(self) -> str:
        return f"Scalar({self.to_obj()!r})"


# -- coefficients: a Fraction when rational, else a Cyc of order > 1 -----------

def _cyc(c) -> Cyc:
    return c if type(c) is Cyc else Cyc(1, (c,), _reduced=True)


def _coeff(c: Cyc):
    return c.coeffs[0] if c.order == 1 else c


def _cadd(a, b):
    if not a:
        return b
    if not b:
        return a
    if type(a) is Frac and type(b) is Frac:
        return q_add(a, b)
    return _coeff(_cyc(a) + _cyc(b))


def _cmul(a, b):
    """a * b for nonzero a and b."""
    if type(a) is Frac:
        return q_mul(a, b) if type(b) is Frac else b.scaled(a)
    if type(b) is Frac:
        return a.scaled(b)
    return _coeff(a * b)


# -- parts ---------------------------------------------------------------------

def _padd(x: Part, y: Part) -> Part:
    """x + y over the lower shift, zeros dropped at both ends.  Two monomials
    take one coefficient sum at equal shifts and none at different ones."""
    (s, a), (t, b) = x, y
    if not a:
        return y
    if not b:
        return x
    if s > t:
        (s, a), (t, b) = y, x
    if len(a) == 1 and len(b) == 1:
        if s < t:
            return s, a + (_ZERO,) * (t - s - 1) + b
        c = _cadd(a[0], b[0])
        return (s, (c,)) if c else _PZERO
    out = list(a) + [_ZERO] * (t + len(b) - s - len(a))
    for i, c in enumerate(b, t - s):
        out[i] = _cadd(out[i], c)
    lo, hi = 0, len(out)
    while hi and not out[hi - 1]:
        hi -= 1
    while lo < hi and not out[lo]:
        lo += 1
    return (s + lo, tuple(out[lo:hi])) if lo < hi else _PZERO


def _pmul(x: Part, y: Part) -> Part:
    """x * y for nonzero parts: the end coefficients are nonzero, so are their
    products, and nothing is trimmed."""
    (s, a), (t, b) = x, y
    if len(a) == 1 and len(b) == 1:
        return s + t, (_cmul(a[0], b[0]),)
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b, i):
            if cb:
                out[j] = _cadd(out[j], _cmul(ca, cb))
    return s + t, tuple(out)


def _common(a: Scalar, b: Scalar) -> Tuple[int, tuple, tuple]:
    """The parts of a and b at the lcm of their root indices."""
    m, n = a.lam_den, b.lam_den
    if m == n:
        return m, a.parts, b.parts
    k = m * n // gcd(m, n)
    return k, _lift(a.parts, k // m), _lift(b.parts, k // n)


def _lift(parts: tuple, k: int) -> tuple:
    """The parts at k times the root index: u -> u^k."""
    return tuple((s * k, tuple(poly.stretch(cs, k, _ZERO))) for s, cs in parts)


def _num_den(part: Part) -> Tuple[tuple, tuple]:
    """A part as numerator and denominator over the monic u^b: u^s times the
    coefficients over 1 for s >= 0, the coefficients over u^-s for s < 0."""
    s, cs = part
    if s >= 0:
        return (_ZERO,) * s + cs, (_ONE,)
    return cs, (_ZERO,) * -s + (_ONE,)


def _coeff_obj(c):
    if type(c) is Frac:
        return str(c)
    return {"zeta": c.order, "c": [str(x) for x in c.coeffs]}


def _part_obj(part: Part) -> dict:
    num, den = _num_den(part)
    return {"num": [_coeff_obj(c) for c in num], "den": [_coeff_obj(c) for c in den]}


# -- building values ------------------------------------------------------------

def _new(m: int, parts: tuple) -> Scalar:
    """The Scalar of canonical parts at a minimal root index, not a rational."""
    out = object.__new__(Scalar)
    out.lam_den = m
    out.parts = parts
    out._q = None
    return out


def _from_q(q: Frac) -> Scalar:
    """The Scalar of a Fraction; 0 and 1 return the singletons."""
    n = q._numerator
    if not n:
        return SCALAR_ZERO
    if n == 1 and q._denominator == 1:
        return SCALAR_ONE
    out = object.__new__(Scalar)     # _new inlined: this is every rational result
    out.lam_den = 1
    out.parts = ((0, (q,)),)
    out._q = q
    return out


def _build(parts: List[Part], m: int) -> Scalar:
    """The Scalar of parts with nonzero ends at root index m: zero parts
    dropped from the top, m divided by the gcd of m and every exponent."""
    while parts and not parts[-1][1]:
        parts.pop()
    if not parts:
        return SCALAR_ZERO
    if m > 1:
        g = m
        for s, cs in parts:
            if cs:
                g = poly.exponent_gcd(cs, gcd(g, s))
        if g > 1:
            parts = [(s // g, cs[::g]) for s, cs in parts]
            m //= g
    if len(parts) == 1:
        s, cs = parts[0]
        if not s and len(cs) == 1 and type(cs[0]) is Frac:
            return _from_q(cs[0])
    return _new(m, tuple(parts))


SCALAR_ZERO = _new(1, ())
SCALAR_ZERO._q = _ZERO
SCALAR_ONE = _new(1, ((0, (_ONE,)),))
SCALAR_ONE._q = _ONE


def sc(x) -> Scalar:
    """Coerce ints/Fractions/Scalars to Scalar."""
    if isinstance(x, Scalar):
        return x
    return Scalar.from_fraction(x)


def root_of_unity(n: int, k: int) -> Scalar:
    """zeta_n^k in canonical cyclotomic form."""
    return Scalar.from_cyc(Cyc.root_of_unity(n, k))


# -- parsing -----------------------------------------------------------------

def _parse_cyc(obj, path: str, zeta_period) -> Cyc:
    if not isinstance(obj, dict):
        return Cyc.from_fraction(rational(obj, path))
    only(obj, ("zeta", "c"), path)
    order = integer(required(obj, "zeta", path), f"{path}.zeta", 1)
    coeffs = [rational(x, f"{path}.c[{i}]")
              for i, x in enumerate(array(required(obj, "c", path), f"{path}.c"))]
    if zeta_period is not None and zeta_period % order:
        raise SchemaError(f"{path}.zeta: expected an order dividing {zeta_period}, got {order}")
    return Cyc(order, coeffs)


def _parse_part(obj, path: str, zeta_period, extra=()) -> Part:
    """One l-part: a 'p/q' string, or num/den read through RatFunc, whose
    reduced denominator must be a monomial c u^b."""
    if isinstance(obj, str) and "|" not in obj:
        q = rational(obj, path)
        return (0, (q,)) if q else _PZERO
    if isinstance(obj, str):
        num, den = ([Cyc.from_fraction(rational(t, path)) for t in part.split(",") if t.strip()]
                    for part in obj.split("|", 1))
    else:
        only(mapping(obj, path), ("num", "den") + extra, path)
        num, den = ([_parse_cyc(c, f"{path}.{key}[{i}]", zeta_period)
                     for i, c in enumerate(array(required(obj, key, path), f"{path}.{key}"))]
                    for key in ("num", "den"))
    if all(c.is_zero for c in den):
        raise SchemaError(f"{path}: the denominator is zero")
    rf = RatFunc(num, den)
    if any(rf.den[:-1]):
        raise SchemaError(f"{path}: the reduced denominator is not a monomial c*lambda^(b/m)")
    if not rf.num:
        return _PZERO
    low = next(i for i, c in enumerate(rf.num) if c)
    return low + 1 - len(rf.den), tuple(_coeff(c) for c in rf.num[low:])


def parse_scalar(obj, path: str = "$", zeta_period: Optional[int] = None) -> Scalar:
    """Parse 'p/q', 'n0,n1,...|d0,d1,...' (lambda polys, lowest first), a JSON
    integer or the to_obj() form; anything else is a SchemaError naming
    ``path`` or the field below it that fails.

    The dict form is {"num", "den", "lam_den"?} or {"ell", "lam_den"?} and
    has no other key.  ``num``, ``den``, ``ell`` and a zeta's ``c`` are JSON
    lists, each entry of ``c`` is a 'p/q' string or a JSON integer, and
    ``lam_den`` (1 when absent) and ``zeta`` are JSON integers >= 1.  With
    ``zeta_period`` a zeta order must divide it, checked before the
    cyclotomic polynomial of that order is built.  Each num/den is reduced
    by its gcd, and a reduced denominator that is not c*u^b,
    u = lambda^(1/lam_den), is a SchemaError: '1,1|1,1' reads 1 and '1|1,1'
    is refused.
    """
    if isinstance(obj, Scalar):
        return obj
    if type(obj) is int:                # not a bool
        return Scalar.from_fraction(obj)
    if isinstance(obj, str):
        return _build([_parse_part(obj, path, zeta_period)], 1)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a scalar ('p/q', 'n0,...|d0,...', an integer "
                          f"or an object), got {obj!r}")
    lam_den = integer(obj.get("lam_den", 1), f"{path}.lam_den", 1)
    if "ell" in obj:
        only(obj, ("ell", "lam_den"), path)
        return _build([_parse_part(p, f"{path}.ell[{i}]", zeta_period)
                       for i, p in enumerate(array(obj["ell"], f"{path}.ell"))], lam_den)
    return _build([_parse_part(obj, path, zeta_period, ("lam_den",))], lam_den)
