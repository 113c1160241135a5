"""Scalars: finite sums of monomials c l^i lambda^e over Q(zeta_N), with
l = ln(lambda) a formal symbol, i >= 0 and e rational.

Every scalar of the twisted theory has this form: s_0 = l and
s_k ~ lambda^-k, the factors prod(lambda + rho + kz) are polynomial in
lambda, and e_lambda(F)^-1 = lambda^-1 sum_j (-rho/lambda)^j is finite
because rho is nilpotent.

A Scalar holds ``terms``, the dict {(i, e): c} of its nonzero monomials:
c is the coefficient of l^i lambda^e, a Fraction exactly when it is
rational and a ``Cyc`` of order > 1 otherwise, and e is an int when it is
integral, else a Fraction.  The root index m (``lam_den``), the lcm of the
exponents' denominators, is read off the keys and never stored, so
fractional powers (square roots of Euler twists, exp(l * (l_i/r_i - 1/2))
factors) come and go with no index to lift or reduce.

That form is canonical up to its ``Cyc`` coefficients, which have no
canonical form across conductors: ``==`` compares it, and ``to_obj`` and
the hash are read off it.  A plain rational q is the map {(0, 0): q}, zero
the empty map, and a rational also keeps its Fraction in ``_q`` (None on
every other value), so two rationals combine in one call of the rational
kernel in ``rational``, compare as Fractions and hash as their Fraction.
Coefficients combine with that kernel when both are rational, and with
``Cyc`` arithmetic otherwise (a rational factor scales the residue,
``Cyc.scaled``).  A sum merges the two maps, the right coefficient added
onto the left one; a product adds c d into the key (i + j, e + f) for each
pair of terms, the left terms outermost, and drops what cancels.  Only a
monomial c lambda^e (one term, no l) is invertible.

``to_obj`` prints each power of l, from l^0 to the highest, in
u = lambda^(1/m): its coefficients from its lowest exponent s to its
highest, zeros filled in, as {"num", "den"} over the monic denominator
u^b, u^s times them over 1 when s >= 0 and them over u^-s when s < 0.
``parse_scalar`` reads outside JSON through ``RatFunc``, the reduced
fraction of Cyc-polynomials in u, and refuses a reduced denominator that
is not c u^b; ``Scalar.ell`` is the read-only view of a value as one such
fraction per power of l.

One singleton for 1 and one for 0: every result equal to 1 is
``SCALAR_ONE``, and a product with it returns the other operand.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExpObstruction, LogObstruction, NonInvertible, PoleAtZero, SchemaError
from ..jsonread import array, integer, mapping, only, rational, required
from . import poly
from .cyclotomic import CYC_ONE, CYC_ZERO, Cyc
from .rational import q_add, q_div, q_mul, q_neg, q_sub

Frac = Fraction
_ZERO, _ONE = Frac(0), Frac(1)
_KEY0 = (0, 0)                    # the key of l^0 lambda^0

Part = Tuple[int, tuple]          # (shift, coefficients): sum_k c_k u^(shift + k)


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
    """The map ``terms`` {(i, e): c} of a value's monomials c l^i lambda^e (see
    the module docstring); ``_q`` is the Fraction of a plain rational, else
    None.  Build values with the constructors below, never with the class."""

    __slots__ = ("terms", "_q")

    # -- constructors

    @staticmethod
    def from_fraction(x) -> "Scalar":
        return _from_q(Frac(x))

    @staticmethod
    def from_cyc(c: Cyc) -> "Scalar":
        if c.order == 1:
            return _from_q(c.coeffs[0])
        return _new({_KEY0: c})

    @staticmethod
    def lam(power=1) -> "Scalar":
        """lambda**power for a rational power."""
        power = Frac(power)
        if power == 0:
            return SCALAR_ONE
        return _new({(0, _exponent(power)): _ONE})

    @staticmethod
    def log_lambda() -> "Scalar":
        """The formal symbol l = ln(lambda)."""
        return _new({(1, 0): _ONE})

    # -- structure

    @property
    def is_zero(self) -> bool:
        q = self._q
        return q is not None and not q._numerator

    @property
    def is_invertible(self) -> bool:
        """True exactly for a monomial c lambda^e: one term, without l."""
        terms = self.terms
        return len(terms) == 1 and not next(iter(terms))[0]

    def is_rational(self) -> bool:
        return self._q is not None

    def as_fraction(self) -> Frac:
        if self._q is None:
            raise ValueError(f"not a plain rational: {self!r}")
        return self._q

    @property
    def lam_den(self) -> int:
        """The root index m: the lcm of the denominators of the exponents (a view)."""
        m = 1
        for _, e in self.terms:
            if type(e) is not int:
                m = lcm(m, e._denominator)
        return m

    @property
    def ell(self) -> Tuple[RatFunc, ...]:
        """The value as one RatFunc over the monic u^b per power of l (a view)."""
        return tuple(RatFunc(*[[_cyc(c) for c in side] for side in _num_den(p)], _reduced=True)
                     for p in _parts(self.terms, self.lam_den))

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
        out = dict(self.terms)
        for key, c in o.terms.items():
            if key in out:
                c = _cadd(out[key], c)
                if not c:
                    del out[key]
                    continue
            out[key] = c
        return _make(out)

    def __neg__(self) -> "Scalar":
        if self._q is not None:
            return _from_q(q_neg(self._q))
        return _new({k: q_neg(c) if type(c) is Frac else -c for k, c in self.terms.items()})

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
        out: Dict = {}
        for (i, e), a in self.terms.items():
            for (j, f), b in o.terms.items():
                key, c = (i + j, _esum(e, f)), _cmul(a, b)
                out[key] = _cadd(out[key], c) if key in out else c
        return _make({k: c for k, c in out.items() if c})

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
        return _new({k: q_mul(c, q) if type(c) is Frac else c.scaled(q)
                     for k, c in self.terms.items()})

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise NonInvertible("division by zero scalar")
        if self._q is not None:
            return _from_q(q_div(_ONE, self._q))
        terms = self.terms
        if any(i for i, _ in terms):
            raise NonInvertible("scalar with log-lambda terms is not invertible")
        if len(terms) != 1:
            raise NonInvertible(f"only a monomial c*lambda^(a/m) is invertible, "
                                f"not {self.to_obj()}")
        ((_, e), c), = terms.items()
        return _new({(0, -e): q_div(_ONE, c) if type(c) is Frac else c.inverse()})

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
            return self.terms == o.terms
        if isinstance(o, (int, Fraction)):
            return self._q == o
        return NotImplemented

    def __hash__(self):
        q = self._q
        return hash(q) if q is not None else hash(frozenset(self.terms.items()))

    # -- limits and special maps

    def nonequiv_limit(self) -> "Scalar":
        """Substitute lambda = 0 exactly: the lambda^0 coefficient when every
        exponent is >= 0, a pole when one is negative."""
        if self._q is not None:
            return self
        terms = self.terms
        if any(i for i, _ in terms):
            raise LogObstruction("ln(lambda) survives at lambda = 0")
        if min(e for _, e in terms) < 0:
            raise PoleAtZero("pole at lambda = 0")
        c = terms.get(_KEY0)
        if c is None:
            return SCALAR_ZERO
        return _from_q(c) if type(c) is Frac else _new({_KEY0: c})

    def exp(self) -> "Scalar":
        """exp(self), defined for rational multiples of l = ln(lambda): exp(a*l) = lambda^a."""
        if self.is_zero:
            return SCALAR_ONE
        terms = self.terms
        if any(i > 1 for i, _ in terms):
            raise ExpObstruction("exp only defined for a * ln(lambda)")
        if any(not i for i, _ in terms):
            raise ExpObstruction("exp of a nonzero constant is transcendental")
        c = terms.get((1, 0))
        if len(terms) != 1 or type(c) is not Frac:
            raise ExpObstruction("exp needs a rational multiple of ln(lambda)")
        return Scalar.lam(c)

    # -- serialization

    def to_obj(self):
        """Canonical JSON-ready form; plain rationals collapse to 'p/q' strings."""
        if self._q is not None:
            return str(self._q)
        m = self.lam_den
        parts = _parts(self.terms, m)
        if len(parts) == 1:
            obj = _part_obj(parts[0])
        else:
            obj = {"ell": [_part_obj(p) for p in parts]}
        if m != 1:
            obj["lam_den"] = m
        return obj

    def __repr__(self) -> str:
        return f"Scalar({self.to_obj()!r})"


# -- coefficients: a Fraction when rational, else a Cyc of order > 1 -----------

def _cyc(c) -> Cyc:
    return c if type(c) is Cyc else Cyc(1, (c,), _reduced=True)


def _coeff(c: Cyc):
    return c.coeffs[0] if c.order == 1 else c


def _cadd(a, b):
    """a + b for nonzero a and b; a zero sum is the Fraction 0."""
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


# -- exponents: an int when integral, else a Fraction ---------------------------

def _exponent(e: Frac):
    return e._numerator if e._denominator == 1 else e


def _esum(e, f):
    if type(e) is int and type(f) is int:
        return e + f
    return _exponent(q_add(e, f) if type(e) is type(f) else e + f)


# -- the JSON form ----------------------------------------------------------------

def _parts(terms: dict, m: int) -> List[Part]:
    """Per power of l, from l^0 to the highest, the coefficients of u = lambda^(1/m)
    from the lowest exponent s to the highest, zeros filled in, as (s, coefficients);
    (0, ()) for a power of l without terms, and no part for zero."""
    rows: List[dict] = []
    for (i, e), c in terms.items():
        while len(rows) <= i:
            rows.append({})
        rows[i][e * m if type(e) is int else e._numerator * (m // e._denominator)] = c
    out = []
    for row in rows:
        if len(row) == 1:
            for k, c in row.items():
                out.append((k, (c,)))
        elif row:
            lo = min(row)
            out.append((lo, tuple(row.get(k, _ZERO) for k in range(lo, max(row) + 1))))
        else:
            out.append((0, ()))
    return out


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

def _new(terms: dict) -> Scalar:
    """The Scalar of a map of nonzero terms that is not a rational."""
    out = object.__new__(Scalar)
    out.terms = terms
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
    out.terms = {_KEY0: q}
    out._q = q
    return out


def _make(terms: dict) -> Scalar:
    """The Scalar of a map of nonzero terms: a rational through ``_from_q``."""
    if len(terms) < 2:
        if not terms:
            return SCALAR_ZERO
        c = terms.get(_KEY0)
        if type(c) is Frac:
            return _from_q(c)
    return _new(terms)


SCALAR_ZERO = _new({})
SCALAR_ZERO._q = _ZERO
SCALAR_ONE = _new({_KEY0: _ONE})
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


def _parse_part(obj, path: str, zeta_period, extra=()) -> List[Tuple[int, object]]:
    """One l-part as its nonzero terms (exponent of u, coefficient): a 'p/q'
    string, or num/den read through RatFunc, whose reduced denominator must be
    a monomial c u^b."""
    if isinstance(obj, str) and "|" not in obj:
        q = rational(obj, path)
        return [(0, q)] if q else []
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
    b = len(rf.den) - 1
    return [(k - b, _coeff(c)) for k, c in enumerate(rf.num) if c]


def _from_parts(parts, m: int) -> Scalar:
    """The Scalar of l-parts, l^0 first, each a list of (exponent of u = lambda^(1/m),
    coefficient)."""
    return _make({(i, k if m == 1 else _exponent(Frac(k, m))): c
                  for i, part in enumerate(parts) for k, c in part})


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
        return _from_parts([_parse_part(obj, path, zeta_period)], 1)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a scalar ('p/q', 'n0,...|d0,...', an integer "
                          f"or an object), got {obj!r}")
    lam_den = integer(obj.get("lam_den", 1), f"{path}.lam_den", 1)
    if "ell" in obj:
        only(obj, ("ell", "lam_den"), path)
        return _from_parts([_parse_part(p, f"{path}.ell[{i}]", zeta_period)
                            for i, p in enumerate(array(obj["ell"], f"{path}.ell"))], lam_den)
    return _from_parts([_parse_part(obj, path, zeta_period, ("lam_den",))], lam_den)
