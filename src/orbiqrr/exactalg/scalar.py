"""The scalar ring Q(zeta_N)(lambda^(1/m))[l], l = ln(lambda) a formal symbol.

A Scalar is a polynomial in the formal symbol ``l`` whose coefficients are
reduced fractions of polynomials in an internal variable u = lambda^(1/m).
Plain rationals are the m = 1, l-free, zeta-free special case and round-trip
unchanged.  Fractional lambda powers (from square roots of Euler twists and
from exp(l * (l_i/r_i - 1/2)) factors) are absorbed by lifting m; the root
index is reduced back out during normalization, so a quantity whose final
value is a genuine rational function of lambda reports lam_den == 1.

Every polynomial level (Cyc coefficients in u, RatFunc coefficients in l)
runs on the dense polynomial kernel in ``poly``.

Canonical form ``ell``: denominators are monic, num/den coprime, trailing
zero l-coefficients stripped, root index minimal.  Equality is syntactic on
the canonical form (after lifting both sides to a common root index and
cyclotomic order).  Hashes and serialisation are those of the canonical
form.

Two lanes short-cut the general path, and on them the lane holds the value.
Each operator tries the rational lane first, then the Laurent lane, then
(a product) the monomial rule below, then the general path.  A value the
general path or the monomial rule builds has its canonical form and fills
in its lanes from it.  A lane result holds only its lanes: its canonical
form is built from the Laurent lane the first time something reads ``ell``
(a hash, the general path, serialisation off the rational lane, ``exp``),
and kept.  The zero test, invertibility, the lambda -> 0
limit and every lane operator read the lanes only, so a chain of lane
arithmetic builds no RatFunc or Cyc at all.

Rational lane: a Scalar whose value is a plain rational (zero included)
holds that value as a Fraction.  When both operands hold one,
``+ - * / neg inverse`` and ``scaled`` take a single call of the rational
kernel in ``rational`` (the Fraction's integer parts, reduced by gcds,
with no second normalisation), ``==`` a single Fraction comparison; no
polynomial kernel call and no RatFunc or Cyc arithmetic.  The zero and one
tests of ``_from_q`` and ``is_zero`` read the Fraction's integer parts.
Results serialise as 'p/q'.  This covers every value of the untwisted
theory.

Laurent lane: a Scalar in Q[lambda, 1/lambda] (one l-part, root index 1,
a monic monomial denominator u^b and only rational Cyc coefficients; the
Euler twist's s_k ~ lambda^-k make most twisted values so) holds
(shift, coefficients): the value sum_i c_i lambda^(shift + i) with
Fraction c_i and c_0 != 0, (0, ()) for zero.  Rationals hold (0, (q,)).
When both operands hold one, ``+ - * neg ==`` run on the Fraction lists
(align the shifts, add or convolve with the polynomial kernel, trim zeros
at both ends), and so do ``inverse`` of a monomial and ``/`` by one.  Two
monomials (one coefficient each, most Laurent values of the twisted
theory) skip the lists: a product or an inverse is one rational-kernel
call, a sum one call at equal shifts and none at different ones.  A
product with a plain rational, ``scaled`` and ``neg`` take one
rational-kernel call per coefficient.

A product with a value off both lanes (ln(lambda), zeta or a root index
present) has one rule beside the general path, the monomial rule.  One
operand is a monomial c u^e, u = lambda^(1/m), c in Q(zeta): one l-part
with one nonzero numerator entry over a monic u^b.  Rationals and
Laurent-lane monomials count; so do the exponential lambda^a of a Delta
head and the zeta phases of the Serre operator M.  Every l-part of the
other operand has a monic monomial denominator u^k; a Laurent-lane operand
is read from its lane.  Then each term a u^j of the other becomes the one
Cyc product a c at the exponent j + e, both lifted to the lcm root index.
A nonzero a c needs no strip, and over a monomial denominator the reduced
form is read off the lowest exponent lo: the numerator over u^-lo when
lo < 0, else over 1.  The minimal root index divides the lcm by the gcd of
the lcm and every exponent.  So the canonical form and its lanes are built
directly, with no kernel product, gcd or index scan, and they are those of
the general path.  Every other product takes the general path.

One singleton for 1: ``sc(1)``, ``from_fraction(1)``, ``from_cyc`` of a
rational 1 and every lane result equal to 1 are ``SCALAR_ONE``, and a
product with ``SCALAR_ONE`` returns the other operand.  A general-path
result equal to 1 may be another object, so ``is SCALAR_ONE`` is a
shortcut, never an equality test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from ..errors import ExpObstruction, LogObstruction, NonInvertible, PoleAtZero, SchemaError
from ..jsonread import array, integer, mapping, only, rational, required
from . import poly
from .cyclotomic import CYC_ONE, CYC_ZERO, Cyc
from .rational import q_add, q_div, q_mul, q_neg, q_sub

Frac = Fraction

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
    """Reduced fraction of Cyc-polynomials; denominator monic and coprime to the numerator.

    Products of two polynomials (both denominators 1; a monic constant is
    1) skip the gcd.  They are built in the canonical form the general
    constructor would give: the denominator 1 is monic and coprime to
    everything, and the kernel's ``poly.mul`` already strips the numerator.

    A monomial denominator c u^b (the lambda^-k poles of the twisted
    theory) is reduced without the Euclidean gcd.  u is irreducible, so the
    monic gcd of c u^b and u^v q(u) with q(0) != 0 is u^min(b, v): the
    constructor drops that power from both sides and divides by c, which
    is exactly the canonical form the general path builds.  A sum of two
    canonical forms over u^a and u^b (polynomials are b = 0) is taken over
    u^max(a, b) by shifting numerators, with the same u^min reduction and
    no cross-multiplication.
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

    @staticmethod
    def const(c: Cyc) -> "RatFunc":
        if c.is_zero:
            return RF_ZERO
        return RatFunc((c,), (CYC_ONE,), _reduced=True)

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, o: "RatFunc") -> "RatFunc":
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        a, b = len(self.den) - 1, len(o.den) - 1
        if not any(self.den[:a]) and not any(o.den[:b]):
            # monic u^a and u^b: shift the side with the lower power up to u^c,
            # then drop the power of u the sum shares with u^c
            c = a if a > b else b
            num = poly.add([CYC_ZERO] * (c - a) + list(self.num),
                           [CYC_ZERO] * (c - b) + list(o.num), CYC_ZERO)
            if not num:
                return RF_ZERO
            m = 0
            while m < c and not num[m]:
                m += 1
            return RatFunc(num[m:], (CYC_ZERO,) * (c - m) + (CYC_ONE,), _reduced=True)
        return RatFunc(
            poly.add(poly.mul(self.num, o.den, CYC_ZERO), poly.mul(o.num, self.den, CYC_ZERO),
                     CYC_ZERO),
            poly.mul(self.den, o.den, CYC_ZERO),
        )

    def __neg__(self) -> "RatFunc":
        return RatFunc(tuple(-c for c in self.num), self.den, _reduced=True)

    def __sub__(self, o: "RatFunc") -> "RatFunc":
        return self + (-o)

    def __mul__(self, o: "RatFunc") -> "RatFunc":
        if self.is_zero or o.is_zero:
            return RF_ZERO
        if len(self.den) == 1 and len(o.den) == 1:
            return RatFunc(poly.mul(self.num, o.num, CYC_ZERO), self.den, _reduced=True)
        return RatFunc(poly.mul(self.num, o.num, CYC_ZERO), poly.mul(self.den, o.den, CYC_ZERO))

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise NonInvertible("division by zero")
        return RatFunc(self.den, self.num)

    def stretch(self, k: int) -> "RatFunc":
        if k == 1:
            return self
        return RatFunc(poly.stretch(self.num, k, CYC_ZERO), poly.stretch(self.den, k, CYC_ZERO),
                       _reduced=True)

    def eval_at_zero(self) -> Cyc:
        """Value at u = 0; raises PoleAtZero when u divides the denominator."""
        den0 = self.den[0] if self.den else CYC_ZERO
        if den0.is_zero:
            raise PoleAtZero("pole at lambda = 0")
        num0 = self.num[0] if self.num else CYC_ZERO
        return num0 * den0.inverse()

    def __eq__(self, o) -> bool:
        if not isinstance(o, RatFunc):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))


RF_ZERO = RatFunc((), (CYC_ONE,), _reduced=True)
RF_ONE = RatFunc((CYC_ONE,), (CYC_ONE,), _reduced=True)


class Scalar:
    """Element of Q(zeta)(lambda^(1/lam_den))[l].

    ``_q`` is the rational lane: the value as a Fraction when it is a plain
    rational, else None.  ``_lau`` is the Laurent lane: the value as
    (shift, coefficients) when it lies in Q[lambda, 1/lambda], else None.
    ``_ell`` is the canonical form, or None on a lane result until the
    first read of ``ell`` builds it from ``_lau``.  The constructor derives
    both lanes from the canonical form; ``_from_q`` and ``_from_lau`` set
    only the lanes (see the module docstring for the lanes and for the
    singleton ``SCALAR_ONE``).
    """

    __slots__ = ("lam_den", "_ell", "_q", "_lau")

    def __init__(self, ell: Sequence[RatFunc], lam_den: int = 1, _norm: bool = False):
        if _norm:
            self._ell = tuple(ell)
            self.lam_den = lam_den
            self._q, self._lau = _lanes(self._ell, lam_den)
            return
        parts = poly.strip(list(ell))
        # minimize the root index: gcd of all u-exponents present
        if lam_den > 1:
            g = lam_den
            for rf in parts:
                g = poly.exponent_gcd(rf.den, poly.exponent_gcd(rf.num, g))
            if g > 1:
                parts = [RatFunc(rf.num[::g], rf.den[::g], _reduced=True) for rf in parts]
                lam_den //= g
        self._ell = tuple(parts)
        self.lam_den = lam_den
        self._q, self._lau = _lanes(self._ell, lam_den)

    @property
    def ell(self) -> Tuple[RatFunc, ...]:
        """The canonical form, built from the Laurent lane on the first read."""
        e = self._ell
        if e is None:
            e = self._ell = _lau_ell(self._lau)
        return e

    # -- constructors

    @staticmethod
    def from_fraction(x) -> "Scalar":
        return _from_q(Frac(x))

    @staticmethod
    def from_cyc(c: Cyc) -> "Scalar":
        if c.order == 1:
            return _from_q(c.coeffs[0])
        return Scalar((RatFunc.const(c),), 1, _norm=True)

    @staticmethod
    def lam(power=1) -> "Scalar":
        """lambda**power for a rational power."""
        power = Frac(power)
        if power == 0:
            return SCALAR_ONE
        den = power.denominator
        exp = power.numerator  # exponent of u = lambda^(1/den)
        if exp >= 0:
            rf = RatFunc([CYC_ZERO] * exp + [CYC_ONE], (CYC_ONE,), _reduced=True)
        else:
            rf = RatFunc((CYC_ONE,), [CYC_ZERO] * (-exp) + [CYC_ONE], _reduced=True)
        return Scalar((rf,), den)

    @staticmethod
    def log_lambda() -> "Scalar":
        """The formal symbol l = ln(lambda)."""
        return Scalar((RF_ZERO, RF_ONE), 1, _norm=True)

    # -- structure

    @property
    def is_zero(self) -> bool:
        q = self._q          # zero is always on the rational lane
        return q is not None and not q._numerator

    @property
    def is_invertible(self) -> bool:
        x = self._lau
        if x is not None:
            return bool(x[1])
        return len(self._ell) == 1

    def is_rational(self) -> bool:
        return self._q is not None

    @property
    def is_laurent(self) -> bool:
        """True on the Laurent lane: the value lies in Q[lambda, 1/lambda]."""
        return self._lau is not None

    def as_fraction(self) -> Frac:
        if self._q is None:
            raise ValueError(f"not a plain rational: {self!r}")
        return self._q

    def lift_root(self, m: int) -> "Scalar":
        """Reexpress with root index m (lam_den | m required)."""
        if m == self.lam_den:
            return self
        if m % self.lam_den:
            raise ValueError("root index lift must be a multiple")
        k = m // self.lam_den
        return Scalar(tuple(rf.stretch(k) for rf in self.ell), m, _norm=True)

    @staticmethod
    def _common(a: "Scalar", b: "Scalar") -> Tuple["Scalar", "Scalar"]:
        if a.lam_den == b.lam_den:
            return a, b
        m = a.lam_den * b.lam_den // gcd(a.lam_den, b.lam_den)
        return a.lift_root(m), b.lift_root(m)

    # -- arithmetic

    def __add__(self, o: "Scalar") -> "Scalar":
        p = self._q
        if p is not None:
            if not p._numerator:
                return o         # zero plus anything is that thing, a non-Scalar too
            q = o._q
            if q is not None:
                return _from_q(q_add(p, q)) if q._numerator else self
        x, y = self._lau, o._lau
        if x is not None and y is not None:
            return _from_lau(*_lau_add(x, y)) if y[1] else self
        if o.is_zero:
            return self
        a, b = Scalar._common(self, o)
        return Scalar(poly.add(a.ell, b.ell, RF_ZERO), a.lam_den)

    def __neg__(self) -> "Scalar":
        if self._q is not None:
            return _from_q(q_neg(self._q))
        if self._lau is not None:
            shift, coeffs = self._lau
            return _from_lau(shift, tuple(q_neg(c) for c in coeffs))
        return Scalar(tuple(-rf for rf in self.ell), self.lam_den, _norm=True)

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
        if p is not None and q is not None:
            return _from_q(q_mul(p, q))
        if self.is_zero or o.is_zero:
            return SCALAR_ZERO
        if p is not None:
            return o._scaled(p)
        if q is not None:
            return self._scaled(q)
        x, y = self._lau, o._lau
        if x is not None and y is not None:
            # the end coefficients are nonzero, so are their products: nothing to trim
            a, b = x[1], y[1]
            if len(a) == 1 and len(b) == 1:
                return _from_lau(x[0] + y[0], (q_mul(a[0], b[0]),))
            return _from_lau(x[0] + y[0], tuple(poly.mul(a, b, _ZERO)))
        mono = _monomial(o)
        out = None if mono is None else _times_monomial(self, mono)
        if out is None:
            mono = _monomial(self)
            out = None if mono is None else _times_monomial(o, mono)
        return _mul_general(self, o) if out is None else out

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
        product on the rational lane, one per coefficient on the Laurent
        lane; off both lanes the monomial rule with c = q, else the general
        path."""
        p = self._q
        if p is not None:
            return _from_q(q_mul(p, q))
        x = self._lau
        if x is not None:
            return _from_lau(x[0], tuple(q_mul(c, q) for c in x[1]))
        out = _times_monomial(self, (q, 0, 1))
        return _mul_general(self, _from_q(q)) if out is None else out

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise NonInvertible("division by zero scalar")
        if self._q is not None:
            return _from_q(q_div(_ONE, self._q))
        x = self._lau
        if x is not None and len(x[1]) == 1:
            return _from_lau(-x[0], (q_div(_ONE, x[1][0]),))
        if len(self.ell) != 1:
            raise NonInvertible("scalar with log-lambda terms is not invertible")
        return Scalar((self.ell[0].inverse(),), self.lam_den)

    def __truediv__(self, o: "Scalar") -> "Scalar":
        p, q = self._q, o._q
        # a zero divisor goes on to inverse, which raises
        if p is not None and q is not None and q._numerator:
            return _from_q(q_div(p, q))
        return self * o.inverse()

    def __pow__(self, n: int) -> "Scalar":
        return poly.power(self, n, SCALAR_ONE, Scalar.inverse)

    def __eq__(self, o) -> bool:
        if isinstance(o, (int, Fraction)):
            o = Scalar.from_fraction(o)
        if not isinstance(o, Scalar):
            return NotImplemented
        p, q = self._q, o._q
        if p is not None and q is not None:
            return p == q
        x, y = self._lau, o._lau
        if x is not None and y is not None:
            return x == y
        a, b = Scalar._common(self, o)
        return a.ell == b.ell

    def __hash__(self):
        return hash((self.lam_den, self.ell))

    # -- limits and special maps

    def nonequiv_limit(self) -> "Scalar":
        """Substitute lambda = 0 exactly.

        A lane value reads its lane: a rational is its own limit, and
        sum_i c_i lambda^(shift + i) with c_0 != 0 goes to 0 for shift > 0,
        to c_0 for shift = 0, and has a pole for shift < 0.  Only a value
        off both lanes reads its canonical form.
        """
        if self._q is not None:
            return self
        x = self._lau
        if x is not None:
            shift, coeffs = x
            if shift > 0:
                return SCALAR_ZERO
            if shift == 0:
                return _from_q(coeffs[0])
            raise PoleAtZero("pole at lambda = 0")
        if len(self.ell) > 1:
            raise LogObstruction("ln(lambda) survives at lambda = 0")
        return Scalar.from_cyc(self.ell[0].eval_at_zero())

    def exp(self) -> "Scalar":
        """exp(self), defined for rational multiples of l = ln(lambda): exp(a*l) = lambda^a."""
        if self.is_zero:
            return SCALAR_ONE
        if len(self.ell) > 2:
            raise ExpObstruction("exp only defined for a * ln(lambda)")
        if not self.ell[0].is_zero:
            raise ExpObstruction("exp of a nonzero constant is transcendental")
        coeff = Scalar((self.ell[1],), self.lam_den)
        if not coeff.is_rational():
            raise ExpObstruction("exp needs a rational multiple of ln(lambda)")
        return Scalar.lam(coeff.as_fraction())

    # -- serialization

    def _rf_obj(self, rf: RatFunc):
        def cyc_obj(c: Cyc):
            if c.is_rational:
                return str(c.as_fraction())
            return {"zeta": c.order, "c": [str(x) for x in c.coeffs]}

        return {"num": [cyc_obj(c) for c in rf.num], "den": [cyc_obj(c) for c in rf.den]}

    def to_obj(self):
        """Canonical JSON-ready form; plain rationals collapse to 'p/q' strings."""
        if self._q is not None:
            return str(self._q)
        if len(self.ell) == 1:
            obj = self._rf_obj(self.ell[0])
            if self.lam_den != 1:
                obj["lam_den"] = self.lam_den
            return obj
        obj = {"ell": [self._rf_obj(rf) for rf in self.ell]}
        if self.lam_den != 1:
            obj["lam_den"] = self.lam_den
        return obj

    def __repr__(self) -> str:
        return f"Scalar({self.to_obj()!r})"


_ZERO, _ONE = Frac(0), Frac(1)
Laurent = Tuple[int, Tuple[Frac, ...]]
_LAU_ZERO: Laurent = (0, ())


def _lanes(ell: Tuple[RatFunc, ...], lam_den: int) -> Tuple[Optional[Frac], Optional[Laurent]]:
    """(_q, _lau) of a canonical form: its Fraction if it is a plain rational,
    and its (shift, coefficients) if it lies in Q[lambda, 1/lambda]; None
    where it does not."""
    if not ell:
        return _ZERO, _LAU_ZERO
    if len(ell) != 1 or lam_den != 1:
        return None, None
    num, den = ell[0].num, ell[0].den
    if any(den[:-1]) or any(c.order != 1 for c in num):
        return None, None
    low = 0
    while not num[low]:
        low += 1
    coeffs = tuple(c.coeffs[0] for c in num[low:])
    shift = low - (len(den) - 1)      # the monic denominator is u^(len(den) - 1)
    if shift == 0 and len(coeffs) == 1:
        return coeffs[0], (0, coeffs)
    return None, (shift, coeffs)


def _lau_add(x: Laurent, y: Laurent) -> Laurent:
    """x + y over the lower shift, zeros dropped at both ends (the kernel's
    sum drops the high ones).  Two monomials take one kernel sum at equal
    shifts and none at different ones."""
    (s, a), (t, b) = x, y
    if len(a) == 1 and len(b) == 1:
        if s == t:
            c = q_add(a[0], b[0])
            return (s, (c,)) if c._numerator else _LAU_ZERO
        if s > t:
            (s, a), (t, b) = y, x
        return s, a + (_ZERO,) * (t - s - 1) + b
    low = s if s < t else t
    out = poly.add([_ZERO] * (s - low) + list(a), [_ZERO] * (t - low) + list(b), _ZERO)
    k = 0
    while k < len(out) and not out[k]:
        k += 1
    return low + k, tuple(out[k:])


_DEN_ONE = (CYC_ONE,)


def _from_q(q: Frac) -> "Scalar":
    """The Scalar of a Fraction: its lanes only, the canonical form unbuilt.

    0 and 1 return the singletons.
    """
    n = q._numerator
    if not n:
        return SCALAR_ZERO
    if n == 1 and q._denominator == 1:
        return SCALAR_ONE
    out = object.__new__(Scalar)
    out._ell = None
    out.lam_den = 1
    out._q = q
    out._lau = (0, (q,))
    return out


def _from_lau(shift: int, coeffs: Tuple[Frac, ...]) -> "Scalar":
    """The Scalar of sum_i coeffs[i] lambda^(shift + i): its Laurent lane only,
    the canonical form unbuilt; coeffs is empty (zero) or has nonzero ends.
    Plain rationals go through ``_from_q``.
    """
    if not coeffs:
        return SCALAR_ZERO
    if shift == 0 and len(coeffs) == 1:
        return _from_q(coeffs[0])
    out = object.__new__(Scalar)
    out._ell = None
    out.lam_den = 1
    out._q = None
    out._lau = (shift, coeffs)
    return out


def _lau_ell(lau: Laurent) -> Tuple[RatFunc, ...]:
    """The canonical form of a Laurent-lane value, the one the general path
    builds: order-1 Cyc coefficients over the denominator 1 when shift >= 0
    (u^shift as leading zeros), else over the monic u^-shift, which the
    nonzero lowest coefficient makes coprime; () for zero."""
    shift, coeffs = lau
    if not coeffs:
        return ()
    num = tuple(Cyc(1, (c,), _reduced=True) for c in coeffs)
    if shift >= 0:
        return (RatFunc((CYC_ZERO,) * shift + num, _DEN_ONE, _reduced=True),)
    return (RatFunc(num, (CYC_ZERO,) * -shift + _DEN_ONE, _reduced=True),)


Monomial = Tuple[object, int, int]


def _monomial(s: "Scalar") -> Optional[Monomial]:
    """(c, e, m) when the nonzero s is c u^e, u = lambda^(1/m): one l-part
    with one nonzero numerator entry over a monic u^b (a Laurent-lane value
    with one coefficient, a rational included, reads its lane and gives a
    Fraction c at m = 1; else c is the Cyc); None when it is not."""
    x = s._lau
    if x is not None:
        return (x[1][0], x[0], 1) if len(x[1]) == 1 else None
    ell = s._ell
    if len(ell) != 1:
        return None
    num, den = ell[0].num, ell[0].den
    if any(num[:-1]) or any(den[:-1]):
        return None
    return num[-1], len(num) - len(den), s.lam_den


def _times_monomial(s: "Scalar", mono: Monomial) -> Optional["Scalar"]:
    """s times the monomial c u^e of ``_monomial`` when every l-part of s has
    a monic monomial denominator (see the module docstring); None when one
    does not.  A Laurent-lane s is read from its lane; a Fraction c means s
    is off the lanes."""
    c, e, mc = mono
    x = s._lau
    ms = 1 if x is not None else s.lam_den
    if x is None and any(any(rf.den[:-1]) for rf in s._ell):
        return None
    lcm = ms * mc // gcd(ms, mc)
    k, shift = lcm // ms, e * (lcm // mc)
    # per l-part, (exponent of u = lambda^(1/lcm), coefficient) of each term
    if x is not None:
        rows = [[((x[0] + i) * k + shift, c.scaled(a)) for i, a in enumerate(x[1]) if a]]
    else:
        rows = [[((i + 1 - len(rf.den)) * k + shift, a.scaled(c) if type(c) is Frac else a * c)
                 for i, a in enumerate(rf.num) if a] for rf in s._ell]
    g = lcm          # the minimal root index is lcm / gcd(lcm, every exponent)
    for row in rows:
        for p, _ in row:
            g = gcd(g, p)
    parts = []
    for row in rows:
        if not row:
            parts.append(RF_ZERO)
            continue
        lo, hi = row[0][0] // g, row[-1][0] // g
        base = lo if lo < 0 else 0
        num = [CYC_ZERO] * (hi - base + 1)
        for p, v in row:
            num[p // g - base] = v
        parts.append(RatFunc(num, (CYC_ZERO,) * -base + _DEN_ONE, _reduced=True))
    return Scalar(tuple(parts), lcm // g, _norm=True)


def _mul_general(a: "Scalar", b: "Scalar") -> "Scalar":
    """a * b over the canonical forms at the common root index."""
    a, b = Scalar._common(a, b)
    return Scalar(poly.mul(a.ell, b.ell, RF_ZERO), a.lam_den)


SCALAR_ZERO = Scalar((), 1, _norm=True)
SCALAR_ONE = Scalar((RF_ONE,), 1, _norm=True)


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


def _parse_rf(obj, path: str, zeta_period, extra=()) -> RatFunc:
    if isinstance(obj, str) and "|" not in obj:
        return RatFunc.const(Cyc.from_fraction(rational(obj, path)))
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
    return RatFunc(num, den)


def parse_scalar(obj, path: str = "$", zeta_period: Optional[int] = None) -> Scalar:
    """Parse 'p/q', 'n0,n1,...|d0,d1,...' (lambda polys, lowest first), a JSON
    integer or the to_obj() form; anything else is a SchemaError naming
    ``path`` or the field below it that fails.

    The dict form is {"num", "den", "lam_den"?} or {"ell", "lam_den"?} and
    has no other key.  ``num``, ``den``, ``ell`` and a zeta's ``c`` are JSON
    lists, each entry of ``c`` is a 'p/q' string or a JSON integer, and
    ``lam_den`` (1 when absent) and ``zeta`` are JSON integers >= 1.  With
    ``zeta_period`` a zeta order must divide it, checked before the
    cyclotomic polynomial of that order is built.
    """
    if isinstance(obj, Scalar):
        return obj
    if type(obj) is int:                # not a bool
        return Scalar.from_fraction(obj)
    if isinstance(obj, str):
        return Scalar((_parse_rf(obj, path, zeta_period),), 1)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a scalar ('p/q', 'n0,...|d0,...', an integer "
                          f"or an object), got {obj!r}")
    lam_den = integer(obj.get("lam_den", 1), f"{path}.lam_den", 1)
    if "ell" in obj:
        only(obj, ("ell", "lam_den"), path)
        return Scalar([_parse_rf(rf, f"{path}.ell[{i}]", zeta_period)
                       for i, rf in enumerate(array(obj["ell"], f"{path}.ell"))], lam_den)
    return Scalar((_parse_rf(obj, path, zeta_period, ("lam_den",)),), lam_den)
