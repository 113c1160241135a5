"""A test-local oracle for ``Scalar``, and strategies that draw its values.

An oracle value is a dict {(k, e): c}: the nonzero Cyc coefficient c of
l^k lambda^e, with l = ln(lambda), k >= 0 and e a Fraction.  The oracle has
its own sum, product, inverse, lambda -> 0 limit and JSON form, and shares
no code with ``Scalar``: the root index m of the JSON form is the lcm of the
denominators of the exponents present, and each l-part prints over the monic
denominator u^b, u = lambda^(1/m).  ``scalar_of`` builds the Scalar of a
dict through ``parse_scalar``, the JSON boundary, so operands do not come
out of the arithmetic under test.

``Cyc`` has no canonical form across conductors, so ``assert_value``
compares the printed bytes only for zeta-free values; for the others it
compares the value term by term with ``Cyc.__eq__`` and the root index.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from hypothesis import strategies as st

from orbiqrr.errors import LogObstruction, NonInvertible, PoleAtZero
from orbiqrr.exactalg import Cyc, parse_scalar

ZERO_E = Fraction(0)


# -- arithmetic -----------------------------------------------------------------


def o_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if not c.is_zero}


def o_neg(a: dict) -> dict:
    return {key: -c for key, c in a.items()}


def o_sub(a: dict, b: dict) -> dict:
    return o_add(a, o_neg(b))


def o_mul(a: dict, b: dict) -> dict:
    out = {}
    for (k1, e1), c1 in a.items():
        for (k2, e2), c2 in b.items():
            key = (k1 + k2, e1 + e2)
            out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return {key: c for key, c in out.items() if not c.is_zero}


def o_inverse(a: dict) -> dict:
    """1 / (c lambda^e); anything else (zero, ln(lambda), two terms) raises NonInvertible."""
    if len(a) != 1 or next(iter(a))[0]:
        raise NonInvertible("not a monomial")
    ((_, e), c), = a.items()
    return {(0, -e): c.inverse()}


def o_div(a: dict, b: dict) -> dict:
    return o_mul(a, o_inverse(b))


def o_limit(a: dict) -> dict:
    """lambda = 0: ln(lambda) or a negative power has no limit."""
    if any(k for k, _ in a):
        raise LogObstruction("ln(lambda)")
    if any(e < 0 for _, e in a):
        raise PoleAtZero("pole")
    return {key: c for key, c in a.items() if key[1] == 0}


def rational(q) -> dict:
    q = Fraction(q)
    return {(0, ZERO_E): Cyc.from_fraction(q)} if q else {}


# -- the JSON form ----------------------------------------------------------------


def root_index(a: dict) -> int:
    return lcm(1, *(e.denominator for _, e in a))


def zeta_free(a: dict) -> bool:
    return all(c.order == 1 for c in a.values())


def _coeff_obj(c: Cyc):
    if c.order == 1:
        return str(c.coeffs[0])
    return {"zeta": c.order, "c": [str(x) for x in c.coeffs]}


def o_obj(a: dict):
    """'p/q' for a rational; else one {"num", "den"} per power of l (under "ell"
    when there are several) and "lam_den" when m > 1."""
    if not a:
        return "0"
    if list(a) == [(0, ZERO_E)] and a[(0, ZERO_E)].order == 1:
        return str(a[(0, ZERO_E)].coeffs[0])
    m = root_index(a)
    parts = []
    for k in range(max(k for k, _ in a) + 1):
        terms = {int(e * m): c for (j, e), c in a.items() if j == k}
        if not terms:
            parts.append({"num": [], "den": ["1"]})
            continue
        lo = min(min(terms), 0)
        parts.append({"num": [_coeff_obj(terms[i]) if i in terms else "0"
                              for i in range(lo, max(terms) + 1)],
                      "den": ["0"] * -lo + ["1"]})
    obj = parts[0] if len(parts) == 1 else {"ell": parts}
    if m > 1:
        obj["lam_den"] = m
    return obj


def read_coeff(obj) -> Cyc:
    if isinstance(obj, str):
        return Cyc.from_fraction(Fraction(obj))
    return Cyc(obj["zeta"], [Fraction(x) for x in obj["c"]])


def o_read(obj) -> dict:
    """The value of a JSON form whose denominators are u^b (asserted)."""
    if isinstance(obj, str):
        return rational(obj)
    m = obj.get("lam_den", 1)
    out = {}
    for k, part in enumerate(obj["ell"] if "ell" in obj else [obj]):
        den = part["den"]
        assert den == ["0"] * (len(den) - 1) + ["1"], f"den {den} is not u^b"
        for i, c in enumerate(part["num"]):
            c = read_coeff(c)
            if not c.is_zero:
                out[(k, Fraction(i + 1 - len(den), m))] = c
    return out


def scalar_of(a: dict):
    """The Scalar of an oracle value, read through ``parse_scalar``."""
    return parse_scalar(o_obj(a))


def assert_value(x, a: dict):
    """The Scalar x is the oracle value a: the same terms, the minimal root
    index, denominators u^b, and for a zeta-free value the same bytes, ``==``
    and hash as the oracle's own form read back."""
    obj = x.to_obj()
    assert o_read(obj) == a
    assert (1 if isinstance(obj, str) else obj.get("lam_den", 1)) == root_index(a)
    assert x == scalar_of(a)
    if zeta_free(a):
        assert obj == o_obj(a)
        assert hash(x) == hash(scalar_of(a))
        if isinstance(obj, str):
            assert x.is_rational() and hash(x) == hash(Fraction(obj))


# -- strategies -------------------------------------------------------------------

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=9)
nonzero = rationals.filter(bool)
ORDERS = (3, 4, 5, 6, 12)


@st.composite
def coefficients(draw, zeta=True):
    """A nonzero Cyc: a rational, or with zeta a rational plus q zeta_n^j."""
    c = Cyc.from_fraction(draw(rationals))
    if zeta and draw(st.booleans()):
        n = draw(st.sampled_from(ORDERS))
        c = c + Cyc.root_of_unity(n, draw(st.integers(1, n - 1))) * \
            Cyc.from_fraction(draw(nonzero))
    if c.is_zero:
        c = Cyc.from_fraction(draw(nonzero))
    return c


@st.composite
def values(draw, logs=2, dens=(1, 2, 3), zeta=True, max_terms=4, exps=4, min_terms=0):
    """Up to max_terms terms l^k lambda^(p/q): k <= logs, q in dens, |p/q| <= exps."""
    out = {}
    for _ in range(draw(st.integers(min_terms, max_terms))):
        q = draw(st.sampled_from(dens))
        key = (draw(st.integers(0, logs)), Fraction(draw(st.integers(-exps * q, exps * q)), q))
        out[key] = draw(coefficients(zeta))
    return out


laurents = values(logs=0, dens=(1,), zeta=False, max_terms=5, exps=6)
monomials = values(min_terms=1, max_terms=1, logs=0, dens=(1, 2, 3, 4, 6, 12), exps=8)
