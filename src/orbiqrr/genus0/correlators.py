"""Correlator tables and the universal-equation verifiers.

A table entry is a genus-0 invariant <a_1 psibar^{k_1}, ..., a_n psibar^{k_n}>_{0,n,d}
with basis-class insertions.  Entries are symmetrized on insert and must
respect the virtual-dimension constraint

    sum_i (orbdeg(a_i)/2 + k_i) = dim(X) - 3 + n + <c_1(TX), d>.

The checkers evaluate both sides of each equation instance available in
the table and report exact residuals.  String, dilaton and divisor are
linear: they share one instance loop (``check_universal_equation``), and
each supplies only its right side.  The divisor's gamma acts on a twisted
insertion through ``TargetModel.spread_untwisted``.

TRR instances that differ only in which slots carry equal insertions share
one evaluation: the right side sums over sub-multisets A of the remaining
insertions {v_j^(m_j)}, each weighted by prod_j C(m_j, a_j), the number of
slot subsets it stands for.  The dimension test (an additive excess against
a budget, see ``CorrelatorTable.excess``) runs on each left correlator
before its key is built; one that fails is zero stored or not, so this
skips lookups without changing the set of missing keys.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import DimensionMismatch, InsufficientTable
from ..exactalg import SCALAR_ONE, SCALAR_ZERO, Scalar, deg_pairing, deg_splits, sc
from ..linalg import gram_inverse
from ..orbtarget import CohClass, TargetModel

Frac = Fraction
Slot = Tuple[str, int]            # (component id, basis index)
Insertion = Tuple[Slot, int]      # (class, psibar power)
Key = Tuple[int, Tuple[int, ...], Tuple[Insertion, ...]]


def _key(n: int, d: Tuple[int, ...], insertions: Sequence[Insertion]) -> Key:
    return (n, tuple(d), tuple(sorted(insertions)))


class CorrelatorTable:
    def __init__(self, target: TargetModel):
        self.target = target
        self.entries: Dict[Key, Scalar] = {}
        # per slot orbdeg/2 - 1, an int where integral: int sums are far cheaper than Fraction ones
        excess = {slot: Frac(target.orbdeg(*slot), 2) - 1 for slot in target.flat_basis}
        self._excess = {slot: e.numerator if e.denominator == 1 else e
                        for slot, e in excess.items()}
        self._c1 = tuple(Frac(c) for c in target.c1_tangent_pairing)

    def excess(self, insertions: Sequence[Insertion]):
        """sum_i (orbdeg(a_i)/2 + k_i - 1): additive over insertions."""
        ex = self._excess
        return sum(ex[slot] + k for slot, k in insertions)

    def budget(self, d: Tuple[int, ...]):
        """dim(X) - 3 + <c_1(TX), d>, the excess the dimension constraint asks for."""
        return self.target.dim - 3 + deg_pairing(self._c1, d)

    def dimension_ok(self, d: Tuple[int, ...], insertions: Sequence[Insertion]) -> bool:
        return self.excess(insertions) == self.budget(d)

    def set(self, d: Tuple[int, ...], insertions: Sequence[Insertion], value):
        value = sc(value)
        if not self.dimension_ok(d, insertions) and not value.is_zero:
            raise DimensionMismatch(
                f"nonzero entry violates the dimension constraint: {insertions} at d={d}")
        self.entries[_key(len(insertions), d, insertions)] = value

    def get(self, d: Tuple[int, ...], insertions: Sequence[Insertion]) -> Optional[Scalar]:
        """Value if determined (stored, dimension-filtered, or from an unstable
        moduli problem, all of which force zero); None when genuinely missing.

        A stored entry is returned without the dimension test: ``set`` stores
        a key that fails it only with the value zero."""
        if len(insertions) <= 2 and not any(d):
            return SCALAR_ZERO
        value = self.entries.get(_key(len(insertions), d, insertions))
        if value is None and not self.dimension_ok(d, insertions):
            return SCALAR_ZERO
        return value

    def keys(self) -> Iterable[Key]:
        return self.entries.keys()


def point_correlators(n: int, kpowers: Sequence[int]) -> Frac:
    """<psibar^{k_1}, ..., psibar^{k_n}>_{0,n,0} on the point: (n-3)! / prod k_i!."""
    if n < 3 or len(kpowers) != n:
        raise DimensionMismatch("point correlators need n >= 3 insertions")
    if sum(kpowers) != n - 3:
        raise DimensionMismatch(f"sum of psibar powers must be n-3={n - 3}")
    return Frac(factorial(n - 3), prod(factorial(k) for k in kpowers))


def build_point_table(t: TargetModel, nmax: int) -> CorrelatorTable:
    """All point entries with n <= nmax, from the closed form; built once per
    target and nmax (``TargetModel.keep``), so every caller shares the table
    and must not change it."""
    def build():
        table = CorrelatorTable(t)
        slot = ("0", 0)
        for n in range(3, nmax + 1):
            for kp in _compositions(n - 3, n):
                table.set((0,), [(slot, k) for k in kp],
                          sc(point_correlators(n, kp)))
        return table

    return t.keep(("point_table", nmax), build)


def _compositions(total: int, slots: int):
    """Nondecreasing tuples of length `slots` summing to `total` (symmetrized keys)."""
    def rec(remaining, slots_left, minimum):
        if slots_left == 0:
            if remaining == 0:
                yield ()
            return
        for first in range(minimum, remaining + 1):
            for rest in rec(remaining - first, slots_left - 1, first):
                yield (first,) + rest
    yield from rec(total, slots, 0)


# ---------------------------------------------------------------------------
# universal-equation checkers


def _value(table: CorrelatorTable, d, insertions, missing: List) -> Scalar:
    v = table.get(d, insertions)
    if v is None:
        missing.append(_key(len(insertions), d, insertions))
        return SCALAR_ZERO
    return v


def check_universal_equation(kind: str, table: CorrelatorTable) -> dict:
    kind = kind.lower()
    if kind == "trr":
        return _check_trr(table)
    if kind not in _RHS:
        raise ValueError(f"unknown universal equation {kind!r}")
    # an instance: a stored key with n >= 4 and a marked insertion (the first one)
    unit = ("0", 0)   # the unit class of the untwisted sector
    divisors = {(("0", i), 0) for i, b in enumerate(table.target.by_id["0"].basis) if b.degree == 2}
    marks = {"string": {(unit, 0)}, "dilaton": {(unit, 1)}, "divisor": divisors}[kind]
    missing: List = []
    violations = []
    instances = 0
    for (n, d, ins) in list(table.keys()):
        j = next((j for j, v in enumerate(ins) if v in marks), None)
        if j is None or n < 4:
            continue
        instances += 1
        rest = list(ins[:j] + ins[j + 1:])
        resid = table.entries[(n, d, ins)] - _RHS[kind](table, d, ins[j], rest, missing)
        if not resid.is_zero:
            violations.append({"n": n, "d": list(d), "insertions": ins,
                               "residual": resid.to_obj()})
    return _report(kind, instances, violations, missing)


def _report(kind: str, instances: int, violations: list, missing: list) -> dict:
    if missing:
        raise InsufficientTable(sorted(set(missing)))
    return {
        "kind": kind,
        "instances": instances,
        "ok": not violations,
        "violations": violations,
    }


def _string_rhs(table, d, marked, rest, missing) -> Scalar:
    """sum_j <..., a_j psibar^(k_j - 1), ...> over the k_j >= 1."""
    rhs = SCALAR_ZERO
    for j, (slot, k) in enumerate(rest):
        if k:
            rhs = rhs + _value(table, d, rest[:j] + [(slot, k - 1)] + rest[j + 1:], missing)
    return rhs


def _dilaton_rhs(table, d, marked, rest, missing) -> Scalar:
    """(2g - 2 + n) <rest> at g = 0, with n = len(rest)."""
    return _value(table, d, rest, missing).scaled(len(rest) - 2)


def _divisor_rhs(table, d, marked, rest, missing) -> Scalar:
    """(gamma . d) <rest> + sum_j <..., (gamma a_j) psibar^(k_j - 1), ...> over
    the k_j >= 1, where gamma acts on a_j through ``spread_untwisted``."""
    t = table.target
    gamma = t.by_id["0"].basis[marked[0][1]]
    pairing = deg_pairing(gamma.curve_pairing, d) if gamma.curve_pairing else 0
    rhs = _value(table, d, rest, missing).scaled(pairing)
    spread = t.spread_untwisted(CohClass(t, {marked[0]: SCALAR_ONE}))
    for j, (slot, k) in enumerate(rest):
        if not k:
            continue
        for slot2, c in spread.mul(CohClass(t, {slot: SCALAR_ONE})).terms.items():
            lowered = rest[:j] + [(slot2, k - 1)] + rest[j + 1:]
            rhs = rhs + _value(table, d, lowered, missing) * c
    return rhs


_RHS = {"string": _string_rhs, "dilaton": _dilaton_rhs, "divisor": _divisor_rhs}


def _check_trr(table: CorrelatorTable) -> dict:
    """Genus-0 topological recursion in coefficient form: for distinct slots
    1, 2, 3 with k_1 >= 1 and the remaining slots split A | B,

      <a1 k1, a2 k2, a3 k3, rest> =
        sum_{A|B, d1+d2, alpha} <a1 (k1-1), A, phi_alpha> <phi^alpha, a2 k2, a3 k3, B>.

    One instance per slot i1 with k_1 >= 1 and distinct unordered pair of
    values {v2, v3} among the other slots; a violation names the first
    index triple [i1, i2, i3] of its instance in (i1, i2, i3) order.

    Each side depends on the insertion values only, not on the slots that
    carry them, so each distinct recursion is evaluated once: per value v1
    with k >= 1 and multiplicity m1, per distinct pair {v2, v3} of what
    remains, and the instance counts m1 times.  The split A | B of the
    remaining multiset {v_j^(m_j)} runs over its sub-multisets
    A = {v_j^(a_j)}, 0 <= a_j <= m_j, each standing for the
    prod_j C(m_j, a_j) slot subsets that give the same two correlators,
    instead of over all 2^|rest| subsets.

    The dimension test runs on each left correlator before its key is
    built: one that fails it is zero in ``CorrelatorTable.get`` whether
    stored or not (``set`` stores such a key only with the value zero), so
    it adds nothing and no right correlator is looked up for it, as when
    its looked-up value was zero.  The keys looked up, and so the
    ``missing`` keys, are those of the slot-by-slot sum.
    """
    t = table.target
    ginv = gram_inverse(t)
    basis = t.flat_basis
    # per alpha: its slot, the excess of (phi_alpha, 0), the nonzero g^{beta alpha}
    alphas = [(aslot, table.excess(((aslot, 0),)),
               [(bslot, ginv[bi][ai]) for bi, bslot in enumerate(basis)
                if not ginv[bi][ai].is_zero])
              for ai, aslot in enumerate(basis)]
    missing: List = []
    violations = []
    instances = 0
    for (n, d, ins) in list(table.keys()):
        if n < 3:
            continue
        lhs = table.entries[(n, d, ins)]
        splits = [(d1, d2, table.budget(d1)) for d1, d2 in deg_splits(d)]
        counts = Counter(ins)
        residuals: Dict[Insertion, Dict[Tuple[Insertion, Insertion], Scalar]] = {}
        for v1, m1 in counts.items():
            if v1[1] < 1:
                continue
            a1 = (v1[0], v1[1] - 1)
            remaining = dict(counts)
            remaining[v1] -= 1
            values = [v for v, m in remaining.items() if m]
            per_pair = residuals[v1] = {}
            for j, v2 in enumerate(values):
                for v3 in values[j:]:
                    if v2 == v3 and remaining[v2] < 2:
                        continue
                    rest = dict(remaining)
                    rest[v2] -= 1
                    rest[v3] -= 1
                    rhs = _trr_rhs(table, alphas, splits, a1, (v2, v3),
                                   [(v, m) for v, m in rest.items() if m], missing)
                    per_pair[tuple(sorted((v2, v3)))] = lhs - rhs
            instances += m1 * len(per_pair)
        if any(not r.is_zero for per_pair in residuals.values() for r in per_pair.values()):
            violations.extend(_trr_violations(n, d, ins, residuals))
    return _report("trr", instances, violations, missing)


def _trr_rhs(table: CorrelatorTable, alphas, splits, a1: Insertion,
             pair: Tuple[Insertion, Insertion], rest: List[Tuple[Insertion, int]],
             missing: List) -> Scalar:
    """The TRR right side for a1 = (a_1, k_1 - 1), the pair (a2 k2, a3 k3) and
    the remaining multiset ``rest`` of (value, multiplicity), summed over its
    sub-multisets A with weight prod_j C(m_j, a_j) (see ``_check_trr``)."""
    excess = [table.excess((v,)) for v, _m in rest]
    a1_excess = table.excess((a1,))
    rhs = SCALAR_ZERO
    for choice in product(*(range(m + 1) for _v, m in rest)):
        left_excess = a1_excess + sum(a * e for a, e in zip(choice, excess))
        part = SCALAR_ZERO
        A = B = None
        for d1, d2, budget in splits:
            for aslot, alpha_excess, duals in alphas:
                if left_excess + alpha_excess != budget:
                    continue        # dimension-filtered: zero, stored or not
                if A is None:
                    A = [v for (v, _m), a in zip(rest, choice) for _ in range(a)]
                    B = [v for (v, m), a in zip(rest, choice) for _ in range(m - a)]
                left = _value(table, d1, [a1] + A + [(aslot, 0)], missing)
                if left.is_zero:
                    continue
                for bslot, w in duals:
                    right = _value(table, d2, [(bslot, 0), *pair] + B, missing)
                    part = part + left * w * right
        if not part.is_zero:
            rhs = rhs + part.scaled(prod(comb(m, a) for (_v, m), a in zip(rest, choice)))
    return rhs


def _trr_violations(n: int, d, ins, residuals) -> list:
    """One violation per slot i1 and pair of values with a nonzero residual,
    in the slot-by-slot order, named by its first index triple."""
    out = []
    for i1 in range(n):
        if ins[i1][1] < 1:
            continue
        per_pair = residuals[ins[i1]]
        seen = set()
        for i2 in range(n):
            for i3 in range(n):
                if len({i1, i2, i3}) != 3:
                    continue
                pair = tuple(sorted((ins[i2], ins[i3])))
                if pair in seen:
                    continue
                seen.add(pair)
                resid = per_pair[pair]
                if not resid.is_zero:
                    out.append({"n": n, "d": list(d), "insertions": ins,
                                "split": [i1, i2, i3], "residual": resid.to_obj()})
    return out
