"""Correlator tables and the universal-equation verifiers.

A table entry is a genus-0 invariant <a_1 psibar^{k_1}, ..., a_n psibar^{k_n}>_{0,n,d}
with basis-class insertions.  Entries are symmetrized on insert and must
respect the virtual-dimension constraint

    sum_i (orbdeg(a_i)/2 + k_i) = dim(X) - 3 + n + <c_1(TX), d>.

The string/divisor/dilaton/TRR checkers evaluate both sides of each equation
instance available in the table and report exact residuals.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import DimensionMismatch, InsufficientTable
from ..exactalg import SCALAR_ZERO, Scalar, sc
from ..linalg import mat_inv
from ..orbtarget import TargetModel

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
        # per slot orbdeg/2, an int where integral: int sums are far cheaper than Fraction ones
        halves = {slot: Frac(target.orbdeg(*slot), 2) for slot in target.flat_basis}
        self._half_orbdeg = {slot: h.numerator if h.denominator == 1 else h
                             for slot, h in halves.items()}
        self._c1 = tuple(Frac(c) for c in target.c1_tangent_pairing)

    def dimension_ok(self, d: Tuple[int, ...], insertions: Sequence[Insertion]) -> bool:
        half = self._half_orbdeg
        lhs = sum(half[slot] for slot, _k in insertions)
        rhs = self.target.dim - 3 + len(insertions) - sum(k for _slot, k in insertions)
        rhs += sum(c * di for c, di in zip(self._c1, d) if di)
        return lhs == rhs

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
    out = Frac(factorial(n - 3))
    for k in kpowers:
        out /= factorial(k)
    return out


def build_point_table(t: TargetModel, nmax: int) -> CorrelatorTable:
    """All point entries with n <= nmax, from the closed form."""
    table = CorrelatorTable(t)
    slot = ("0", 0)
    for n in range(3, nmax + 1):
        for kp in _compositions(n - 3, n):
            table.set((0,), [(slot, k) for k in kp],
                      sc(point_correlators(n, kp)))
    return table


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
    if kind == "string":
        return _check_string(table)
    if kind == "dilaton":
        return _check_dilaton(table)
    if kind == "divisor":
        return _check_divisor(table)
    if kind == "trr":
        return _check_trr(table)
    raise ValueError(f"unknown universal equation {kind!r}")


def _report(kind: str, instances: int, violations: list, missing: list) -> dict:
    if missing:
        raise InsufficientTable(sorted(set(missing)))
    return {
        "kind": kind,
        "instances": instances,
        "ok": not violations,
        "violations": violations,
    }


def _check_string(table: CorrelatorTable) -> dict:
    unit = ("0", 0)   # the unit class of the untwisted sector
    missing: List = []
    violations = []
    instances = 0
    for (n, d, ins) in list(table.keys()):
        # interpret each (1, 0) slot as the string insertion
        if (unit, 0) not in ins or n < 4:
            continue
        rest = list(ins)
        rest.remove((unit, 0))
        instances += 1
        lhs = table.entries[(n, d, ins)]
        rhs = SCALAR_ZERO
        for j, (slot, k) in enumerate(rest):
            if k == 0:
                continue
            lowered = rest[:j] + [(slot, k - 1)] + rest[j + 1:]
            rhs = rhs + _value(table, d, lowered, missing)
        resid = lhs - rhs
        if not resid.is_zero:
            violations.append({"n": n, "d": list(d), "insertions": ins,
                               "residual": resid.to_obj()})
    return _report("string", instances, violations, missing)


def _check_dilaton(table: CorrelatorTable) -> dict:
    unit = ("0", 0)   # the unit class of the untwisted sector
    missing: List = []
    violations = []
    instances = 0
    for (n, d, ins) in list(table.keys()):
        if (unit, 1) not in ins or n < 4:
            continue
        rest = list(ins)
        rest.remove((unit, 1))
        instances += 1
        lhs = table.entries[(n, d, ins)]
        rhs = _value(table, d, rest, missing) * sc(n - 3)   # 2g - 2 + (n-1) at g = 0
        resid = lhs - rhs
        if not resid.is_zero:
            violations.append({"n": n, "d": list(d), "insertions": ins,
                               "residual": resid.to_obj()})
    return _report("dilaton", instances, violations, missing)


def _check_divisor(table: CorrelatorTable) -> dict:
    t = table.target
    missing: List = []
    violations = []
    instances = 0
    comp0 = t.by_id["0"]
    for (n, d, ins) in list(table.keys()):
        for j, (slot, k) in enumerate(ins):
            cid, idx = slot
            if cid != "0" or k != 0 or comp0.basis[idx].degree != 2 or n < 4:
                continue
            gamma = comp0.basis[idx]
            rest = list(ins[:j]) + list(ins[j + 1:])
            instances += 1
            lhs = table.entries[(n, d, ins)]
            pairing = sum((Frac(c) * di for c, di in zip(gamma.curve_pairing, d)), Frac(0))
            rhs = _value(table, d, rest, missing) * sc(pairing)
            for m, (slot2, k2) in enumerate(rest):
                if k2 == 0:
                    continue
                # gamma .orb a_j through the untwisted restriction and component product
                cid2, idx2 = slot2
                comp2 = t.by_id[cid2]
                restr = comp2.untwisted_restriction
                if restr is None:
                    continue
                for g_idx, w in enumerate(restr[idx]):
                    if not w:
                        continue
                    for out_idx, w2 in comp2.product(g_idx, idx2).items():
                        if not w2:
                            continue
                        lowered = rest[:m] + [((cid2, out_idx), k2 - 1)] + rest[m + 1:]
                        rhs = rhs + _value(table, d, lowered, missing) * sc(w * w2)
            resid = lhs - rhs
            if not resid.is_zero:
                violations.append({"n": n, "d": list(d), "insertions": ins,
                                   "residual": resid.to_obj()})
            break
    return _report("divisor", instances, violations, missing)


def _check_trr(table: CorrelatorTable) -> dict:
    """Genus-0 topological recursion in coefficient form: for distinct slots
    1, 2, 3 with k_1 >= 1 and the remaining slots split A | B,

      <a1 k1, a2 k2, a3 k3, rest> =
        sum_{A|B, d1+d2, alpha} <a1 (k1-1), A, phi_alpha> <phi^alpha, a2 k2, a3 k3, B>.
    """
    t = table.target
    gram = t.gram()
    ginv = mat_inv(gram)
    basis = t.flat_basis
    missing: List = []
    violations = []
    instances = 0
    for (n, d, ins) in list(table.keys()):
        if n < 3:
            continue
        seen = set()
        for i1 in range(n):
            if ins[i1][1] < 1:
                continue
            for i2 in range(n):
                for i3 in range(n):
                    if len({i1, i2, i3}) != 3:
                        continue
                    sig = (i1, tuple(sorted((ins[i2], ins[i3]))))
                    if sig in seen:
                        continue
                    seen.add(sig)
                    rest = [ins[j] for j in range(n) if j not in (i1, i2, i3)]
                    instances += 1
                    lhs = table.entries[(n, d, ins)]
                    rhs = SCALAR_ZERO
                    a1 = (ins[i1][0], ins[i1][1] - 1)
                    for amask in range(1 << len(rest)):
                        A = [rest[j] for j in range(len(rest)) if amask >> j & 1]
                        B = [rest[j] for j in range(len(rest)) if not amask >> j & 1]
                        for dsplit in _deg_splits(d):
                            d1, d2 = dsplit
                            for ai, aslot in enumerate(basis):
                                left = _value(table, d1, [a1] + A + [(aslot, 0)], missing)
                                if left.is_zero:
                                    continue
                                for bi, bslot in enumerate(basis):
                                    w = ginv[bi][ai]
                                    if w.is_zero:
                                        continue
                                    right = _value(table, d2,
                                                   [(bslot, 0), ins[i2], ins[i3]] + B, missing)
                                    rhs = rhs + left * w * right
                    resid = lhs - rhs
                    if not resid.is_zero:
                        violations.append({"n": n, "d": list(d), "insertions": ins,
                                           "split": [i1, i2, i3],
                                           "residual": resid.to_obj()})
    return _report("trr", instances, violations, missing)


def _deg_splits(d: Tuple[int, ...]):
    """All splittings d = d1 + d2 of a nonnegative multidegree."""
    if len(d) == 1:
        for a in range(d[0] + 1):
            yield (a,), (d[0] - a,)
        return
    head = d[0]
    for a in range(head + 1):
        for tail1, tail2 in _deg_splits(d[1:]):
            yield (a,) + tail1, (head - a,) + tail2
