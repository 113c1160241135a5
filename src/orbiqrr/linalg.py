"""Small exact matrices of Scalars over a target's flat cohomology basis."""

from __future__ import annotations

from typing import List, Tuple

from .errors import NonInvertible
from .exactalg import SCALAR_ONE, SCALAR_ZERO, Scalar
from .orbtarget import CohClass, TargetModel

Matrix = List[List[Scalar]]
FrozenMatrix = Tuple[Tuple[Scalar, ...], ...]     # a memo no caller can change


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m = len(a), len(b[0])
    k = len(b)
    out = [[SCALAR_ZERO] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            x = a[i][t]
            if x.is_zero:
                continue
            row_b = b[t]
            row_o = out[i]
            for j in range(m):
                y = row_b[j]
                if not y.is_zero:
                    row_o[j] = row_o[j] + x * y
    return out


def mat_transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero for row in a for x in row)


def mat_inv(a: Matrix) -> Matrix:
    """Gauss-Jordan over the scalar field; entries must be log-free."""
    n = len(a)
    m = [[x for x in row] + [SCALAR_ONE if i == j else SCALAR_ZERO for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero), None)
        if piv is None:
            raise NonInvertible("singular matrix")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = m[col][col].inverse()
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def multiplication_matrix(t: TargetModel, cls: CohClass) -> Matrix:
    """Matrix of ordinary multiplication by cls on the flat basis: column j
    holds cls.mul(e_j), so every product goes through ``CohClass.mul``.
    Block diagonal, since ordinary products never mix components."""
    n = len(t.flat_basis)
    out = [[SCALAR_ZERO] * n for _ in range(n)]
    for j, slot in enumerate(t.flat_basis):
        for key, c in cls.mul(CohClass(t, {slot: SCALAR_ONE})).terms.items():
            out[t.flat_index[key]][j] = c
    return out


def gram_matrix(t: TargetModel) -> FrozenMatrix:
    return t.gram()


def gram_inverse(t: TargetModel) -> FrozenMatrix:
    """The inverse of the target's Gram matrix, computed once per target."""
    return t.gram_inverse()
