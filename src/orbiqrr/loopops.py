"""Loop-group machinery: the Bernoulli-weighted classes A_m, log Delta, Delta,
Euler-class s-values, adjoints, and symplectomorphism checks.

A LoopOperator is a z-Laurent window of endomorphisms of H^*(IX), each block
ordinary multiplication by a class.  Every operator the theory builds (log
Delta, Delta, their inverses, adjoints, z-flips, sums and products) is of
that kind, so an operator M(z) is the series M(z) . 1 in the space that
holds J: a GiventalElement, whose products are class products
(``WindowedSeries.product``) and whose adjoint is the involution
transport.  A block's matrix on the flat basis is derived on demand, for
reports that list entries.

Delta = exp(log Delta) goes through ``orbtarget.graded_exp``, the package's
one exponential: per component, the weight-graded recurrence in which a
piece z^n x of log Delta has weight n + deg x (>= 1, because the z^(-1)
blocks have degree >= 2).  The kernel drops every product above its window
top.  A dropped term can come back down only through z^(-1) blocks, each
of which raises the degree by at least 2, so at most dim X times: with the
log window taken up to zmax + dim X, the blocks <= zmax are exact and the
ones above are not, which is why ``delta_operator`` keeps only those.
Delta's window starts at depth dim X + 1, z^(-dim X - 1), below every
block: on X_i a z^(-k) term has at least k factors from the z^(-1) block,
each of degree >= 2, so it vanishes for k > dim X_i; and no X_i is larger
than X itself (component 0), by age reciprocity and the nonnegative ages
``TargetModel.validate`` demands.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .bernoulli import bernoulli_value
from .errors import TruncationTooNarrow
from .exactalg import SCALAR_ZERO, Scalar, sc
from .givental import GiventalElement
from .linalg import (
    Matrix,
    gram_inverse,
    gram_matrix,
    mat_is_zero,
    mat_mul,
    mat_transpose,
    multiplication_matrix,
)
from .orbtarget import BundleModel, CohClass, TargetModel, graded_exp

Frac = Fraction


class LoopOperator(GiventalElement):
    """A window [zmin, zmax] of multiplication operators on H^*(IX), one per z-power.

    The operator M(z) is held as the series M(z) . 1: a GiventalElement with
    keys (n, ()), whose z^n block acts as ordinary multiplication by that
    class.  Since ``multiplication_matrix`` is an injective ring map, class
    equality, class products and the involution transport are matrix
    equality, matrix products and the adjoint g^-1 B^T g.

    The window is the WindowedSeries one: blocks above zmax are unknown, so
    an operator known to vanish above z^k is declared on any zmax >= k.  A
    block has no Novikov degree, so the operator is known at every one
    (dmax is unbounded) and applying it keeps the element's Novikov window.
    """

    __slots__ = ()

    def __init__(self, target: TargetModel, zmin: int, zmax: int,
                 classes: Dict[int, CohClass]):
        super().__init__(target, zmin, zmax, math.inf,
                         {(n, ()): c for n, c in classes.items()})

    def _empty(self, zmin: int, zmax: int, dmax) -> "LoopOperator":
        return LoopOperator(self.target, zmin, zmax, {})

    @property
    def mult_classes(self) -> Dict[int, CohClass]:
        """The multiplier class of each z-power (a read-only view)."""
        return {n: c for (n, _d), c in self.data.items()}

    def block(self, n: int) -> Matrix:
        """The z^n block as a matrix on the flat basis."""
        return multiplication_matrix(self.target, self.get(n, ()))

    # -- algebra

    def compose(self, o: "LoopOperator") -> "LoopOperator":
        """(self . o)(z): blocks C_n = sum_{a+b=n} A_a B_b, on the product window."""
        return self.product(o, lambda a, b: a.mul(b))

    def flip_z(self) -> "LoopOperator":
        """M(z) -> M(-z): blocks keep their exponent, odd ones change sign."""
        return self.map(lambda n, d, c: c if n % 2 == 0 else -c)

    def sub_identity(self) -> "LoopOperator":
        """self - 1, for residual reporting."""
        out = self.copy_window(self.zmin, self.zmax, 0)
        out.add_to(0, (), -self.target.unit_everywhere())
        return out

    def apply(self, e: GiventalElement) -> GiventalElement:
        """M(z) e(z) on the product window, with e's Novikov window."""
        return e.product(self, lambda x, c: c.mul(x))


# -- adjoints ------------------------------------------------------------------


def adjoint(t: TargetModel, M: LoopOperator) -> LoopOperator:
    """Blockwise adjoint with respect to the orbifold pairing.

    The adjoint of multiplication by a class is multiplication by its
    involution transport.
    """
    return M.map(lambda n, d, c: t.involution_transport(c))


def twisted_gram(t: TargetModel, F: BundleModel, s_values: Sequence[Scalar]) -> Matrix:
    """Gram matrix of the twisted pairing (a, b)_{(c,F)} = (a c, b) on the flat
    basis: M^T g, with M the multiplication matrix of the twist class c."""
    tw = F.twist_class([sc(x) for x in s_values])
    return mat_mul(mat_transpose(multiplication_matrix(t, tw)), gram_matrix(t))


def _residual_report(t: TargetModel, prod: LoopOperator, lo: int, hi: int) -> dict:
    bad = {}
    for n in range(lo, hi + 1):
        if (n, ()) in prod.data:
            entries = []
            for i, row in enumerate(prod.block(n)):
                for j, x in enumerate(row):
                    if not x.is_zero:
                        entries.append({
                            "row": "/".join(map(str, t.flat_basis[i])),
                            "col": "/".join(map(str, t.flat_basis[j])),
                            "value": x.to_obj(),
                        })
            bad[n] = entries
    return {
        "symplectic": not bad,
        "checked_range": [lo, hi],
        "max_clean_degree": (min(bad) - 1) if bad else hi,
        "offending_blocks": bad,
    }


def check_symplectomorphism(t: TargetModel, M: LoopOperator) -> dict:
    """Report on M*(-z) M(z) - 1 over the window where the product is known."""
    prod = adjoint(t, M).flip_z().compose(M).sub_identity()
    return _residual_report(t, prod, prod.zmin, prod.zmax)


def check_delta_symplectomorphism(t: TargetModel, F: BundleModel,
                                  s_values: Sequence[Scalar], zmax: int,
                                  with_operators: bool = False):
    """Verify Delta*(-z) Delta(z) = 1 through z-degree zmax by direct product.

    Delta is built on the window [-depth, zmax + depth], depth = dim X + 1,
    and ``check_symplectomorphism`` reports on the product.  Its two factors
    have unknown tails above zmax + depth and lowest power -depth, so the
    product window tops out at exactly zmax; TruncationTooNarrow is raised
    if the reported top falls short of it.  The report also notes whether
    the infinitesimal identity log Delta*(-z) + log Delta(z) = 0 held on the
    built window (it implies the product identity to all orders, since the
    multiplication blocks commute).

    With ``with_operators`` it returns (report, log Delta, Delta) on the
    built windows: cut to zmax, they are ``log_delta`` and ``delta_operator``
    at zmax, whose blocks are exact in both windows.
    """
    depth = t.dim + 1
    L, d = _log_delta_and_delta(t, F, s_values, zmax + depth, zmax + depth)
    report = check_symplectomorphism(t, d)
    top = report["checked_range"][1]
    if top < zmax:
        raise TruncationTooNarrow(f"product reliable only to z^{top}, needed z^{zmax}")
    resid = adjoint(t, L).flip_z() + L
    report["log_residual_zero"] = resid.is_zero
    return (report, L, d) if with_operators else report


def is_infinitesimally_symplectic(t: TargetModel, B: Matrix, m: int) -> bool:
    """B z^m is infinitesimally symplectic iff B* = (-1)^(m+1) B."""
    badj = mat_mul(gram_inverse(t), mat_mul(mat_transpose(B), gram_matrix(t)))
    sign = sc((-1) ** (m + 1))
    diff = [[x - y * sign for x, y in zip(r1, r2)] for r1, r2 in zip(badj, B)]
    return mat_is_zero(diff)


# -- the Bernoulli-weighted classes and log Delta --------------------------------


def class_Am(t: TargetModel, F: BundleModel, m: int) -> CohClass:
    """A_m restricted to X_i is sum_{0<=l<r_i} ch(F_i^(l)) B_m(l / r_i)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    terms: Dict[Tuple[str, int], Scalar] = {}
    for (cid, l), cls in F.eigen.items():    # the nonzero eigen parts only
        w = bernoulli_value(m, Frac(l, t.component(cid).r))
        if w:
            for k, v in cls.terms.items():
                terms[k] = terms.get(k, SCALAR_ZERO) + v.scaled(w)
    return CohClass(t, terms)


def euler_s_values(kmax: int, include_log: bool = True) -> List[Scalar]:
    """Euler-class specialization: s_0 = ln(lambda), s_k = (-1)^(k-1) (k-1)! / lambda^k.

    With include_log=False the s_0 slot is zero (cone-level work where it
    only contributes scalar factors).
    """
    out = [Scalar.log_lambda() if include_log else SCALAR_ZERO]
    fact = 1
    for k in range(1, kmax + 1):
        if k >= 2:
            fact *= (k - 1)
        out.append(sc(Frac((-1) ** (k - 1) * fact)) * Scalar.lam(-k))
    return out


def log_delta_classes(t: TargetModel, F: BundleModel, s_values: Sequence[Scalar],
                      zmax: int) -> Dict[int, CohClass]:
    """Multiplier classes of log Delta per z-power.

    z^(m-1) block (m >= 1): sum_k s_k (A_m)_{k+1-m} / m!;
    z^0 additionally gains sum_k s_k ch_k(F^(0)) / 2;
    z^(-1) block: sum_k s_k (A_0)_{k+1}.
    """
    s = [sc(x) for x in s_values]
    dim = t.dim
    blocks: Dict[int, CohClass] = {}

    def add(n: int, cls: CohClass):
        if cls.is_zero:
            return
        blocks[n] = blocks.get(n, t.zero_class()) + cls

    fact = 1
    for m in range(1, zmax + 2):
        fact *= m
        n = m - 1
        if n > zmax:
            break
        hs = [h for h in range(dim + 1) if m + h - 1 < len(s) and not s[m + h - 1].is_zero]
        if not hs:
            continue
        am = class_Am(t, F, m)
        for h in hs:
            part = am.degree_part(2 * h)
            if not part.is_zero:
                add(n, part.scale(s[m + h - 1] * sc(Frac(1, fact))))
    inv = F.invariant_part()
    for k, sk in enumerate(s):
        if sk.is_zero:
            continue
        part = inv.degree_part(2 * k)
        if not part.is_zero:
            add(0, part.scale(sk * sc(Frac(1, 2))))
    a0 = class_Am(t, F, 0)
    for k, sk in enumerate(s):
        if sk.is_zero:
            continue
        part = a0.degree_part(2 * (k + 1))
        if not part.is_zero:
            add(-1, part.scale(sk))
    return blocks


def log_delta(t: TargetModel, F: BundleModel, s_values: Sequence[Scalar],
              zmax: int) -> LoopOperator:
    """log Delta as a multiplication-type loop operator on [-1, zmax]."""
    return LoopOperator(t, -1, zmax, log_delta_classes(t, F, s_values, zmax))


def delta_operator(t: TargetModel, F: BundleModel, s_values: Sequence[Scalar],
                   zmax: int) -> LoopOperator:
    """Delta = exp(log Delta), computed per component in the commutative
    multiplier ring H^*(X_i)[z, 1/z] with exact scalar exponentials for the
    (z^0, degree-0) part.

    The exponential (``graded_exp``) runs on the z-window up to zmax + dim(X),
    so every emitted block <= zmax is exact (see the module docstring);
    the blocks above zmax are unknown.  ln(lambda) enters only through s_0:
    the heads and the z^(-1) block s_0 c1(F), exponentiated apart.
    """
    return _delta_from(t, log_delta_classes(t, F, s_values, zmax + t.dim), zmax)


def _delta_from(t: TargetModel, logs: Dict[int, CohClass], zmax: int) -> LoopOperator:
    """Delta through zmax from the log blocks through zmax + dim(X)."""
    zmin_out = -t.dim - 1
    blocks = graded_exp(t, {(n, ()): c for n, c in logs.items()}, zmin_out, zmax + t.dim, 0)
    out = LoopOperator(t, zmin_out, zmax, {})
    out.data = {k: c for k, c in blocks.items() if k[0] <= zmax}
    return out


def _log_delta_and_delta(t: TargetModel, F: BundleModel, s_values: Sequence[Scalar],
                         log_zmax: int, delta_zmax: int) -> Tuple[LoopOperator, LoopOperator]:
    """log_delta(..., log_zmax) and delta_operator(..., delta_zmax) from one
    expansion of the log blocks: a block of log Delta does not depend on the
    window, so the narrower window's blocks are the wider one's up to its top."""
    logs = log_delta_classes(t, F, s_values, max(log_zmax, delta_zmax + t.dim))
    narrow = {n: c for n, c in logs.items() if n <= log_zmax}
    return LoopOperator(t, -1, log_zmax, narrow), _delta_from(t, logs, delta_zmax)


def delta_inverse(t: TargetModel, F: BundleModel, s_values: Sequence[Scalar],
                  zmax: int) -> LoopOperator:
    neg = [-sc(x) for x in s_values]
    return delta_operator(t, F, neg, zmax)


def genus1_prefactor_symbol(t: TargetModel, F: BundleModel) -> str:
    """The descendant-level scalar prefactor, carried as an uninterpreted symbol.

    Its exponent mixes s_0 with the target's genus-1 constants, which have no
    closed form here; nothing ever evaluates it.
    """
    psibar = t.genus1_constants["psibar_110"]
    c1f = t.genus1_constants["c1F_110"]
    return f"exp(-(s_0/2) rank(F={F.name}) {psibar} + s_0 {c1f})"
