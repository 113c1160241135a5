#!/usr/bin/env python3
"""Exercise the exact identity suites across the built-in targets and print a summary.

Usage: python scripts/run_identity_suites.py [seed]

Covers: A_m adjointness, Delta symplectomorphism, Euler gamma-factor z^1
value, universal equations on the point, the quantization cocycle, and the
Serre cone checks.  Any failure raises.
"""

import random
import sys
from fractions import Fraction

from orbiqrr.exactalg import Scalar, sc
from orbiqrr.fockquant import commutator_cocycle, mat_eye_like
from orbiqrr.genus0 import build_point_table, check_universal_equation
from orbiqrr.linalg import (
    gram_matrix,
    mat_inv,
    mat_is_zero,
    mat_mul,
    mat_transpose,
    multiplication_matrix,
)
from orbiqrr.loopops import (
    check_delta_symplectomorphism,
    class_Am,
    euler_s_values,
    log_delta_classes,
)
from orbiqrr.orbtarget import (
    bmu,
    bmu_character,
    point,
    projective_space,
    trivial_bundle,
    weighted_projective,
    wps_pullback_line,
)
from orbiqrr.serre import check_serre_cone

sys.path.insert(0, "tests")
from helpers import random_bundle  # noqa: E402

Frac = Fraction


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    rng = random.Random(seed)
    s = [sc(0), sc(Frac(1, 2)), sc(Frac(-2, 3)), sc(Frac(1, 5))]

    for t in [bmu(r) for r in (2, 3, 4, 5, 6)] + [weighted_projective([1, 1, 2])]:
        F = random_bundle(t, rng)
        g = gram_matrix(t)
        for m in range(2, 10):
            mult = multiplication_matrix(t, class_Am(t, F, m))
            adj = mat_mul(mat_inv(g), mat_mul(mat_transpose(mult), g))
            sign = sc((-1) ** (m % 2))
            assert mat_is_zero([[x - y * sign for x, y in zip(r1, r2)]
                                for r1, r2 in zip(adj, mult)])
        print(f"adjointness        ok on {t.name}")

    for t, F in ((bmu(3), bmu_character(bmu(3), 1)),
                 (weighted_projective([1, 1, 2]),
                  random_bundle(weighted_projective([1, 1, 2]), rng))):
        report = check_delta_symplectomorphism(t, F, s, 4)
        assert report["symplectic"]
        print(f"symplectomorphism  ok on {t.name} through z^4")

    t = point()
    blocks = log_delta_classes(t, trivial_bundle(t, 1), euler_s_values(5), 3)
    assert blocks[1].coeff("0", 0) == sc(Frac(1, 12)) * Scalar.lam(-1)
    print("euler gamma        ok (z^1 block = 1/(12 lambda))")

    table = build_point_table(t, 8)
    for kind in ("string", "dilaton", "trr"):
        assert check_universal_equation(kind, table)["ok"]
    print("universal eqs      ok on the point, n <= 8")

    val = commutator_cocycle(t, (mat_eye_like(t), 1), (mat_eye_like(t), -1), 6)
    assert val == sc(Frac(-1, 2))
    print("cocycle            ok ([z^, (1/z)^] = -1/2)")

    t1 = projective_space(1)
    assert check_serre_cone(t1, wps_pullback_line(t1, 1),
                            [Scalar.log_lambda(), sc(Frac(1, 2)), sc(Frac(-1, 3))], 3)["ok"]
    t2 = bmu(2)
    assert check_serre_cone(t2, bmu_character(t2, 1),
                            [sc(0), sc(Frac(2, 7)), sc(Frac(1, 5))], 3)["ok"]
    print("serre cone         ok on P1/O(1) and Bmu2 through z^3")
    print("\nall identity suites passed")


if __name__ == "__main__":
    main()
