#!/usr/bin/env python3
"""Run the quintic quantum Lefschetz pipeline end to end and print the tables.

Usage: python scripts/run_quintic_pipeline.py [max_degree]

Walks through: closed-form J for P^4, hypergeometric modification by O(5),
nonequivariant limit, small-space expansion, mirror map, invariant
extraction.  Everything is exact; degree 8 takes well under a second.
"""

import sys
import time

from orbiqrr.genus0 import quintic_pipeline


def main():
    dmax = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    start = time.monotonic()
    result = quintic_pipeline(dmax)
    elapsed = time.monotonic() - start

    f = result["F"]
    print(f"F(Q)      = " + " + ".join(
        f"{f.get(0, (d,)).as_fraction()} Q^{d}" for d in range(dmax + 1)))
    gp = result["G"][("0", 1)]
    print(f"G^p(Q)    =     " + " + ".join(
        f"{gp.get(0, (d,)).as_fraction()} Q^{d}" for d in range(1, dmax + 1)))
    tau = result["tau"][("0", 1)]
    print(f"tau_p(Q)  =     " + " + ".join(
        f"{tau.get(0, (d,)).as_fraction()} Q^{d}" for d in range(1, dmax + 1)))
    table = result["invariants"]
    print()
    print(f"{'d':>3} {'N_d':>24} {'n_d':>18}")
    for d in sorted(table["N"]):
        print(f"{d:>3} {str(table['N'][d]):>24} {str(table['n'][d]):>18}")
    print(f"\ndone in {elapsed:.2f}s")


if __name__ == "__main__":
    main()
