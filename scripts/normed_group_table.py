#!/usr/bin/env python3
"""Print the graded homology table of a normed group and the closed-form
predictions next to it, optionally comparing both computation routes;
exits 1 if the routes disagree.
"""

import argparse
import sys
import time

from maghom import (
    cyclic_group,
    dihedral_group,
    make_normed_group,
    normed_group_homology,
    oracle_group_homology,
    oracle_mh2_normed,
    symmetric_group,
    word_norm_group,
)

STOCK = {
    "z2": lambda: make_normed_group(cyclic_group(2), {0: 0, 1: 1}),
    "z4": lambda: word_norm_group(cyclic_group(4), [1]),
    "s3": lambda: word_norm_group(symmetric_group(3), [(1, 0, 2)]),
    "d4": lambda: word_norm_group(dihedral_group(4), [("r", 1), ("s", 0)]),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("group", choices=sorted(STOCK), help="stock normed group")
    parser.add_argument("--max-degree", type=int, default=2)
    parser.add_argument("--compare-routes", action="store_true")
    args = parser.parse_args()

    N = STOCK[args.group]()
    K = args.max_degree
    start = time.monotonic()
    table = normed_group_homology(N, "norm-values", K, route="tot")
    elapsed = time.monotonic() - start
    gh = oracle_group_homology(N.group, K)

    print(f"{args.group}: norm values {sorted(set(map(str, N.norm.values())))}")
    for (k, ell), grp in table.items():
        note = ""
        if ell == 0:
            note = f"   (group homology predicts {gh.group(k)})"
        elif k == 2 and ell is not None and ell > 0:
            note = f"   (indecomposable classes predict {oracle_mh2_normed(N, ell)})"
        print(f"  MH_{k}^{ell} = {grp}{note}")
    print(f"total-complex route: {elapsed:.2f}s")

    if args.compare_routes:
        start = time.monotonic()
        diag = normed_group_homology(N, "norm-values", K, route="diag")
        print(f"diagonal route: {time.monotonic() - start:.2f}s "
              f"({'agree' if diag == table else 'MISMATCH'})")
        return 0 if diag == table else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
