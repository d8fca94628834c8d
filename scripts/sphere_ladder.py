#!/usr/bin/env python3
"""Compute the homology ladder of the sphere-like n-categories.

For each n the table should read Z in degrees 0 and n and vanish in
between; the script also checks the suspension prediction step by step,
and exits 1 if any step disagrees.
"""

import argparse
import sys
import time

from maghom import (
    FgAbelianGroup,
    HomologyTable,
    homology_table,
    mb_n,
    oracle_suspension,
    sphere_ncat,
    unnormalized_chains,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3)
    args = parser.parse_args()

    predicted = HomologyTable({(0, None): FgAbelianGroup(2)})
    mismatches = 0
    for n in range(1, args.max_n + 1):
        start = time.monotonic()
        S = mb_n(sphere_ncat(n), n + 2)
        table = homology_table(unnormalized_chains(S), n + 1)
        elapsed = time.monotonic() - start
        predicted = oracle_suspension(predicted, n + 1)
        agree = all(table.group(k) == predicted.group(k) for k in range(n + 2))
        mismatches += not agree
        row = ", ".join(str(table.group(k)) for k in range(n + 2))
        sizes = [S.dim(k) for k in range(n + 3)]
        print(f"n={n}: [{row}]  generators {sizes}  "
              f"prediction {'ok' if agree else 'MISMATCH'}  ({elapsed:.2f}s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
