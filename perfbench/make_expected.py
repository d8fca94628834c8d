"""Write perfbench/expected.json: the homology table each solve must print.

    python3 perfbench/make_expected.py

The tables are computed by the CLI on two seeds, which must agree, and are
checked against closed-form oracles that do not use the iterated
construction:

- every Cat-group pair: MH_0 = Z and MH_1 = the abelianized component
  group (``oracle_mh01_catgroup``);
- S3 word norm: grading 0 is group homology (``oracle_group_homology``),
  MH_2 at gradings 1 and 2 counts indecomposables (``oracle_mh2_normed``),
  and the diag route agrees with the tot route;
- the 8-cycle: MH_1 at every grading counts adjacent pairs
  (``oracle_mh1_metric``).

Run it only on a commit whose answers are trusted; the benchmark then
rejects any solve whose table differs.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import child
import workloads
from maghom import oracles
from maghom.cli import parse_input
from maghom.exact_linalg import FgAbelianGroup

SEEDS = (0, 1)


def table_of(argv, text) -> list:
    _, code, out, err = child.solve(argv, text)
    if code != 0:
        sys.exit(f"solve failed with exit {code}: {err}")
    return json.loads(out)["homology"]


def group_at(table: list, degree: int, grading) -> FgAbelianGroup:
    for row in table:
        if row["degree"] == degree and row["grading"] == grading:
            g = row["group"]
            return FgAbelianGroup.from_parts(g["rank"], g["torsion"])
    sys.exit(f"no entry at degree {degree}, grading {grading}")


def check_oracles(workload: str, text: str, table: list) -> None:
    obj = parse_input(text)
    ok = True
    if workload == "catgroup-tot":
        h0, h1 = oracles.oracle_mh01_catgroup(obj)
        ok = group_at(table, 0, None) == h0 and group_at(table, 1, None) == h1
    elif workload == "normed-diag":
        gh = oracles.oracle_group_homology(obj.group, 2)
        ok = all(group_at(table, k, "0") == gh.group(k) for k in range(3))
        ok = ok and all(
            group_at(table, 2, str(ell)) == oracles.oracle_mh2_normed(obj, ell)
            for ell in (1, 2)
        )
    elif workload == "metric-cycle":
        gradings = sorted({row["grading"] for row in table}, key=Fraction)
        if len(gradings) != 21:
            sys.exit(f"expected 21 gradings, got {len(gradings)}")
        ok = all(
            group_at(table, 1, ell) == oracles.oracle_mh1_metric(obj, Fraction(ell))
            for ell in gradings
        )
    if not ok:
        sys.exit(f"{workload}: table disagrees with the oracle")


def main() -> int:
    expected: dict = {}
    for workload in workloads.WORKLOADS:
        per_seed = []
        for seed in SEEDS:
            tables = {}
            for name, argv, text in child.prepare(workload, seed):
                tables[name] = table_of(argv, text)
                check_oracles(workload, text, tables[name])
                if workload == "normed-diag":
                    tot = [a if a != "diag" else "tot" for a in argv]
                    if table_of(tot, text) != tables[name]:
                        sys.exit(f"{name}: diag and tot routes disagree")
            per_seed.append(tables)
        if any(t != per_seed[0] for t in per_seed):
            sys.exit(f"{workload}: tables depend on the seed")
        expected[workload] = per_seed[0]
        print(f"{workload}: {len(per_seed[0])} tables, oracles pass", flush=True)
    path = os.path.join(child.HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
