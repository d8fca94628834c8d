"""Seeded input documents for the three benchmark workloads.

Each workload is a list of solves; a solve is one CLI argument vector plus
the JSON document fed to it on stdin. The seed only renames the group
elements and graph vertices and shuffles the order of list fields in the
documents (elements with their table rows, vertices, edges, subgroup
members, generators), so every seed asks the same mathematical question
and has the same expected answer. Where element or vertex order would
change how much work the solver does, it is kept fixed (see below).

The groups are built here from generators, independently of
``maghom.groups``, so that a change to the library cannot change the
benchmark's inputs.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

WORKLOADS = ("normed-diag", "catgroup-tot", "metric-cycle")


# ---------------------------------------------------------------------------
# small groups, as (elements in a canonical order, multiplication)


def _closure(identity, gens, mul) -> list:
    """Elements generated by gens, in breadth-first (canonical) order."""
    elems = [identity]
    seen = {identity}
    i = 0
    while i < len(elems):
        x = elems[i]
        i += 1
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                elems.append(y)
    return elems


def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_group(degree: int, gens) -> tuple[list, callable]:
    return _closure(tuple(range(degree)), [tuple(g) for g in gens], _perm_mul), _perm_mul


def _cycle(n: int, offset: int, degree: int) -> tuple:
    """The n-cycle on points offset..offset+n-1 inside S_degree."""
    p = list(range(degree))
    for i in range(n):
        p[offset + i] = offset + (i + 1) % n
    return tuple(p)


def _quat_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def small_groups() -> list[tuple[str, list, callable]]:
    """One group per isomorphism class of order at most 8 (14 groups)."""
    out = []
    for n in range(1, 9):
        gens = [_cycle(n, 0, n)] if n > 1 else []
        out.append((f"C{n}", *_perm_group(n, gens)))
    out.append(("V4", *_perm_group(4, [_cycle(2, 0, 4), _cycle(2, 2, 4)])))
    out.append(("S3", *_perm_group(3, [(1, 0, 2), (0, 2, 1)])))
    out.append(("C4xC2", *_perm_group(6, [_cycle(4, 0, 6), _cycle(2, 4, 6)])))
    out.append(("C2^3", *_perm_group(
        6, [_cycle(2, 0, 6), _cycle(2, 2, 6), _cycle(2, 4, 6)])))
    out.append(("D4", *_perm_group(4, [(1, 2, 3, 0), (0, 3, 2, 1)])))
    q8 = _closure((1, 0, 0, 0), [(0, 1, 0, 0), (0, 0, 1, 0)], _quat_mul)
    out.append(("Q8", q8, _quat_mul))
    return out


def normal_subgroups(elems: list, mul) -> list[list]:
    """Every normal subgroup, each in canonical element order, sorted by
    (order, canonical positions). Closures of at most three elements reach
    every subgroup at these orders."""
    e = elems[0]
    pos = {x: i for i, x in enumerate(elems)}
    inv = {x: y for x in elems for y in elems if mul(x, y) == e}
    found = set()
    for r in range(4):
        for seed in combinations(elems, r):
            found.add(frozenset(_closure(e, list(seed), mul)))
    normal = [
        s for s in found
        if all(mul(mul(g, n), inv[g]) in s for g in elems for n in s)
    ]
    return sorted((sorted(s, key=pos.get) for s in normal),
                  key=lambda s: (len(s), [pos[x] for x in s]))


# ---------------------------------------------------------------------------
# seeded documents


def _labels(rng: random.Random, n: int) -> list[str]:
    return [f"x{v}" for v in rng.sample(range(100, 1000), n)]


def _table_doc(rng: random.Random, elems: list, mul,
               shuffle: bool = True) -> tuple[dict, dict]:
    """elements/table fields under fresh labels, plus the map from element
    to label. With shuffle=False the elements keep their given order and
    the labels sort in that order too, so the program builds the same
    matrices for every seed."""
    labels = _labels(rng, len(elems))
    if not shuffle:
        labels.sort()
    name = dict(zip(elems, labels))
    order = list(elems)
    if shuffle:
        rng.shuffle(order)
    doc = {
        "elements": [name[x] for x in order],
        "table": [[name[mul(x, y)] for y in order] for x in order],
    }
    return doc, name


def _normed_diag(rng: random.Random) -> list[tuple[str, list, dict]]:
    # Element order is fixed (lexicographic, as in the s3-word-norm
    # builder): on this single instance the order of the elements moves the
    # column reduction's work by up to 5x between seeds, which would swamp
    # any change being measured. catgroup-tot shuffles the order of each of
    # its 64 instances, where the effect averages out.
    elems = list(permutations(range(3)))
    doc, name = _table_doc(rng, elems, _perm_mul, shuffle=False)
    transpositions = [name[p] for p in permutations(range(3))
                      if sum(p[i] != i for i in range(3)) == 2]
    rng.shuffle(transpositions)
    doc = {"kind": "normed-group", **doc, "word_norm_generators": transpositions}
    return [("s3-word-norm", ["--route", "diag", "--max-degree", "2"], doc)]


def _catgroup_tot(rng: random.Random) -> list[tuple[str, list, dict]]:
    solves = []
    for gname, elems, mul in small_groups():
        for k, sub in enumerate(normal_subgroups(elems, mul)):
            doc, name = _table_doc(rng, elems, mul)
            members = [name[x] for x in sub]
            rng.shuffle(members)
            doc = {"kind": "cat-group", **doc, "normal_subgroup": members}
            solves.append((f"{gname}/N{k}", ["--route", "tot", "--max-degree", "2"], doc))
    return solves


def _metric_cycle(rng: random.Random) -> list[tuple[str, list, dict]]:
    n = 8
    name = _labels(rng, n)
    vertices = list(name)
    rng.shuffle(vertices)
    edges = [[name[i], name[(i + 1) % n]] for i in range(n)]
    edges += [[name[(i + 1) % n], name[i]] for i in range(n)]
    rng.shuffle(edges)
    doc = {"kind": "digraph", "vertices": vertices, "edges": edges}
    return [("cycle-graph-8", ["--max-degree", "4"], doc)]


_BUILDERS = {
    "normed-diag": _normed_diag,
    "catgroup-tot": _catgroup_tot,
    "metric-cycle": _metric_cycle,
}


def solves(workload: str, seed: int) -> list[tuple[str, list, dict]]:
    """[(instance name, CLI flags after the document path, document)]."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
