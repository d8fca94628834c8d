"""Metric magnitude homology from one start point per isometry orbit.

metric_homology builds one block MC(a, .) per class of point_orbits and
counts it |class| times. These tests compare it with the unsplit complex,
and the classes with the orbits of brute-force isometry groups.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from maghom import (
    INF,
    ValidationError,
    cycle_digraph,
    cycle_graph,
    discrete_space,
    magnitude_complex_metric,
    make_metric_space,
    metric_from_digraph,
    metric_homology,
    metric_of_normed_group,
    point_orbits,
    reachable_gradings,
    symmetric_group,
    tensor_metric,
    word_norm_group,
)
from maghom import magnitude_core
from maghom.cli import builder_documents, parse_input
from maghom.complexes import graded_homology_table
from maghom.magnitude_core import _enumerate_tuples

from conftest import random_metric_space

LINE3 = make_metric_space(
    ["a", "b", "c"],
    {("a", "a"): 0, ("b", "b"): 0, ("c", "c"): 0,
     ("a", "b"): 1, ("b", "a"): 1, ("b", "c"): 1, ("c", "b"): 1,
     ("a", "c"): 2, ("c", "a"): 2},
)


def _unsplit_metric_homology(X, max_degree, gradings="all-reachable"):
    """metric_homology before the orbit split: one complex over every
    start point, reduced grading by grading."""
    G = magnitude_complex_metric(X, max_degree + 1, gradings)
    return graded_homology_table(G, max_degree)


def _builder_metrics():
    out = []
    for name, doc in builder_documents().items():
        if doc["kind"] in ("metric", "digraph"):
            out.append((name, parse_input(doc)))
        elif doc["kind"] == "tensor":
            _, left, right = parse_input(doc)
            out.append((name, tensor_metric(left, right)))
    return out


def _s3_word_metric():
    return metric_of_normed_group(word_norm_group(symmetric_group(3), [(1, 0, 2)]))


def _differential_cases():
    rnd = random.Random(13)
    cases = _builder_metrics()
    cases += [(f"cycle_graph({n})", cycle_graph(n)) for n in range(3, 9)]
    cases += [(f"cycle_digraph({n})", cycle_digraph(n)) for n in range(3, 7)]
    cases += [("discrete(3, 1)", discrete_space(3, 1)),
              ("discrete(3, 1/2)", discrete_space(3, Fraction(1, 2))),
              ("discrete(3, INF)", discrete_space(3, INF))]
    cases += [(f"random complete {i}", random_metric_space(rnd, 4, complete=True))
              for i in range(3)]
    cases += [(f"random partial {i}", random_metric_space(rnd, 4, complete=False))
              for i in range(3)]
    cases += [(f"random 5 points {c}", random_metric_space(rnd, 5, complete=c))
              for c in (True, False)]
    cases += [("cycle3 x 2pt", tensor_metric(cycle_graph(3), discrete_space(2, 1))),
              ("s3 word metric", _s3_word_metric()),
              ("empty", discrete_space(0, 1)),
              ("one point", discrete_space(1, 1))]
    return cases


def _degree_for(X):
    return 3 if len(X.points) <= 4 else 2


@pytest.mark.parametrize("name,X", _differential_cases(),
                         ids=[name for name, _ in _differential_cases()])
def test_split_homology_matches_unsplit_complex(name, X):
    D = _degree_for(X)
    want = _unsplit_metric_homology(X, D)
    got = metric_homology(X, D)
    # every row, zero rows included, in the same order
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("name,X", _differential_cases(),
                         ids=[name for name, _ in _differential_cases()])
def test_split_homology_matches_unsplit_on_explicit_gradings(name, X):
    D = _degree_for(X)
    reachable = reachable_gradings(X, D + 1)
    assert Fraction(1, 7) not in reachable
    for wanted in ([0], reachable[-1:], reachable[1:3], [Fraction(1, 7), 1]):
        want = _unsplit_metric_homology(X, D, wanted)
        got = metric_homology(X, D, wanted)
        assert list(got.items()) == list(want.items())


def _brute_orbits(X):
    pts = list(X.points)
    parent = {p: p for p in pts}

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for image in permutations(pts):
        g = dict(zip(pts, image))
        if all(X.d(x, y) == X.d(g[x], g[y]) for x in pts for y in pts):
            for p in pts:
                parent[find(p)] = find(g[p])
    classes = {}
    for p in pts:
        classes.setdefault(find(p), set()).add(p)
    return {frozenset(c) for c in classes.values()}


def _random_graph_metric(rnd, n):
    """Shortest paths in a random graph: mostly an undirected graph with
    unit edges, so symmetries are common, otherwise a digraph with weights
    1 and 2. Unreachable pairs sit at INF."""
    symmetric = rnd.random() < 0.7
    edges, weights = [], {}
    for u in range(n):
        for v in range(n):
            if u < v or (not symmetric and u != v):
                if rnd.random() < 0.6:
                    w = 1 if symmetric else rnd.choice((1, 2))
                    pairs = [(u, v), (v, u)] if symmetric else [(u, v)]
                    for e in pairs:
                        edges.append(e)
                        weights[e] = w
    return metric_from_digraph(range(n), edges, weights)


def _check_orbit_form(X, orbits):
    """Every point in one class; each class in point order from its
    representative, the classes in the order of their representatives."""
    order = {p: i for i, p in enumerate(X.points)}
    assert sorted(order[p] for o in orbits for p in o) == list(range(len(X.points)))
    for o in orbits:
        assert [order[p] for p in o] == sorted(order[p] for p in o)
    assert [order[o[0]] for o in orbits] == sorted(order[o[0]] for o in orbits)


def test_orbits_match_brute_force_isometry_groups():
    rnd = random.Random(2026)
    nontrivial = 0
    for _ in range(60):
        n = rnd.randint(1, 6)
        if rnd.random() < 0.5:
            X = _random_graph_metric(rnd, n)
        else:
            X = random_metric_space(rnd, n, complete=rnd.random() < 0.5)
        orbits = point_orbits(X)
        _check_orbit_form(X, orbits)
        assert {frozenset(o) for o in orbits} == _brute_orbits(X)
        nontrivial += any(len(o) > 1 for o in orbits)
    assert nontrivial >= 10


def test_orbits_where_the_search_backtracks():
    """On this graph a first choice of images fails deep in the search; an
    image given up on backtracking must be free for the next try."""
    edges = [(0, 1), (0, 2), (0, 5), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (4, 5)]
    X = metric_from_digraph(range(6), edges + [(v, u) for u, v in edges])
    assert {frozenset(o) for o in point_orbits(X)} == _brute_orbits(X)


def test_zero_budget_gives_singletons_and_the_same_table(monkeypatch):
    X = cycle_graph(6)
    want = metric_homology(X, 2)
    monkeypatch.setattr(magnitude_core, "_ORBIT_BUDGET", 0)
    assert point_orbits(X) == [(p,) for p in X.points]
    assert list(metric_homology(X, 2).items()) == list(want.items())


def test_relabelled_shuffled_cycle_is_one_orbit():
    rnd = random.Random(8)
    names = [f"x{v}" for v in rnd.sample(range(100, 1000), 8)]
    vertices = list(names)
    rnd.shuffle(vertices)
    edges = [(names[i], names[(i + 1) % 8]) for i in range(8)]
    edges += [(b, a) for a, b in edges]
    rnd.shuffle(edges)
    orbits = point_orbits(metric_from_digraph(vertices, edges))
    assert len(orbits) == 1 and sorted(orbits[0]) == sorted(names)
    assert orbits[0][0] == vertices[0]


def test_three_point_line_orbits():
    assert point_orbits(LINE3) == [("a", "c"), ("b",)]
    assert sorted(len(o) for o in point_orbits(LINE3)) == [1, 2]


def _twin_ends_graph():
    """Points 2 and 5 have the same distances (1, 1, 2, 2, 3) to the others,
    but no isometry swaps them: the neighbours 0, 1 of 2 are not adjacent,
    the neighbours 3, 4 of 5 are."""
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (3, 4), (3, 5), (4, 5)]
    return metric_from_digraph(range(6), edges + [(v, u) for u, v in edges])


def test_orbits_only_merge_through_checked_isometries(monkeypatch):
    """A search that returns a map which is not an isometry must not merge
    two points: the whole-table check rejects it."""
    def swap(D, pts, sig, a, b, budget):
        g = {p: p for p in pts}
        g[a], g[b] = b, a
        return g

    X = _twin_ends_graph()
    brute = _brute_orbits(X)
    assert frozenset([2, 5]) not in brute
    want = _unsplit_metric_homology(X, 2)
    monkeypatch.setattr(magnitude_core, "_find_isometry", swap)
    for o in point_orbits(X):
        assert any(set(o) <= B for B in brute)
    assert list(metric_homology(X, 2).items()) == list(want.items())


def test_starts_restrict_to_their_blocks():
    for X in (LINE3, cycle_digraph(4), random_metric_space(random.Random(4), 4, False)):
        full = _enumerate_tuples(X, 3, True).by_grading()
        G = magnitude_complex_metric(X, 3)
        assert _enumerate_tuples(X, 3, True, starts=X.points).by_grading() == full
        assert magnitude_complex_metric(X, 3, starts=X.points) == G
        for S in [{a} for a in X.points] + [set(X.points[:2])]:
            part = _enumerate_tuples(X, 3, True, starts=S).by_grading()
            assert part == {k: [t for t in v if t[0] in S]
                            for k, v in full.items() if any(t[0] in S for t in v)}
            block = magnitude_complex_metric(X, 3, starts=S)
            assert set(block.pieces) == set(G.pieces)
            for ell, piece in block.pieces.items():
                assert piece.basis == tuple(
                    tuple(t for t in level if t[0] in S) for level in G.pieces[ell].basis)
    with pytest.raises(ValidationError, match="not a point"):
        _enumerate_tuples(LINE3, 2, True, starts=["a", "z"])
