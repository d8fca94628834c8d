"""The one metric tuple walk against the label walks it replaced.

magnitude_core._enumerate_tuples walks the tuples in integer codes and
decodes their labels a degree at a time. Here its decoded view is held to
a test-local copy of the label walk that built tuples directly (buckets,
keys and the order within each bucket alike), and the normed-group hom
nerve decoded from it to a copy of the construction that read that label
walk's buckets.
"""

from fractions import Fraction
from functools import partial

import pytest

from maghom import (
    cycle_digraph,
    cycle_graph,
    metric_of_normed_group,
    point_orbits,
)
from maghom.cli import builder_documents, parse_input
from maghom.iterated import _NormedNerves
from maghom.magnitude_core import (
    _betweenness,
    _enumerate_tuples,
    _metric_degen,
    _metric_face,
    _scaled_distances,
)
from maghom.simplicial import assemble_simplicial

from test_magnitude_core import _enumeration_cases


def _label_walk(X, max_degree, distinct, starts=None):
    """All finite-length tuples, bucketed by (degree, grading), keys
    sorted: the label walk as it was before tuples were coded."""
    D, L = _scaled_distances(X)
    steps = {
        x: [(p, D[x, p]) for p in X.points
            if D[x, p] is not None and not (distinct and p == x)]
        for x in X.points
    }
    level = [((p,), 0) for p in X.points if starts is None or p in starts]
    buckets = {}
    for n in range(max_degree + 1):
        if n:
            level = [(t + (p,), s + d) for t, s in level for p, d in steps[t[-1]]]
        by_length = {}
        for t, s in level:
            by_length.setdefault(s, []).append(t)
        for s in sorted(by_length):
            buckets[(n, Fraction(s, L))] = by_length[s]
    return buckets


def _old_normed_hom(N, max_q):
    """The normed group's hom nerve, lengths and scale, as _NormedNerves
    built them from the label walk's buckets."""
    X = metric_of_normed_group(N)
    scale = _scaled_distances(X)[1]
    lengths = {}
    columns = [[] for _ in range(max_q + 1)]
    for (q, ell), cols in _label_walk(X, max_q, False).items():
        columns[q] += cols
        lengths.update(dict.fromkeys(cols, int(ell * scale)))
    hom = assemble_simplicial(columns, partial(_metric_face, _betweenness(X)), _metric_degen)
    return hom, lengths, scale


def _start_sets(X):
    return [None] + [{p} for p in X.points] + [{o[0] for o in point_orbits(X)}]


def test_walk_decodes_to_the_label_walk(rnd):
    spaces = _enumeration_cases(rnd) + [cycle_graph(8), cycle_digraph(5)]
    for X in spaces:
        for starts in _start_sets(X):
            for distinct in (True, False):
                for n in range(5):
                    got = _enumerate_tuples(X, n, distinct, starts=starts).by_grading()
                    want = _label_walk(X, n, distinct, starts)
                    assert list(got) == list(want)
                    assert got == want


def test_walk_levels_are_its_buckets_in_code_order(rnd):
    """Each degree's labels, codes, lengths and bucket positions agree."""
    for X in _enumeration_cases(rnd) + [cycle_digraph(5)]:
        for distinct in (True, False):
            walk = _enumerate_tuples(X, 3, distinct)
            dist, L = _scaled_distances(X)
            assert walk.L == L
            for n in range(4):
                labels = walk.labels(n)
                assert len(labels) == len(walk.last[n]) == len(walk.length[n])
                for c, t in enumerate(labels):
                    assert t[-1] == walk.points[walk.last[n][c]]
                    assert walk.length[n][c] == sum(dist[a, b] for a, b in zip(t, t[1:]))
                    assert walk.buckets[n][walk.length[n][c]][walk.pos[n][c]] == c
                    if n:
                        assert labels[c][:-1] == walk.labels(n - 1)[walk.parent[n][c]]
                if n:
                    for s, f in enumerate(walk.first[n - 1]):
                        kids = [c for c, a in enumerate(walk.parent[n]) if a == s]
                        assert kids == list(range(f, f + len(kids)))


@pytest.mark.parametrize("name", ["z4-word-norm", "s3-word-norm", "d4-word-norm"])
def test_normed_hom_matches_the_label_walk_construction(name):
    N = parse_input(builder_documents()[name])
    for q in range(4):
        H = _NormedNerves(N, q)
        hom, lengths, scale = _old_normed_hom(N, q)
        got = H.homs["*", "*"]
        assert got.basis == hom.basis
        assert got.face == hom.face
        assert got.degeneracy == hom.degeneracy
        assert H.lengths == lengths
        assert H.scale == scale
