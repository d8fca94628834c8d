"""metric_homology's streamed top degree against the tabulated complex.

metric_homology tabulates each grading's complex through max_degree
(magnitude_complex_metric) and streams degree max_degree + 1 from integer
codes (magnitude_core._TupleCodes.extend). Here each streamed complex is
compared with magnitude_complex_metric(X, max_degree + 1, ...): bases with
their decoded labels, lower boundaries, every top column in order with its
entries in insertion order, and the homology. The reference's own top is
held to a test-local copy of the tuple face rule the builder used before
it read faces from codes.
"""

import gc
from fractions import Fraction
from itertools import zip_longest

import pytest

from maghom import (
    INF,
    InvalidComplexError,
    cycle_digraph,
    cycle_graph,
    discrete_space,
    magnitude_complex_metric,
    metric_from_digraph,
    metric_homology,
    point_orbits,
    reachable_gradings,
    tensor_metric,
)
from maghom import magnitude_core
from maghom.cli import builder_documents, parse_input
from maghom.complexes import GradedChainComplex, graded_homology_table
from maghom.exact_linalg import CodedLabels, ColumnStream
from maghom.magnitude_core import _enumerate_tuples, _TupleCodes, is_between

TWO_POINT = parse_input(builder_documents()["two-point-metric"])

# one way round a square with a chord, weights over a common denominator
# of 6; nothing leads back to "a", so every distance into it is infinite
RATIONAL = metric_from_digraph(
    "abcd",
    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b"), ("a", "c")],
    {("a", "b"): Fraction(1, 2), ("b", "c"): Fraction(2, 3), ("c", "d"): 1,
     ("d", "b"): Fraction(1, 3), ("a", "c"): Fraction(7, 6)},
)

# (name, space, largest max_degree from orbit starts, from every start):
# each bound keeps the reference's top degree near 20,000 tuples or fewer
CASES = [
    ("two-point", TWO_POINT, 5, 5),
    ("C5", cycle_graph(5), 5, 4),
    ("C6", cycle_graph(6), 5, 4),
    ("C7", cycle_graph(7), 4, 3),
    ("C8", cycle_graph(8), 4, 3),
    ("cycle_digraph(5)", cycle_digraph(5), 5, 5),
    ("rational digraph", RATIONAL, 5, 5),
    ("C3 x two-point", tensor_metric(cycle_graph(3), TWO_POINT), 4, 3),
    ("discrete(3, INF)", discrete_space(3, INF), 5, 5),
]


def _tuple_rule_boundary(X, buckets, n, ell):
    """The boundary out of degree n in grading ell from the tuples
    themselves: face i drops point i when it lies between its neighbours,
    with sign (-1)^i, entries in face order."""
    rows = {t: i for i, t in enumerate(buckets.get((n - 1, ell), ()))}
    cols = []
    for t in buckets.get((n, ell), ()):
        col = {}
        for i in range(1, n):
            if is_between(X, t[i], t[i - 1], t[i + 1]):
                col[rows[t[:i] + t[i + 1:]]] = -1 if i % 2 else 1
        cols.append(col)
    return cols


def _streamed(X, D, wanted, starts):
    """The complexes metric_homology reads for these starts, as it builds
    them: tabulated through D, degree D + 1 streamed."""
    codes = _TupleCodes(X, D, starts)
    G = magnitude_complex_metric(X, D, wanted, starts=starts)
    return {ell: codes.extend(C, ell) for ell, C in G.pieces.items()}


def _assert_streams_the_full_complex(streamed, full) -> None:
    D = full.max_degree
    assert streamed.max_degree == D and streamed.faithful_degree == D - 1
    assert streamed.basis[:D] == full.basis[:D]
    assert streamed.boundary[:D] == full.boundary[:D]
    top = streamed.boundary[D]
    assert isinstance(top, ColumnStream) and isinstance(streamed.basis[D], CodedLabels)
    assert (top.nrows, top.ncols) == (full.boundary[D].nrows, full.boundary[D].ncols)
    assert len(streamed.basis[D]) == len(full.basis[D])
    for got, want in zip_longest(streamed.basis[D], full.basis[D]):
        assert got == want
    for got, want in zip_longest(top.cols, full.boundary[D].cols):
        assert list(got.items()) == list(want.items())


def _gradings(X, D):
    """Every reachable grading, then a few explicit lists: one grading
    beyond reach and one off the lattice of lengths among them."""
    reachable = reachable_gradings(X, D + 1)
    beyond = reachable[-1] + 1
    off = Fraction(1, 7)
    assert beyond not in reachable and off not in reachable
    return [reachable, [0, beyond], reachable[1:3] + [off], [off, beyond] + reachable[-1:]]


def _check(X, D, starts):
    buckets = _enumerate_tuples(X, D + 1, True, starts=starts).by_grading()
    for wanted in _gradings(X, D):
        streamed = _streamed(X, D, wanted, starts)
        full = magnitude_complex_metric(X, D + 1, wanted, starts=starts)
        assert list(streamed) == list(full.pieces)
        for ell, C in streamed.items():
            want = full.pieces[ell]
            assert [list(col.items()) for col in want.boundary[D + 1].cols] == [
                list(col.items()) for col in _tuple_rule_boundary(X, buckets, D + 1, ell)]
            _assert_streams_the_full_complex(C, want)
        got = graded_homology_table(GradedChainComplex(streamed), D)
        assert list(got.items()) == list(graded_homology_table(full, D).items())


@pytest.mark.parametrize("name, X, orbit_degree, every_degree", CASES,
                         ids=[c[0] for c in CASES])
def test_streamed_top_matches_the_tabulated_complex(name, X, orbit_degree, every_degree):
    reps = [orbit[0] for orbit in point_orbits(X)]
    for D in range(orbit_degree + 1):
        _check(X, D, reps)
    for D in range(every_degree + 1):
        _check(X, D, None)


def test_metric_homology_reads_the_streamed_complexes(monkeypatch):
    """metric_homology hands graded_homology_table exactly these complexes,
    one per size of isometry class."""
    seen = []
    original = magnitude_core.graded_homology_table

    def recording(G, max_degree):
        seen.append(G)
        return original(G, max_degree)

    monkeypatch.setattr(magnitude_core, "graded_homology_table", recording)
    line = metric_from_digraph("abc", [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")])
    X = tensor_metric(cycle_graph(3), line)
    sizes = {}
    for orbit in point_orbits(X):
        sizes.setdefault(len(orbit), []).append(orbit[0])
    assert len(sizes) > 1
    wanted = reachable_gradings(X, 3)
    metric_homology(X, 2, wanted)
    assert len(seen) == len(sizes)
    for G, reps in zip(seen, sizes.values()):
        full = magnitude_complex_metric(X, 3, wanted, starts=reps)
        assert list(G.pieces) == list(full.pieces)
        for ell, C in G.pieces.items():
            _assert_streams_the_full_complex(C, full.pieces[ell])


def test_a_flipped_last_face_sign_on_the_top_raises(monkeypatch):
    plans = _TupleCodes._plans

    def flipped(self, n):
        if n < self.D:
            return plans(self, n)
        return [(inner, rank_z, rank_x, after, base, -sign)
                for inner, rank_z, rank_x, after, base, sign in plans(self, n)]

    monkeypatch.setattr(_TupleCodes, "_plans", flipped)
    X = cycle_graph(8)
    # the lower degrees keep their signs
    magnitude_complex_metric(X, 3)
    with pytest.raises(InvalidComplexError, match="streamed column"):
        metric_homology(X, 2)


def test_a_complex_of_another_size_is_refused():
    X = cycle_graph(5)
    codes = _TupleCodes(X, 2, [0])
    G = magnitude_complex_metric(X, 2, [2])
    with pytest.raises(ValueError, match="expected 4 generators in degree 2, not 20"):
        codes.extend(G.pieces[2], 2)
    with pytest.raises(ValueError, match="through degree 2"):
        codes.extend(magnitude_complex_metric(X, 1, [2]).pieces[2], 2)


def test_streamed_metric_homology_leaves_no_reference_cycles():
    gc.collect()
    metric_homology(cycle_graph(6), 3)
    assert gc.collect() == 0
