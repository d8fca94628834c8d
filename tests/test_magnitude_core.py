from fractions import Fraction

import pytest

from maghom import (
    INF,
    FgAbelianGroup,
    IntMatrix,
    ValidationError,
    adjacency,
    category_from_group,
    cycle_digraph,
    cycle_graph,
    cyclic_group,
    discrete_space,
    magnitude_complex_metric,
    make_metric_space,
    metric_homology,
    metric_nerve,
    nerve_category,
    normalized_chains,
    parallel_arrows_category,
    reachable_gradings,
    terminal_category,
    unnormalized_chains,
    validate_simplicial,
)
from maghom.magnitude_core import _betweenness, _enumerate_tuples, is_between

from conftest import random_metric_space

LINE3 = make_metric_space(
    ["a", "b", "c"],
    {("a", "a"): 0, ("b", "b"): 0, ("c", "c"): 0,
     ("a", "b"): 1, ("b", "a"): 1, ("b", "c"): 1, ("c", "b"): 1,
     ("a", "c"): 2, ("c", "a"): 2},
)


def test_nerve_terminal_category():
    S = nerve_category(terminal_category(), 3)
    assert [S.dim(n) for n in range(4)] == [1, 1, 1, 1]
    N = normalized_chains(S)
    assert [N.dim(n) for n in range(4)] == [1, 0, 0, 0]


def test_nerve_parallel_arrows_degree_one():
    S = nerve_category(parallel_arrows_category(), 2)
    assert set(S.basis[1]) == {("idA",), ("idB",), ("f",), ("g",)}


def test_nerve_group_tuple_counts():
    S = nerve_category(category_from_group(cyclic_group(2)), 3)
    assert [S.dim(n) for n in range(4)] == [1, 2, 4, 8]
    validate_simplicial(S)


def test_metric_two_point_space():
    t = metric_homology(discrete_space(2, 1), 3)
    for k in range(4):
        assert t.group(k, k) == FgAbelianGroup(2)
    assert t.group(0, 1).is_trivial


def test_degree_zero_support_law():
    for X in (cycle_digraph(4), LINE3):
        t = metric_homology(X, 1)
        assert t.group(0, 0) == FgAbelianGroup(len(X.points))
        for g in t.gradings():
            if g and g > 0:
                assert t.group(0, g).is_trivial


def test_cycle_digraph3_degree_one():
    t = metric_homology(cycle_digraph(3), 1, gradings=[1])
    assert t.group(1, 1) == FgAbelianGroup(3)


def test_adjacency():
    X = discrete_space(2, 1)
    assert adjacency(X, 0, 1) is None
    assert adjacency(LINE3, "a", "c") == "b"
    C6 = cycle_graph(6)
    assert adjacency(C6, 0, 3) is not None
    with pytest.raises(ValidationError):
        adjacency(X, 0, 0)


def test_grading_support_bound():
    # a degree-n tuple needs n steps of at least the minimal positive distance
    X = cycle_digraph(4)
    min_step = min(v for v in X.dist.values() if v and v is not None and v > 0)
    G = magnitude_complex_metric(X, 3)
    for ell, piece in G.pieces.items():
        for n in range(piece.max_degree + 1):
            if piece.dim(n):
                assert n * min_step <= ell


def test_reachable_gradings():
    assert reachable_gradings(discrete_space(2, 1), 2) == [0, 1, 2]
    half = make_metric_space(
        ["a", "b"],
        {("a", "a"): 0, ("b", "b"): 0, ("a", "b"): Fraction(1, 2), ("b", "a"): Fraction(3, 2)},
    )
    assert Fraction(1, 2) in reachable_gradings(half, 1)
    assert Fraction(2) in reachable_gradings(half, 2)


def test_unnormalized_slices_are_simplicial_and_quasi_iso():
    X = LINE3
    slices = metric_nerve(X, 3)
    direct = magnitude_complex_metric(X, 3)
    from maghom import homology_table

    for ell, S in slices.items():
        validate_simplicial(S)
        N = normalized_chains(S)
        piece = direct.pieces[ell]
        assert N.basis == piece.basis
        assert all(
            N.boundary[k] == piece.boundary[k] for k in range(len(N.basis))
        )
        assert homology_table(unnormalized_chains(S), 2) == homology_table(N, 2)


def test_infinite_distances_are_never_crossed():
    X = make_metric_space(
        ["a", "b"],
        {("a", "a"): 0, ("b", "b"): 0, ("a", "b"): 1, ("b", "a"): INF},
    )
    G = magnitude_complex_metric(X, 3)
    assert sorted(G.pieces) == [0, 1]
    for piece in G.pieces.values():
        for level in piece.basis:
            for tup in level:
                for u, v in zip(tup, tup[1:]):
                    assert X.d(u, v) is not INF


def test_negative_grading_is_rejected():
    with pytest.raises(ValidationError, match="nonnegative"):
        metric_homology(LINE3, 1, [-1])


def test_betweenness_table_matches_is_between(rnd):
    saw_inf = False
    for complete in (True, False):
        for _ in range(15):
            X = random_metric_space(rnd, rnd.randint(1, 5), complete=complete)
            saw_inf |= any(v is INF for v in X.dist.values())
            expected = {
                (z, x, y) for x in X.points for y in X.points for z in X.points
                if is_between(X, z, x, y)
            }
            assert _betweenness(X) == expected
    assert saw_inf


def _enumeration_cases(rnd):
    """LINE3, the 4-cycle digraph, a one-way space with INF and fractional
    distances, and random spaces (fractional, some with INF)."""
    one_way = make_metric_space(
        ["a", "b", "c"],
        {("a", "a"): 0, ("b", "b"): 0, ("c", "c"): 0,
         ("a", "b"): Fraction(1, 2), ("b", "c"): Fraction(2, 3), ("a", "c"): Fraction(7, 6),
         ("b", "a"): INF, ("c", "a"): INF, ("c", "b"): INF},
    )
    cases = [LINE3, cycle_digraph(4), one_way]
    cases += [random_metric_space(rnd, rnd.randint(1, 4), complete=c)
              for c in (True, True, False, False, False)]
    return cases


def _fraction_buckets(X, max_degree, distinct):
    """_enumerate_tuples with Fraction sums, as before integer lengths."""
    buckets = {}

    def walk(tup, total, n):
        buckets.setdefault((n, total), []).append(tup)
        if n == max_degree:
            return
        for p in X.points:
            d = X.d(tup[-1], p)
            if (distinct and p == tup[-1]) or d is INF:
                continue
            walk(tup + (p,), total + d, n + 1)

    for p in X.points:
        walk((p,), Fraction(0), 0)
    order = {p: i for i, p in enumerate(X.points)}
    for level in buckets.values():
        level.sort(key=lambda t: tuple(order[p] for p in t))
    return buckets


def test_integer_lengths_match_fraction_sums(rnd):
    cases = _enumeration_cases(rnd)
    cases += [random_metric_space(rnd, 4, complete=c) for c in (True, False, False)]
    for X in cases:
        for distinct in (True, False):
            got = _enumerate_tuples(X, 3, distinct).by_grading()
            want = _fraction_buckets(X, 3, distinct)
            assert list(got) == sorted(want)
            assert got == want


@pytest.mark.parametrize("grading", [INF, float("nan"), "x", None, "1/0"])
def test_non_finite_metric_grading_is_rejected(grading):
    with pytest.raises(ValidationError, match="not a finite rational"):
        metric_homology(LINE3, 1, [grading])


def test_reachable_gradings_are_the_bucket_gradings(rnd):
    for X in _enumeration_cases(rnd):
        for n in range(5):
            buckets = _enumerate_tuples(X, n, True).by_grading()
            assert reachable_gradings(X, n) == sorted({ell for _, ell in buckets})


def _accumulating_metric_boundaries(X, max_degree, ell):
    """The boundary matrices of one grading, summing each face into its
    column with cancellation, as the builder did before it wrote entries
    directly."""
    buckets = _enumerate_tuples(X, max_degree, True).by_grading()
    basis = [buckets.get((n, ell), []) for n in range(max_degree + 1)]
    index = [{t: i for i, t in enumerate(level)} for level in basis]
    out = [IntMatrix.zero(0, len(basis[0]))]
    for n in range(1, max_degree + 1):
        cols = []
        for tup in basis[n]:
            col = {}
            for i in range(1, n):
                if is_between(X, tup[i], tup[i - 1], tup[i + 1]):
                    t = index[n - 1][tup[:i] + tup[i + 1:]]
                    nv = col.get(t, 0) + (-1 if i % 2 else 1)
                    if nv:
                        col[t] = nv
                    else:
                        col.pop(t, None)
            cols.append(col)
        out.append(IntMatrix.from_columns(len(basis[n - 1]), cols))
    return tuple(out)


def test_metric_boundaries_match_accumulating_builder(rnd):
    for X in _enumeration_cases(rnd) + [cycle_graph(5)]:
        G = magnitude_complex_metric(X, 4)
        for ell, piece in G.pieces.items():
            assert piece.boundary == _accumulating_metric_boundaries(X, 4, ell)


@pytest.mark.parametrize("build", [
    lambda: _enumerate_tuples(LINE3, -1, True),
    lambda: reachable_gradings(LINE3, -1),
    lambda: metric_nerve(LINE3, -1),
    lambda: metric_nerve(LINE3, -1, [1]),
], ids=["enumerate_tuples", "reachable_gradings", "metric_nerve", "metric_nerve_explicit"])
def test_negative_max_degree_is_rejected(build):
    with pytest.raises(ValidationError, match="max_degree must be nonnegative"):
        build()


def test_explicit_gradings_match_all_reachable(rnd):
    for X in _enumeration_cases(rnd):
        G = magnitude_complex_metric(X, 3)
        slices = metric_nerve(X, 3)
        reachable = sorted(G.pieces)
        for wanted in ([0], reachable[:2], reachable[-1:], [reachable[len(reachable) // 2]]):
            part = magnitude_complex_metric(X, 3, wanted)
            assert part.pieces == {ell: G.pieces[ell] for ell in wanted}
            part_slices = metric_nerve(X, 3, wanted)
            assert list(part_slices) == wanted
            for ell in wanted:
                S, T = part_slices[ell], slices[ell]
                assert (S.basis, S.face, S.degeneracy) == (T.basis, T.face, T.degeneracy)
