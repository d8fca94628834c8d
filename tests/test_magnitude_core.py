from fractions import Fraction

import pytest

from maghom import (
    INF,
    FgAbelianGroup,
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
