from fractions import Fraction

import pytest

from maghom import (
    BasedDoubleComplex,
    FgAbelianGroup,
    GradedChainComplex,
    IntMatrix,
    INF,
    InvalidComplexError,
    TruncationError,
    ValidationError,
    category_from_group,
    cyclic_group,
    discrete_space,
    graded_homology_table,
    graded_tensor,
    homology_table,
    magnitude_complex_metric,
    make_chain_complex,
    nerve_category,
    normalized_chains,
    parallel_arrows_category,
    tensor_complex,
    terminal_category,
    total_complex,
    unit_complex,
    validate_complex,
    validate_double_complex,
)


def s1_complex(D=3):
    return normalized_chains(nerve_category(parallel_arrows_category(), D))


def test_validate_accepts_s1():
    validate_complex(s1_complex())


def test_validate_rejects_bad_composite():
    basis = [("a",), ("b",), ("c",)]
    boundary = [
        IntMatrix.zero(0, 1),
        IntMatrix.from_rows([[1]]),
        IntMatrix.from_rows([[1]]),
    ]
    with pytest.raises(InvalidComplexError, match="degree 2"):
        make_chain_complex(basis, boundary, 1)


def test_validate_accepts_empty():
    C = make_chain_complex([(), (), ()], [IntMatrix.zero(0, 0)] * 3, 1)
    validate_complex(C)
    assert homology_table(C, 1).group(0).is_trivial


def test_total_complex_single_corner():
    B = BasedDoubleComplex(1, 1, {(0, 0): ("x",)}, {}, {})
    T = total_complex(B)
    assert T.dim(0) == 1 and T.dim(1) == 0
    assert homology_table(T, 0).group(0) == FgAbelianGroup(1)


def test_total_complex_acyclic_square():
    one = IntMatrix.from_rows([[1]])
    B = BasedDoubleComplex(
        1, 1,
        {(0, 0): ("x",), (1, 0): ("x",), (0, 1): ("x",), (1, 1): ("x",)},
        {(1, 0): one, (1, 1): one},
        {(0, 1): one, (1, 1): one},
    )
    validate_double_complex(B)
    T = total_complex(B)
    table = homology_table(T, 0)
    assert table.group(0).is_trivial


def test_tensor_unit_law():
    C = s1_complex()
    T = tensor_complex(C, unit_complex())
    tc = homology_table(T, 2)
    th = homology_table(C, 2)
    assert tc == th


def test_tensor_zero_differentials():
    Z2 = make_chain_complex(
        [("a",), ("b",)], [IntMatrix.zero(0, 1), IntMatrix.zero(1, 1)], 10**9
    )
    T = tensor_complex(Z2, Z2)
    assert [T.dim(k) for k in range(3)] == [1, 2, 1]
    t = homology_table(T, 2)
    assert [t.group(k).free_rank for k in range(3)] == [1, 2, 1]


def test_tensor_two_circles():
    C = s1_complex()
    T = tensor_complex(C, C)
    t = homology_table(T, 2)
    assert [t.group(k).free_rank for k in range(3)] == [1, 2, 1]
    assert all(not t.group(k).torsion for k in range(3))


def test_tensor_associative_up_to_relabeling():
    C = s1_complex()
    B = normalized_chains(
        nerve_category(category_from_group(cyclic_group(2)), 3)
    )
    left = tensor_complex(tensor_complex(C, B), C)
    right = tensor_complex(C, tensor_complex(B, C))
    assert [left.dim(k) for k in range(4)] == [right.dim(k) for k in range(4)]
    assert homology_table(left, 2) == homology_table(right, 2)


def test_graded_tensor_support():
    X = discrete_space(2, 1)
    G = magnitude_complex_metric(X, 1)
    T = graded_tensor(G, G)
    assert sorted(T.pieces) == [Fraction(0), Fraction(1), Fraction(2)]


def test_graded_tensor_degree_one_count():
    # one factor contributes an edge, the other a vertex; both orders count
    X = discrete_space(2, 1)
    G = magnitude_complex_metric(X, 2)
    T = graded_tensor(G, G)
    piece = T.pieces[Fraction(1)]
    assert piece.dim(1) == 8


def test_graded_tensor_with_zero():
    X = discrete_space(2, 1)
    G = magnitude_complex_metric(X, 2)
    Z = GradedChainComplex({})
    assert graded_tensor(G, Z).pieces == {}


def test_homology_table_examples():
    t = homology_table(s1_complex(), 2)
    assert t.group(0) == FgAbelianGroup(1)
    assert t.group(1) == FgAbelianGroup(1)
    assert t.group(2).is_trivial

    point = homology_table(
        normalized_chains(nerve_category(terminal_category(), 3)), 2
    )
    assert point.group(0) == FgAbelianGroup(1)
    assert point.group(1).is_trivial and point.group(2).is_trivial

    bar = homology_table(
        normalized_chains(nerve_category(category_from_group(cyclic_group(2)), 4)), 3
    )
    assert [str(bar.group(k)) for k in range(4)] == ["Z", "Z/2", "0", "Z/2"]


def test_homology_table_refuses_past_faithful():
    C = s1_complex(3)
    assert C.faithful_degree == 2
    with pytest.raises(TruncationError, match="max degree >= 4"):
        homology_table(C, 3)


def test_homology_invariant_under_basis_permutation(rnd):
    C = normalized_chains(nerve_category(category_from_group(cyclic_group(3)), 3))
    perms = [list(range(C.dim(k))) for k in range(C.max_degree + 1)]
    for p in perms:
        rnd.shuffle(p)
    basis = [tuple(C.basis[k][i] for i in perms[k]) for k in range(C.max_degree + 1)]
    boundary = [IntMatrix.zero(0, C.dim(0))]
    for k in range(1, C.max_degree + 1):
        inv_prev = {old: new for new, old in enumerate(perms[k - 1])}
        cols = [
            {inv_prev[r]: v for r, v in C.boundary[k].cols[perms[k][j]].items()}
            for j in range(C.dim(k))
        ]
        boundary.append(IntMatrix.from_columns(C.dim(k - 1), cols))
    shuffled = make_chain_complex(basis, boundary, C.faithful_degree)
    assert homology_table(shuffled, 2) == homology_table(C, 2)


def test_graded_homology_table():
    X = discrete_space(2, 1)
    t = graded_homology_table(magnitude_complex_metric(X, 3), 2)
    assert t.group(0, 0) == FgAbelianGroup(2)
    assert t.group(1, 1) == FgAbelianGroup(2)
    assert t.group(2, 2) == FgAbelianGroup(2)
    assert t.group(1, 2).is_trivial


def test_grading_lookups_reject_what_is_not_a_finite_rational():
    X = discrete_space(2, 1)
    C = magnitude_complex_metric(X, 2)
    t = graded_homology_table(C, 1)
    assert t.group(1, "1") == t.group(1, Fraction(1)) == FgAbelianGroup(2)
    assert C.piece("1") is C.piece(1)
    with pytest.raises(ValidationError, match="not a finite rational"):
        t.group(0, INF)
    with pytest.raises(ValidationError, match="not a finite rational"):
        t.group(0, "x")
    with pytest.raises(ValidationError, match="not a finite rational"):
        C.piece(INF)


def test_grading_values_refuse_a_zero_denominator():
    from maghom.complexes import grading_values

    with pytest.raises(ValidationError, match="grading '1/0' is not a finite rational"):
        grading_values(["1/0"])


def test_grading_values_refuse_a_bool():
    from maghom.complexes import grading_values

    with pytest.raises(ValidationError, match="grading True is not a finite rational"):
        grading_values([True])


# --- one d*d check per complex, where homology is read -------------------------


def _count_mul_calls(monkeypatch) -> list:
    calls = []
    mul = IntMatrix.mul

    def counting(self, other):
        calls.append((self.nrows, self.ncols, other.ncols))
        return mul(self, other)

    monkeypatch.setattr(IntMatrix, "mul", counting)
    return calls


def test_homology_multiplies_each_boundary_pair_once(monkeypatch):
    S = nerve_category(parallel_arrows_category(), 3)
    calls = _count_mul_calls(monkeypatch)
    C = normalized_chains(S)
    homology_table(C, 2)
    assert len(calls) == C.max_degree == 3

    calls.clear()
    T = tensor_complex(s1_complex(2), s1_complex(2))
    homology_table(T, 1)
    assert len(calls) == T.max_degree

    calls.clear()
    G = magnitude_complex_metric(discrete_space(3, 1), 3)
    graded_homology_table(G, 2)
    assert len(calls) == sum(p.max_degree for p in G.pieces.values())


def _broken_complex():
    # d1 d2 = [1] != 0, built without the constructor's check
    from maghom import BasedChainComplex

    return BasedChainComplex(
        (("a",), ("b",), ("c",)),
        (IntMatrix.zero(0, 1), IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])),
        1,
    )


def test_homology_table_rejects_a_hand_built_non_complex():
    with pytest.raises(InvalidComplexError):
        homology_table(_broken_complex(), 1)
    with pytest.raises(InvalidComplexError):
        graded_homology_table(GradedChainComplex({Fraction(1): _broken_complex()}), 1)


def test_tensor_stops_one_degree_past_its_faithful_degree():
    # homology through the faithful degree reads nothing above the next one
    C, D = s1_complex(3), s1_complex(2)
    T = tensor_complex(C, D)
    assert T.faithful_degree == min(C.faithful_degree, D.faithful_degree) == 1
    assert T.max_degree == T.faithful_degree + 1 == 2
    assert homology_table(T, 1) == homology_table(
        tensor_complex(s1_complex(2), s1_complex(2)), 1
    )
    # a hand-built complex faithful through no degree still keeps degree 0
    Z = make_chain_complex([("a",)], [IntMatrix.zero(0, 1)], -2)
    assert tensor_complex(Z, Z).max_degree == 0


def test_unit_complex_is_complete():
    assert unit_complex().faithful_degree == INF == float("inf")
    T = tensor_complex(unit_complex(), unit_complex())
    assert T.max_degree == 0 and T.faithful_degree == INF
