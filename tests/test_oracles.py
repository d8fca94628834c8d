from fractions import Fraction

import pytest

from maghom import (
    INF,
    CatGroup,
    FgAbelianGroup,
    FinGroup,
    HomologyTable,
    ValidationError,
    abelianization,
    all_groups_up_to_order_8,
    cat_group_from_preordered,
    category_from_group,
    codiscrete_cat_group,
    cycle_digraph,
    cyclic_group,
    dihedral_group,
    discrete_cat_group,
    discrete_space,
    iterated_homology,
    make_metric_space,
    make_normed_group,
    oracle_catgroup,
    oracle_group_homology,
    oracle_kunneth,
    oracle_mh01_catgroup,
    oracle_mh1_metric,
    oracle_mh2_normed,
    oracle_suspension,
    symmetric_group,
    two_group_from_normal_subgroup,
    validate_cat_group,
    word_norm_group,
)
from maghom.cli import builder_documents, parse_input

S3 = symmetric_group(3)
A3 = frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)})
LINE3 = make_metric_space(
    ["a", "b", "c"],
    {("a", "a"): 0, ("b", "b"): 0, ("c", "c"): 0,
     ("a", "b"): 1, ("b", "a"): 1, ("b", "c"): 1, ("c", "b"): 1,
     ("a", "c"): 2, ("c", "a"): 2},
)


def test_mh1_metric_examples():
    assert oracle_mh1_metric(discrete_space(2, 1), 1) == FgAbelianGroup(2)
    assert oracle_mh1_metric(LINE3, 2).is_trivial
    assert oracle_mh1_metric(cycle_digraph(4), 1) == FgAbelianGroup(4)


def test_oracles_reject_a_grading_that_is_not_finite():
    with pytest.raises(ValidationError, match="not a finite rational"):
        oracle_mh1_metric(LINE3, INF)
    with pytest.raises(ValidationError, match="not a finite rational"):
        oracle_mh2_normed(word_norm_group(S3, [(1, 0, 2)]), INF)
    with pytest.raises(ValidationError, match="not a finite rational"):
        oracle_mh1_metric(LINE3, 1.0)


def test_mh01_catgroup_examples():
    h0, h1 = oracle_mh01_catgroup(two_group_from_normal_subgroup(S3, A3))
    assert (h0, h1) == (FgAbelianGroup(1), FgAbelianGroup(0, (2,)))
    h0, h1 = oracle_mh01_catgroup(discrete_cat_group(cyclic_group(4)))
    assert h1 == FgAbelianGroup(0, (4,))
    h0, h1 = oracle_mh01_catgroup(codiscrete_cat_group(S3))
    assert h1.is_trivial


def test_abelianization():
    assert abelianization(S3) == FgAbelianGroup(0, (2,))
    assert abelianization(cyclic_group(6)) == FgAbelianGroup(0, (6,))
    assert abelianization(dihedral_group(4)) == FgAbelianGroup(0, (2, 2))
    assert abelianization(cyclic_group(1)).is_trivial


def test_mh2_normed_examples():
    N = word_norm_group(S3, [(1, 0, 2)])
    assert oracle_mh2_normed(N, 1) == FgAbelianGroup(1)
    assert oracle_mh2_normed(N, 2).is_trivial
    N2 = make_normed_group(cyclic_group(2), {0: 0, 1: 1})
    assert oracle_mh2_normed(N2, 1) == FgAbelianGroup(1)
    with pytest.raises(ValidationError):
        oracle_mh2_normed(N, 0)


def test_group_homology_examples():
    t = oracle_group_homology(cyclic_group(2), 3)
    assert [str(t.group(k)) for k in range(4)] == ["Z", "Z/2", "0", "Z/2"]
    assert oracle_group_homology(cyclic_group(3), 1).group(1) == FgAbelianGroup(0, (3,))
    triv = oracle_group_homology(cyclic_group(1), 3)
    assert triv.group(0) == FgAbelianGroup(1)
    assert all(triv.group(k).is_trivial for k in (1, 2, 3))


def test_suspension_prediction():
    circle = HomologyTable({(0, None): FgAbelianGroup(1), (1, None): FgAbelianGroup(1)})
    predicted = oracle_suspension(circle, 2)
    assert predicted.group(0) == FgAbelianGroup(1)
    assert predicted.group(1).is_trivial
    assert predicted.group(2) == FgAbelianGroup(1)

    two_points = HomologyTable({(0, None): FgAbelianGroup(2)})
    circle_again = oracle_suspension(two_points, 1)
    assert circle_again.group(0) == FgAbelianGroup(1)
    assert circle_again.group(1) == FgAbelianGroup(1)

    connected = HomologyTable({(0, None): FgAbelianGroup(1)})
    assert oracle_suspension(connected, 1).group(1).is_trivial


def test_suspension_rejects_bad_degree_zero():
    with pytest.raises(ValidationError):
        oracle_suspension(HomologyTable({(0, None): FgAbelianGroup(0, (2,))}), 1)
    with pytest.raises(ValidationError):
        oracle_suspension(HomologyTable({}), 1)


def test_kunneth_oracle_ungraded():
    HX = HomologyTable({(0, None): FgAbelianGroup(1), (1, None): FgAbelianGroup(1)})
    point = HomologyTable({(0, None): FgAbelianGroup(1)})
    assert oracle_kunneth(HX, point, 2) == HX
    torus = oracle_kunneth(HX, HX, 2)
    assert [torus.group(k).free_rank for k in range(3)] == [1, 2, 1]
    # torsion inputs: the tensor term sits in degree 2, the Tor term in 3
    HP = HomologyTable({(0, None): FgAbelianGroup(1), (1, None): FgAbelianGroup(0, (2,))})
    out = oracle_kunneth(HP, HP, 3)
    assert out.group(2) == FgAbelianGroup(0, (2,))
    assert out.group(3) == FgAbelianGroup(0, (2,))


def test_kunneth_oracle_graded():
    H2 = HomologyTable({
        (0, Fraction(0)): FgAbelianGroup(2),
        (1, Fraction(1)): FgAbelianGroup(2),
    })
    out = oracle_kunneth(H2, H2, 2)
    assert out.group(0, 0) == FgAbelianGroup(4)
    assert out.group(1, 1) == FgAbelianGroup(8)
    assert out.group(2, 2) == FgAbelianGroup(4)
    with pytest.raises(ValidationError):
        oracle_kunneth(H2, HomologyTable({(0, None): FgAbelianGroup(1)}), 1)


# --- the quotient oracle of Cat-groups ----------------------------------------


def _cat_groups_to_order_8() -> list:
    cases = [two_group_from_normal_subgroup(G, N)
             for G in all_groups_up_to_order_8() for N in G.normal_subgroups()]
    assert len(cases) == 64
    return cases


def test_quotient_oracle_matches_the_tot_route_on_every_cat_group_to_order_8():
    for C in _cat_groups_to_order_8():
        assert iterated_homology(C, 2, "tot") == oracle_catgroup(C, 2), C.group.name


def test_quotient_oracle_matches_the_diag_route_on_every_cat_group_to_order_8():
    for C in _cat_groups_to_order_8():
        assert iterated_homology(C, 1, "diag") == oracle_catgroup(C, 1), C.group.name


def test_quotient_oracle_matches_preordered_s3_a3():
    C = cat_group_from_preordered(parse_input(builder_documents()["preordered-s3-a3"]))
    want = HomologyTable({(0, None): FgAbelianGroup(1), (1, None): FgAbelianGroup(0, (2,))})
    assert oracle_catgroup(C, 2) == want
    assert iterated_homology(C, 2, "tot") == want
    assert iterated_homology(C, 1, "diag") == oracle_catgroup(C, 1)


def test_quotient_oracle_refuses_a_unit_with_automorphisms():
    """One object whose automorphisms are Z/2: a second classifying
    space, whose degree 2 the trivial group of components cannot see."""
    Z2 = cyclic_group(2)
    one = FinGroup(("*",), {("*", "*"): "*"})
    C = CatGroup(category_from_group(Z2), one,
                 {(a, b): Z2.mul(a, b) for a in Z2.elements for b in Z2.elements})
    validate_cat_group(C)
    assert iterated_homology(C, 2, "tot").group(2) == FgAbelianGroup(0, (2,))
    with pytest.raises(ValidationError, match="automorphisms"):
        oracle_catgroup(C, 2)
