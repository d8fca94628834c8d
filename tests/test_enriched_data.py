import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from maghom import (
    INF,
    CatGroup,
    NCatSet,
    NCatSuspension,
    ValidationError,
    all_groups_up_to_order_8,
    as_category,
    category_from_preorder,
    cat_group_from_preordered,
    codiscrete_cat_group,
    complete_graph,
    component_group,
    connected_components,
    count_cells,
    cycle_digraph,
    cycle_graph,
    cyclic_group,
    dihedral_group,
    discrete_cat_group,
    discrete_category,
    discrete_space,
    indecomposables,
    make_metric_space,
    make_normed_group,
    metric_from_digraph,
    metric_homology,
    metric_of_normed_group,
    one_point_space,
    parallel_arrows_category,
    positive_cone,
    preordered_group_from_cone,
    product_category,
    sphere_ncat,
    suspension,
    symmetric_group,
    tensor_metric,
    terminal_category,
    two_cat_from_category,
    two_cat_of_cat_group,
    two_group_from_normal_subgroup,
    validate_cat_group,
    validate_category,
    validate_metric,
    validate_ncat,
    validate_normed_group,
    validate_preordered_group,
    word_norm_group,
)
from maghom.enriched_data import as_fraction, linear_order_category

S3 = symmetric_group(3)
TRANSPOSITION = (1, 0, 2)
A3 = frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)})


# --- validators --------------------------------------------------------------


_EXACT_RATIONAL_ENTRIES = pytest.mark.parametrize("build", [
    as_fraction,
    lambda v: make_metric_space([0, 1], {(0, 0): 0, (0, 1): v, (1, 0): 1, (1, 1): 0}),
    lambda v: make_normed_group(cyclic_group(2), {0: 0, 1: v}),
    lambda v: metric_from_digraph([0, 1], [(0, 1)], weights={(0, 1): v}),
    lambda v: discrete_space(2, v),
], ids=["as_fraction", "make_metric_space", "make_normed_group", "metric_from_digraph",
        "discrete_space"])


@pytest.mark.parametrize("bad", ["x", "1/0"])
@_EXACT_RATIONAL_ENTRIES
def test_a_string_that_is_no_rational_is_a_validation_error(build, bad):
    with pytest.raises(ValidationError, match=f"not an exact rational: {bad!r}"):
        build(bad)


@pytest.mark.parametrize("bad", [True, False])
@_EXACT_RATIONAL_ENTRIES
def test_a_bool_is_no_rational(build, bad):
    """The CLI refuses a JSON true as a number, and so does the library."""
    with pytest.raises(ValidationError, match=f"not an exact rational: {bad!r}"):
        build(bad)


@pytest.mark.parametrize("bad", [0.5, 1.0, -math.inf, math.nan])
@_EXACT_RATIONAL_ENTRIES
def test_a_float_is_no_rational(build, bad):
    """A float is not exact; only +inf is read, as INF, and only as a
    distance (test_any_float_infinity_is_the_distance_inf)."""
    with pytest.raises(ValidationError, match=f"not an exact rational: {bad!r}"):
        build(bad)


def test_any_float_infinity_is_the_distance_inf():
    far = discrete_space(2, math.inf)
    assert far.d(0, 1) is INF and far.d(1, 0) is INF
    X = make_metric_space([0, 1], {(0, 0): 0, (0, 1): float("inf"), (1, 0): 1, (1, 1): 0})
    assert X.d(0, 1) is INF
    assert metric_homology(far, 2, "all-reachable") == metric_homology(
        discrete_space(2, INF), 2, "all-reachable")
    assert metric_homology(X, 2, "all-reachable") == metric_homology(
        make_metric_space([0, 1], {(0, 0): 0, (0, 1): INF, (1, 0): 1, (1, 1): 0}),
        2, "all-reachable")


@pytest.mark.parametrize("build, what", [
    (cycle_graph, "number of vertices"),
    (cycle_digraph, "number of vertices"),
    (complete_graph, "number of vertices"),
    (lambda n: discrete_space(n, 1), "number of points"),
    (linear_order_category, "number of elements"),
    (sphere_ncat, "sphere dimension"),
    (cyclic_group, "cyclic group order"),
    (dihedral_group, "number of polygon sides"),
    (symmetric_group, "number of permuted points"),
], ids=["cycle_graph", "cycle_digraph", "complete_graph", "discrete_space",
        "linear_order_category", "sphere_ncat", "cyclic_group", "dihedral_group",
        "symmetric_group"])
@pytest.mark.parametrize("bad", [-1, -2, True, False, 1.5, "3"])
def test_an_instance_builder_refuses_a_size_that_is_no_nonnegative_int(build, what, bad):
    """A negative size would build an empty object, a bool would be read
    as 0 or 1, and a float or string would leak a TypeError."""
    if isinstance(bad, int) and not isinstance(bad, bool):
        message = f"^{what} must be nonnegative$"
    else:
        message = f"^{what} {bad!r} is not an integer$".replace(".", r"\.")
    with pytest.raises(ValidationError, match=message):
        build(bad)


@pytest.mark.parametrize("build, message", [
    (cyclic_group, "cyclic group order must be positive"),
    (dihedral_group, "number of polygon sides must be positive: D0 would have order 0"),
], ids=["cyclic_group", "dihedral_group"])
def test_a_group_builder_refuses_order_zero(build, message):
    """A group has an identity, so C0 and D0 are refused by their order;
    S0, the permutations of no points, is the trivial group."""
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build(0)
    assert len(symmetric_group(0)) == 1


def test_normed_group_validator_accepts_z2():
    N = make_normed_group(cyclic_group(2), {0: 0, 1: 1})
    validate_normed_group(N)


def test_discrete_norm_on_s3():
    norm = {g: (0 if g == S3.identity else 1) for g in S3.elements}
    validate_normed_group(make_normed_group(S3, norm))


def test_norm_validator_names_subadditivity_violation():
    norm = {g: 0 if g == S3.identity else 5 for g in S3.elements}
    norm[TRANSPOSITION] = Fraction(1)
    with pytest.raises(ValidationError, match="conjugation|subadditive"):
        make_normed_group(S3, norm)


def test_norm_validator_rejects_zero_outside_identity():
    with pytest.raises(ValidationError, match="norm 0"):
        make_normed_group(cyclic_group(2), {0: 0, 1: 0})


def test_metric_validator():
    validate_metric(cycle_digraph(4))
    with pytest.raises(ValidationError, match="triangle"):
        make_metric_space(["a", "b", "c"],
                          {("a", "a"): 0, ("b", "b"): 0, ("c", "c"): 0,
                           ("a", "b"): 1, ("b", "a"): 1,
                           ("b", "c"): 1, ("c", "b"): 1,
                           ("a", "c"): 5, ("c", "a"): 5})
    with pytest.raises(ValidationError, match="separat"):
        make_metric_space(["a", "b"],
                          {("a", "a"): 0, ("b", "b"): 0,
                           ("a", "b"): 0, ("b", "a"): 1})


def test_category_validator_catches_missing_composite():
    s1 = parallel_arrows_category()
    broken = s1.__class__(
        s1.objects, s1.morphisms, s1.source, s1.target, s1.identity,
        {k: v for k, v in s1.compose.items() if k != ("idB", "f")},
    )
    with pytest.raises(ValidationError, match="composite"):
        validate_category(broken)


# --- word norms --------------------------------------------------------------


def test_word_norm_s3_transpositions():
    N = word_norm_group(S3, [TRANSPOSITION])
    by_value = {}
    for g in S3.elements:
        by_value.setdefault(N.norm[g], set()).add(g)
    assert by_value[Fraction(0)] == {S3.identity}
    assert len(by_value[Fraction(1)]) == 3  # transpositions
    assert len(by_value[Fraction(2)]) == 2  # 3-cycles


def test_word_norm_z2():
    N = word_norm_group(cyclic_group(2), [1])
    assert N.norm[1] == 1


def test_word_norm_z4_closed_under_inverses():
    N = word_norm_group(cyclic_group(4), [1])
    assert [N.norm[g] for g in (0, 1, 2, 3)] == [0, 1, 2, 1]


def test_word_norm_requires_normal_generation():
    with pytest.raises(ValidationError, match="normally generate"):
        word_norm_group(cyclic_group(4), [2])


def test_indecomposables_s3():
    N = word_norm_group(S3, [TRANSPOSITION])
    ind = set(indecomposables(N))
    assert ind == {g for g in S3.elements if N.norm[g] == 1}


# --- Cat-groups --------------------------------------------------------------


def test_two_group_from_normal_subgroup_s3_a3():
    C = two_group_from_normal_subgroup(S3, A3)
    validate_cat_group(C)
    for g in S3.elements:
        for h in S3.elements:
            n_arrows = len(C.cells.hom(g, h))
            expected = 1 if S3.mul(h, S3.inv(g)) in A3 else 0
            assert n_arrows == expected


def test_two_group_rejects_non_normal():
    H = frozenset({(0, 1, 2), TRANSPOSITION})
    with pytest.raises(ValidationError, match="normal"):
        two_group_from_normal_subgroup(S3, H)


def test_discrete_cat_group_shape():
    C = discrete_cat_group(cyclic_group(2))
    assert len(C.cells.morphisms) == 2
    validate_cat_group(C)


def test_mutated_horizontal_products_are_rejected():
    # in S3/A3 each hom-set has at most one arrow, so every change to the
    # table of horizontal products breaks its endpoints
    C = two_group_from_normal_subgroup(S3, A3)
    validate_cat_group(C)
    keys = sorted(C.hmul, key=repr)
    arrows = C.cells.morphisms
    rng = random.Random(7)
    mutations = []
    for _ in range(100):
        k = rng.choice(keys)
        mutations.append({x: v for x, v in C.hmul.items() if x != k})
        mutations.append({**C.hmul, k: rng.choice(arrows)})
        k2 = rng.choice(keys)
        mutations.append({**C.hmul, k: C.hmul[k2], k2: C.hmul[k]})
    changed = 0
    for hmul in mutations:
        if hmul == C.hmul:
            validate_cat_group(CatGroup(C.cells, C.group, hmul))
            continue
        changed += 1
        with pytest.raises(ValidationError):
            validate_cat_group(CatGroup(C.cells, C.group, hmul))
    assert changed > 250


def test_all_pairs_up_to_order_8_validate():
    for G in all_groups_up_to_order_8():
        for N in G.normal_subgroups():
            validate_cat_group(two_group_from_normal_subgroup(G, N))


def _reference_hmul(G, N) -> dict:
    """Horizontal products as built before the conjugates were tabulated:
    one conjugation per pair of arrows."""
    arrows = [(k, g) for k in sorted(N, key=repr) for g in G.elements]
    return {((k, g), (k2, g2)): (G.mul(k, G.conjugate(g, k2)), G.mul(g, g2))
            for (k, g) in arrows for (k2, g2) in arrows}


def test_horizontal_products_match_one_conjugation_per_pair_of_arrows():
    cases = 0
    for G in all_groups_up_to_order_8():
        for N in G.normal_subgroups():
            got = two_group_from_normal_subgroup(G, N).hmul
            assert list(got.items()) == list(_reference_hmul(G, N).items()), (G, N)
            cases += 1
    assert cases == 64


def test_component_group():
    C = two_group_from_normal_subgroup(S3, A3)
    con = component_group(C)
    assert len(con) == 2
    assert len(component_group(discrete_cat_group(cyclic_group(4)))) == 4
    assert len(component_group(codiscrete_cat_group(S3))) == 1


def test_two_cat_of_cat_group_validates():
    C = two_group_from_normal_subgroup(cyclic_group(4), [0, 2])
    validate_ncat(two_cat_of_cat_group(C))


# --- preordered groups -------------------------------------------------------


def test_cone_trivial_and_full():
    G = cyclic_group(4)
    P1 = preordered_group_from_cone(G, [0])
    assert positive_cone(P1) == frozenset([0])
    assert P1.leq == frozenset((g, g) for g in G.elements)
    P2 = preordered_group_from_cone(G, G.elements)
    assert len(P2.leq) == 16


def test_cone_a3_gives_congruence():
    P = preordered_group_from_cone(S3, A3)
    validate_preordered_group(P)
    cone = positive_cone(P)
    assert cone == A3
    # finite cones are subgroups, so the order is symmetric
    assert all((b, a) in P.leq for (a, b) in P.leq)


def test_cone_rejects_non_submonoid():
    with pytest.raises(ValidationError, match="closed|identity"):
        preordered_group_from_cone(S3, [TRANSPOSITION])


def test_two_group_refuses_a_non_subgroup_and_an_empty_member_list():
    with pytest.raises(ValidationError, match="not a subgroup"):
        two_group_from_normal_subgroup(S3, [TRANSPOSITION, (1, 2, 0)])
    with pytest.raises(ValidationError, match="not a subgroup"):
        two_group_from_normal_subgroup(S3, [])


def test_cone_refuses_a_subgroup_that_is_not_normal():
    with pytest.raises(ValidationError, match="conjugation"):
        preordered_group_from_cone(S3, [(0, 1, 2), TRANSPOSITION])


def _normal_subgroup_by_hand(G, S: set) -> bool:
    closed = G.identity in S and all(
        G.mul(a, b) in S and G.inv(a) in S for a in S for b in S)
    return closed and all(G.conjugate(g, a) in S for g in G.elements for a in S)


@pytest.mark.parametrize("G", [cyclic_group(4), S3], ids=["Z4", "S3"])
def test_group_constructors_accept_exactly_the_normal_subgroups(G):
    """Every subset of G: the Cat-group and the cone constructors accept it
    exactly when it is a normal subgroup, checked element by element."""
    accepted = 0
    for r in range(len(G) + 1):
        for S in combinations(G.elements, r):
            for build in (two_group_from_normal_subgroup, preordered_group_from_cone):
                if _normal_subgroup_by_hand(G, set(S)):
                    build(G, S)
                    accepted += 1
                else:
                    with pytest.raises(ValidationError):
                        build(G, S)
    assert accepted == 2 * len(G.normal_subgroups())


def test_cat_group_from_preordered():
    P = preordered_group_from_cone(S3, A3)
    C = cat_group_from_preordered(P)
    validate_cat_group(C)
    assert len(component_group(C)) == 2


# --- suspensions and spheres -------------------------------------------------


def test_suspension_levels():
    assert sphere_ncat(0).level == 0
    assert sphere_ncat(1).level == 1
    assert sphere_ncat(3).level == 3


def test_suspension_of_set_is_parallel_arrows():
    cat = as_category(sphere_ncat(1))
    validate_category(cat)
    assert len(cat.objects) == 2
    assert len([m for m in cat.morphisms if cat.source[m] != cat.target[m]]) == 2


def test_cell_counts():
    s2 = sphere_ncat(2)
    assert count_cells(s2, 0) == 2
    assert count_cells(s2, 1) == 4   # two crossing 1-cells plus two identities
    assert count_cells(s2, 2) == 6
    assert count_cells(s2, 3) == 0


def test_connected_components():
    assert len(connected_components(discrete_category(["a", "b", "c"]))) == 3
    assert len(connected_components(parallel_arrows_category())) == 1
    assert len(connected_components(suspension(discrete_category(["x"])))) == 1
    assert len(connected_components(NCatSuspension(NCatSet(())))) == 2
    for n in (1, 2, 3):
        assert len(connected_components(sphere_ncat(n))) == 1


def test_connected_components_of_a_two_category():
    assert len(connected_components(two_cat_from_category(discrete_category(["a", "b"])))) == 2
    assert len(connected_components(two_cat_from_category(parallel_arrows_category()))) == 1


def test_validate_ncat_families():
    validate_ncat(sphere_ncat(3))
    validate_ncat(two_cat_from_category(parallel_arrows_category()))


# --- metric builders ---------------------------------------------------------


def test_cycle_digraph_distances():
    X = cycle_digraph(3)
    assert X.d(0, 1) == 1 and X.d(1, 0) == 2


def test_cycle_graph_distances():
    X = cycle_graph(4)
    assert all(X.d(a, b) <= 2 for a in X.points for b in X.points)
    assert all(X.d(a, b) == X.d(b, a) for a in X.points for b in X.points)


def test_complete_graph_and_discrete():
    X = complete_graph(4)
    assert all(X.d(a, b) == 1 for a in X.points for b in X.points if a != b)
    Y = discrete_space(3, INF)
    assert Y.d(0, 1) is INF


def test_tensor_metric():
    X = discrete_space(2, 1)
    P = tensor_metric(X, one_point_space())
    assert len(P.points) == 2
    assert P.d((0, 0), (1, 0)) == 1
    Q = tensor_metric(X, X)
    assert Q.d((0, 0), (1, 1)) == 2
    assert Q.d((0, 0), (0, 1)) == 1


def test_product_category():
    s1 = parallel_arrows_category()
    P = product_category(s1, terminal_category())
    validate_category(P)
    assert len(P.objects) == 2
    T = product_category(s1, s1)
    validate_category(T)
    assert len(T.objects) == 4


def test_metric_of_normed_group_asymmetric_when_norm_is():
    # norms need not satisfy |g| = |g^-1|; build one where they differ
    G = cyclic_group(3)
    N = make_normed_group(G, {0: 0, 1: 1, 2: 2})
    M = metric_of_normed_group(N)
    validate_metric(M)
    assert M.d(1, 0) == 1 and M.d(0, 1) == 2


def test_group_subsets_must_be_elements():
    Z2 = cyclic_group(2)
    with pytest.raises(ValidationError, match="word norm generator 7 is not a group element"):
        word_norm_group(Z2, [7])
    with pytest.raises(ValidationError, match="normal subgroup member 7"):
        two_group_from_normal_subgroup(Z2, [0, 7])
    with pytest.raises(ValidationError, match="cone member 7"):
        preordered_group_from_cone(Z2, [0, 7])


def _old_preorder_category(elements, leq):
    """category_from_preorder as it was: a fixpoint closure over pairs of
    related pairs and composites over all pairs of morphisms."""
    elements = tuple(elements)
    rel = set(leq) | {(x, x) for x in elements}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    mors = sorted(rel)
    return mors, {(g, f): (f[0], g[1]) for g in mors for f in mors if f[1] == g[0]}


def test_preorder_category_matches_the_old_construction():
    rnd = random.Random(29)
    cases = [(range(n), [(i, i + 1) for i in range(n - 1)]) for n in (1, 2, 5, 9)]
    cases += [("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]),  # a cycle
              ("xyz", []), ("xyz", [("x", "x"), ("z", "y")])]
    for _ in range(40):
        n = rnd.randint(1, 7)
        pairs = [(a, b) for a in range(n) for b in range(n) if rnd.random() < 0.3]
        cases.append((range(n), pairs))
    for elements, leq in cases:
        X = category_from_preorder(elements, leq)
        mors, compose = _old_preorder_category(elements, leq)
        assert X.morphisms == tuple(mors)
        assert list(X.compose.items()) == list(compose.items())
