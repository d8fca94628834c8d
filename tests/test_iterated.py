from fractions import Fraction
from itertools import product

import pytest

from maghom import (
    FgAbelianGroup,
    ValidationError,
    as_category,
    category_homology,
    codiscrete_cat_group,
    count_cells,
    cycle_graph,
    cyclic_group,
    diag_nerve_normed_group,
    discrete_cat_group,
    discrete_category,
    discrete_space,
    double_nerve_2cat,
    double_nerve_normed_group,
    homology_table,
    iterated_complex,
    iterated_homology,
    klein_four_group,
    kunneth_check,
    make_normed_group,
    mb_n,
    metric_of_normed_group,
    normed_group_homology,
    oracle_group_homology,
    oracle_mh2_normed,
    oracle_suspension,
    parallel_arrows_category,
    reachable_normed_gradings,
    sphere_ncat,
    suspension,
    symmetric_group,
    terminal_category,
    two_cat_from_category,
    two_group_from_normal_subgroup,
    unnormalized_chains,
    validate_bisimplicial,
    validate_simplicial,
    word_norm_group,
)


def _col_length(N, col: tuple) -> Fraction:
    return sum((N.d(a, b) for a, b in zip(col, col[1:])), Fraction(0))


S3 = symmetric_group(3)
A3 = frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)})


# --- 2-categories and Cat-groups --------------------------------------------


def test_double_nerve_validates():
    C = two_group_from_normal_subgroup(cyclic_group(2), [0, 1])
    B = double_nerve_2cat(C, 2)
    validate_bisimplicial(B)


def test_discrete_cat_group_recovers_group_homology():
    for G in (cyclic_group(2), cyclic_group(3), klein_four_group()):
        t = iterated_homology(discrete_cat_group(G), 2, route="diag")
        assert t == oracle_group_homology(G, 2)


def test_codiscrete_z2():
    t = iterated_homology(codiscrete_cat_group(cyclic_group(2)), 1)
    assert t.group(0) == FgAbelianGroup(1)
    assert t.group(1).is_trivial


def test_gn_s3_a3():
    t = iterated_homology(two_group_from_normal_subgroup(S3, A3), 1)
    assert t.group(0) == FgAbelianGroup(1)
    assert t.group(1) == FgAbelianGroup(0, (2,))


def test_routes_agree_on_small_cat_groups():
    cases = [
        two_group_from_normal_subgroup(S3, A3),
        discrete_cat_group(cyclic_group(4)),
        codiscrete_cat_group(klein_four_group()),
    ]
    for C in cases:
        td = iterated_homology(C, 1, "diag")
        tt = iterated_homology(C, 1, "tot")
        tn = iterated_homology(C, 1, "tot", normalize_rows=True)
        assert td == tt == tn


def test_terminal_two_category():
    emb = two_cat_from_category(terminal_category())
    t = iterated_homology(emb, 2, "diag")
    assert t.group(0) == FgAbelianGroup(1)
    assert t.group(1).is_trivial and t.group(2).is_trivial


def test_discrete_embedding_preserves_first_order_homology():
    X = parallel_arrows_category()
    emb = two_cat_from_category(X)
    assert iterated_homology(emb, 2, "diag") == category_homology(X, 2)
    assert iterated_homology(emb, 2, "tot") == category_homology(X, 2)


def test_iterated_complex_rejects_bad_flags():
    C = discrete_cat_group(cyclic_group(2))
    with pytest.raises(ValidationError):
        iterated_complex(C, 2, route="diag", normalize_rows=True)
    with pytest.raises(ValidationError):
        iterated_complex(C, 2, route="sideways")


# --- suspensions -------------------------------------------------------------


def test_suspension_of_two_object_discrete():
    X = suspension(discrete_category(["x", "y"]))
    t = iterated_homology(X, 2, "diag")
    assert t.group(0) == FgAbelianGroup(1)
    # degree 1 plus one free rank reassembles the inside's degree 0
    assert t.group(1) == FgAbelianGroup(1)
    assert t.group(2).is_trivial


def test_suspension_routes_and_oracle():
    inner = parallel_arrows_category()
    X = suspension(inner)
    td = iterated_homology(X, 3, "diag")
    tt = iterated_homology(X, 3, "tot")
    tn = iterated_homology(X, 3, "tot", normalize_rows=True)
    assert td == tt == tn
    pred = oracle_suspension(category_homology(inner, 2), 3)
    assert td == pred


def test_mb_n_low_degree_structure():
    # degree 0 is the 0-cells; degree 1 is the top cells; the two faces of a
    # degree-1 generator are its endpoint 0-cells
    for n in (2, 3):
        X = sphere_ncat(n)
        S = mb_n(X, 2)
        assert S.dim(0) == count_cells(X, 0) == 2
        assert S.dim(1) == count_cells(X, n)
        for gen in S.basis[1]:
            assert S.face[1][0][gen] in S.basis[0]
            assert S.face[1][1][gen] in S.basis[0]
    G2 = suspension(discrete_category(["x", "y"]))
    S = mb_n(G2, 2)
    assert S.dim(0) == 2 and S.dim(1) == count_cells(G2, 2) == 4


def test_mb_n_sphere_parallel_cells_present():
    # the sphere's two parallel nonidentity 2-cells appear among the
    # degree-1 generators, with the expected endpoints
    S = mb_n(sphere_ncat(2), 2)
    crossing = [
        gen for gen in S.basis[1]
        if gen[0] == ("A", "B") and gen[1][0][0][0] == "arr"
    ]
    assert len(crossing) == 2
    for gen in crossing:
        assert S.face[1][0][gen] == (("B",), ())
        assert S.face[1][1][gen] == (("A",), ())


def test_grading_zero_law_for_all_small_groups():
    from maghom import all_groups_up_to_order_8

    for G in all_groups_up_to_order_8():
        N = make_normed_group(
            G, {g: 0 if g == G.identity else 1 for g in G.elements}
        )
        t = normed_group_homology(N, [0], 2, route="tot")
        gh = oracle_group_homology(G, 2)
        assert all(t.group(k, 0) == gh.group(k) for k in range(3)), G.name


def test_mb_n_rejects_level_zero():
    with pytest.raises(ValidationError):
        mb_n(sphere_ncat(0), 2)


def test_sphere_homology_ladder():
    for n in (1, 2, 3):
        S = mb_n(sphere_ncat(n), n + 2)
        t = homology_table(unnormalized_chains(S), n + 1)
        for k in range(n + 2):
            expected = FgAbelianGroup(1) if k in (0, n) else FgAbelianGroup()
            assert t.group(k) == expected, (n, k)


def test_suspension_double_nerve_rows_normalize_to_two_columns():
    # only the unit paths and the single crossing leg survive horizontal
    # normalization, so the reduced double complex sits in columns 0 and 1
    from maghom.iterated import _double_nerve, _hom_nerves_for

    X = suspension(discrete_category(["x", "y"]))
    from maghom import row_normalize

    B = _double_nerve(_hom_nerves_for(X, 2), 2, 2)
    reduced = row_normalize(B)
    for (p, q), labels in reduced.basis.items():
        if p >= 2:
            assert labels == (), (p, q)
    assert len(reduced.basis[(0, 0)]) == 2
    assert len(reduced.basis[(1, 1)]) > 0


def test_degree_zero_counts_components():
    # a disconnected 2-category: three objects, discrete everything
    emb = two_cat_from_category(discrete_category(["a", "b", "c"]))
    t = iterated_homology(emb, 1, "diag")
    assert t.group(0) == FgAbelianGroup(3)
    for n in (1, 2, 3):
        t = (
            category_homology(as_category(sphere_ncat(n)), 1)
            if n == 1
            else iterated_homology(sphere_ncat(n), 1, "tot")
        )
        assert t.group(0) == FgAbelianGroup(1)


def test_suspension_over_explicit_two_category():
    # level 3 with an explicit 2-category inside
    inner = two_cat_from_category(parallel_arrows_category())
    X = suspension(inner)
    assert X.level == 3
    got = iterated_homology(X, 3, "diag")
    pred = oracle_suspension(iterated_homology(inner, 2, "diag"), 3)
    assert got == pred
    assert got == iterated_homology(X, 3, "tot")


def test_suspension_of_empty_set_has_two_components():
    from maghom import NCatSet, NCatSuspension

    X = NCatSuspension(NCatSet(()))
    t = category_homology(as_category(X), 1)
    assert t.group(0) == FgAbelianGroup(2)


# --- normed groups -----------------------------------------------------------


def z2_normed():
    return make_normed_group(cyclic_group(2), {0: 0, 1: 1})


def test_normed_bisimplicial_slice_validates():
    N = z2_normed()
    for ell in (0, 1, 2):
        validate_bisimplicial(double_nerve_normed_group(N, ell, 2))
    NS3 = word_norm_group(S3, [(1, 0, 2)])
    validate_bisimplicial(double_nerve_normed_group(NS3, 1, 1))


def test_normed_diag_slice_validates():
    N = z2_normed()
    for ell in (0, 1):
        validate_simplicial(diag_nerve_normed_group(N, ell, 3))


def test_normed_basis_order_is_by_leg_length_then_element():
    # legs compare by length, then by element index, the first leg first
    for N in (z2_normed(), word_norm_group(S3, [(1, 0, 2)])):
        index = {g: i for i, g in enumerate(N.group.elements)}
        for ell in (0, 1, 2):
            B = double_nerve_normed_group(N, ell, 2)
            for (p, q), labels in B.basis.items():
                keys = [
                    tuple((_col_length(N, c), tuple(index[g] for g in c)) for c in cols)
                    for xs, cols in labels
                ]
                assert keys == sorted(keys), (ell, p, q)


def test_normed_basis_shapes():
    N = z2_normed()
    B = double_nerve_normed_group(N, 1, 2)
    # column 0 and the bottom row vanish in positive gradings
    for (p, q), labels in B.basis.items():
        if p == 0 or q == 0:
            assert labels == (), (p, q)
    assert len(B.basis[(1, 1)]) == 2
    B0 = double_nerve_normed_group(N, 0, 2)
    for q in range(3):
        assert len(B0.basis[(0, q)]) == 1


def test_normed_faces_preserve_total_length():
    NS3 = word_norm_group(S3, [(1, 0, 2)])
    for ell in (Fraction(1), Fraction(2)):
        B = double_nerve_normed_group(NS3, ell, 2)
        for faces in (B.h_face, B.v_face):
            checked = 0
            for maps in faces.values():
                for fm in maps:
                    for tgt in fm.values():
                        if tgt is not None:
                            assert sum(
                                (_col_length(NS3, c) for c in tgt[1]), Fraction(0)
                            ) == ell
                            checked += 1
            assert checked > 0, ell


def _brute_force_normed_slice(N, ell, p, q):
    """Basis and (generator, face) pairs at (p, q) of the grading-ell slice:
    every p-tuple of (q+1)-columns of total length ell, with each face the
    plain drop or merge of columns or drop of a row, zero unless it keeps
    the total length."""
    G = N.group

    def length(cols):
        return sum((_col_length(N, c) for c in cols), Fraction(0))

    basis = {
        cols for cols in product(product(G.elements, repeat=q + 1), repeat=p)
        if length(cols) == ell
    }
    pairs = set()
    for cols in basis:
        faces = []
        if p:
            faces += [("h", 0, cols[1:]), ("h", p, cols[:-1])]
            for i in range(1, p):
                merged = tuple(G.mul(a, b) for a, b in zip(cols[i - 1], cols[i]))
                faces.append(("h", i, cols[: i - 1] + (merged,) + cols[i + 1:]))
        if q:
            for j in range(q + 1):
                faces.append(("v", j, tuple(c[:j] + c[j + 1:] for c in cols)))
        for direction, i, face in faces:
            pairs.add((cols, direction, i, face if length(face) == ell else None))
    return basis, pairs


def test_normed_slices_match_brute_force():
    cases = [
        z2_normed(),
        word_norm_group(cyclic_group(4), [1]),
        word_norm_group(S3, [(1, 0, 2)]),
    ]
    for N in cases:
        for ell in reachable_normed_gradings(N, 2, route="tot"):
            B = double_nerve_normed_group(N, ell, 2)
            for p in range(4):
                for q in range(4 - p):
                    pairs = set()
                    for direction, faces in (("h", B.h_face), ("v", B.v_face)):
                        for i, fm in enumerate(faces.get((p, q), ())):
                            for (xs, cols), tgt in fm.items():
                                pairs.add((cols, direction, i, tgt and tgt[1]))
                    basis = {cols for xs, cols in B.basis[(p, q)]}
                    assert (basis, pairs) == _brute_force_normed_slice(N, ell, p, q), (
                        N.norm, ell, p, q)


def test_normed_grading_zero_recovers_group_homology():
    for G in (cyclic_group(2), cyclic_group(4), S3):
        N = (
            make_normed_group(G, {g: 0 if g == G.identity else 1 for g in G.elements})
        )
        t = normed_group_homology(N, [0], 2, route="tot")
        gh = oracle_group_homology(G, 2)
        for k in range(3):
            assert t.group(k, 0) == gh.group(k)


def test_normed_positive_grading_vanishing_and_degree_two():
    NS3 = word_norm_group(S3, [(1, 0, 2)])
    t = normed_group_homology(NS3, "norm-values", 2, route="tot")
    for ell in (1, 2):
        assert t.group(0, ell).is_trivial
        assert t.group(1, ell).is_trivial
        assert t.group(2, ell) == oracle_mh2_normed(NS3, ell)


def test_normed_routes_agree():
    N4 = word_norm_group(cyclic_group(4), [1])
    td = normed_group_homology(N4, "norm-values", 2, route="diag")
    tt = normed_group_homology(N4, "norm-values", 2, route="tot")
    tn = normed_group_homology(N4, "norm-values", 2, route="tot", normalize_rows=True)
    assert td == tt == tn


def test_reachable_normed_gradings():
    N = z2_normed()
    # p + q <= 2 admits at most one distance step
    assert reachable_normed_gradings(N, 1, route="tot") == [0, 1]
    assert reachable_normed_gradings(N, 2, route="tot") == [0, 1, 2]
    assert Fraction(4) in reachable_normed_gradings(N, 1, route="diag")


def test_adjacency_factorization_equivalence():
    """Two elements are non-adjacent exactly when both can be factored with
    matching distance splitting."""
    groups = [
        word_norm_group(cyclic_group(4), [1]),
        word_norm_group(S3, [(1, 0, 2)]),
        z2_normed(),
    ]
    for N in groups:
        G = N.group
        M = metric_of_normed_group(N)
        for g in G.elements:
            for h in G.elements:
                if g == h:
                    continue
                non_adjacent = any(
                    z not in (g, h) and M.d(g, h) == M.d(g, z) + M.d(z, h)
                    for z in G.elements
                )
                factored = any(
                    g0 != h0
                    and G.mul(G.inv(g0), g) != G.mul(G.inv(h0), h)
                    and M.d(g, h)
                    == M.d(g0, h0) + M.d(G.mul(G.inv(g0), g), G.mul(G.inv(h0), h))
                    for g0 in G.elements
                    for h0 in G.elements
                )
                assert non_adjacent == factored, (g, h)


# --- product formula ---------------------------------------------------------


def test_kunneth_check_categories():
    s1 = parallel_arrows_category()
    assert kunneth_check(s1, s1, 3).ok
    assert kunneth_check(s1, terminal_category(), 2).ok


def test_kunneth_check_metric():
    X = discrete_space(2, 1)
    assert kunneth_check(X, X, 2).ok
    assert kunneth_check(cycle_graph(3), X, 2).ok
    assert kunneth_check(X, discrete_space(1, 1), 2).ok


def test_kunneth_check_rejects_mixed():
    with pytest.raises(ValidationError):
        kunneth_check(parallel_arrows_category(), discrete_space(2, 1), 1)


# --- the shared (bi)simplicial assembly ----------------------------------------


def test_diagonal_nerve_is_the_diagonal_of_the_double_nerve():
    from maghom import diagonal, two_cat_of_cat_group
    from maghom.iterated import _diagonal_nerve, _double_nerve, _hom_nerves_for

    cases = [
        two_group_from_normal_subgroup(S3, A3),
        two_cat_of_cat_group(two_group_from_normal_subgroup(cyclic_group(2), [0, 1])),
        suspension(parallel_arrows_category()),
    ]
    for X in cases:
        H = _hom_nerves_for(X, 2)
        assert _diagonal_nerve(H, 2) == diagonal(_double_nerve(H, 2, 2)), X


def _composite_diagonal(H, D, ell=0):
    """The diagonal as the plain composite of the bisimplicial generator maps."""
    from maghom.iterated import _generator_maps, _tuple_generators
    from maghom.simplicial import assemble_simplicial, diagonal_maps

    return assemble_simplicial(
        (_tuple_generators(H, n, n, ell) for n in range(D + 1)),
        *diagonal_maps(*_generator_maps(H)),
    )


def _tables_in_order(S):
    return (S.basis, [[list(m.items()) for m in level] for level in (*S.face, *S.degeneracy)])


def _count_compose(monkeypatch, cls):
    """Count calls to cls.compose by argument tuple, the diagonal's memo key."""
    from collections import Counter

    calls = Counter()
    original = cls.compose

    def compose(self, *key):
        calls[key] += 1
        return original(self, *key)

    monkeypatch.setattr(cls, "compose", compose)
    return calls


def test_fused_diagonal_matches_the_composite_in_order(monkeypatch):
    from maghom import all_groups_up_to_order_8
    from maghom.cli import builder_documents, parse_input
    from maghom.iterated import _NormedNerves, _diagonal_nerve, _hom_nerves_for, _normed_slice

    docs = builder_documents()
    cases = [(sphere_ncat(2), 3), (sphere_ncat(3), 3),
             (parse_input(docs["suspension-two-discrete"]), 3)]
    for G in all_groups_up_to_order_8():
        if len(G.elements) <= 4:
            for N in G.normal_subgroups():
                # the top diagonal has (|G| |N|^D)^D generators; D = 3 would
                # reach 16.7M for the codiscrete groups of order 4
                D = 3 if len(G.elements) * len(N) <= 8 else 2
                cases.append((two_group_from_normal_subgroup(G, N), D))
    composed = 0
    for X, D in cases:
        H = _hom_nerves_for(X, D)
        want = _tables_in_order(_composite_diagonal(H, D))
        calls = _count_compose(monkeypatch, type(H))
        assert _tables_in_order(_diagonal_nerve(H, D)) == want, (X, D)
        assert all(c == 1 for c in calls.values()), (X, D)
        composed += len(calls)
        monkeypatch.undo()
    for name in ("s3-word-norm", "z4-word-norm"):
        N = parse_input(docs[name])
        for ell in sorted(set(N.norm.values())):
            H, scaled = _normed_slice(N, ell, 3)
            want = _tables_in_order(_composite_diagonal(H, 3, scaled))
            calls = _count_compose(monkeypatch, _NormedNerves)
            assert _tables_in_order(diag_nerve_normed_group(N, ell, 3)) == want, (name, ell)
            assert all(c == 1 for c in calls.values()), (name, ell)
            composed += len(calls)
            monkeypatch.undo()
    assert composed > 1000


def _compose_faces(outer, inner, x):
    y = inner.get(x)
    return None if y is None else outer.get(y)


def test_normed_diag_faces_are_double_nerve_composites():
    # inside the triangle p + q <= 4, bidegrees (n, n) and (n, n - 1) exist
    # for n <= 2; the diagonal's i-th face is v-face i then h-face i there
    cases = [
        (word_norm_group(S3, [(1, 0, 2)]), (0, 1, 2)),
        (word_norm_group(cyclic_group(4), [1]), (0, 1, 2, 3)),
    ]
    for N, gradings in cases:
        for ell in gradings:
            S = diag_nerve_normed_group(N, ell, 2)
            B = double_nerve_normed_group(N, ell, 3)
            for n in range(3):
                assert S.basis[n] == B.basis[(n, n)], (ell, n)
            for n in (1, 2):
                for i in range(n + 1):
                    hf, vf = B.h_face[(n, n - 1)][i], B.v_face[(n, n)][i]
                    for m in S.basis[n]:
                        assert S.face[n][i][m] == _compose_faces(hf, vf, m), (ell, n, i, m)


def test_normed_slices_reject_negative_gradings():
    N = z2_normed()
    with pytest.raises(ValidationError, match="nonnegative"):
        diag_nerve_normed_group(N, -1, 2)
    with pytest.raises(ValidationError, match="nonnegative"):
        double_nerve_normed_group(N, -1, 2)
    for route in ("diag", "tot"):
        with pytest.raises(ValidationError, match="nonnegative"):
            normed_group_homology(N, [-1], 1, route=route)


def _normed_groups_to_order_8():
    """Every group of order <= 8 with its word norm in each normally
    generating conjugacy class, the norm that is 1 off the identity, and,
    where there are at most four classes off the identity, every norm with
    values in {1, 2} there."""
    from maghom import all_groups_up_to_order_8

    for G in all_groups_up_to_order_8():
        classes = []
        for h in G.elements:
            if h != G.identity and not any(h in c for c in classes):
                classes.append(frozenset(G.conjugate(g, h) for g in G.elements))
        values = product((1, 2), repeat=len(classes)) if len(classes) <= 4 else [(1,) * len(classes)]
        for vals in values:
            norm = {G.identity: 0}
            for c, v in zip(classes, vals):
                norm.update(dict.fromkeys(c, v))
            yield make_normed_group(G, norm)
        for c in classes:
            try:
                yield word_norm_group(G, c)
            except ValidationError:
                pass


def test_normed_h_face_betweenness_is_the_length_formula():
    # merging columns a and b at rows 0, 1 keeps the length exactly when
    # |m_0 m_1^-1| = |a_0 a_1^-1| + |b_0 b_1^-1| for the merged column m
    from maghom.iterated import _NormedNerves

    count = 0
    for N in _normed_groups_to_order_8():
        compose = _NormedNerves(N, 1).compose
        G = N.group
        d = {(g, h): N.d(g, h) for g in G.elements for h in G.elements}
        for a in product(G.elements, repeat=2):
            for b in product(G.elements, repeat=2):
                m = (G.mul(a[0], b[0]), G.mul(a[1], b[1]))
                keeps = d[m] == d[a] + d[b]
                assert compose("*", "*", "*", 1, a, b) == (m if keeps else None), (N.norm, a, b)
                count += 1
    assert count > 10**5


@pytest.mark.parametrize("grading", [float("inf"), float("nan"), "x", None, 1.0])
def test_non_finite_normed_grading_is_rejected(grading):
    N = z2_normed()
    for route in ("diag", "tot"):
        with pytest.raises(ValidationError, match="not a finite rational"):
            normed_group_homology(N, [grading], 1, route=route)
    with pytest.raises(ValidationError, match="not a finite rational"):
        diag_nerve_normed_group(N, grading, 2)
    with pytest.raises(ValidationError, match="not a finite rational"):
        double_nerve_normed_group(N, grading, 2)


def _tot_from_full_homs(X, max_degree, normalize_rows):
    """The tot-route complex with every hom nerve built through max_degree."""
    from maghom.iterated import _double_nerve, _hom_nerves_for
    from maghom.simplicial import double_chains, row_normalize
    from maghom.complexes import total_complex

    B = _double_nerve(_hom_nerves_for(X, max_degree), max_degree, max_degree,
                      total_bound=max_degree)
    return total_complex(row_normalize(B) if normalize_rows else double_chains(B))


def test_tot_route_reads_homs_only_below_max_degree():
    from maghom import cat_group_from_preordered, dihedral_group
    from maghom.cli import builder_documents, parse_input

    docs = builder_documents()
    cases = [parse_input(docs[name]) for name in (
        "catgroup-s3-a3", "sphere-2", "suspension-two-discrete")]
    cases += [
        cat_group_from_preordered(parse_input(docs["preordered-s3-a3"])),
        discrete_cat_group(cyclic_group(4)),
        codiscrete_cat_group(klein_four_group()),
        two_group_from_normal_subgroup(dihedral_group(4), [("r", k) for k in range(4)]),
    ]
    for X in cases:
        for D in (1, 2, 3):
            for rows in (False, True):
                got = iterated_complex(X, D, "tot", normalize_rows=rows)
                want = _tot_from_full_homs(X, D, rows)
                assert got.basis == want.basis
                assert got.boundary == want.boundary
                assert got.faithful_degree == want.faithful_degree


# --- the generic constructions against the twins they replaced ---------------


def _stock_normed_groups():
    from maghom.cli import builder_documents, parse_input

    docs = builder_documents()
    return [(name, parse_input(docs[name]))
            for name in ("z2-normed", "z4-word-norm", "s3-word-norm", "d4-word-norm")]


def _product_sorted_columns(N, max_q):
    """The normed hom's columns and integer lengths, built the old way:
    every (q+1)-tuple of elements, stably sorted by length."""
    from maghom.magnitude_core import _scaled_distances

    dist, _ = _scaled_distances(metric_of_normed_group(N))
    columns, lengths = [], {}
    for q in range(max_q + 1):
        cols = list(product(N.group.elements, repeat=q + 1))
        for col in cols:
            lengths[col] = sum(dist[a, b] for a, b in zip(col, col[1:]))
        cols.sort(key=lengths.__getitem__)
        columns.append(tuple(cols))
    return tuple(columns), lengths


def test_normed_columns_are_the_sorted_product():
    from maghom.iterated import _NormedNerves

    for name, N in _stock_normed_groups():
        H = _NormedNerves(N, 3)
        columns, lengths = _product_sorted_columns(N, 3)
        assert H.homs["*", "*"].basis == columns, name
        assert H.lengths == lengths, name


def _norm_sums(N, max_degree, route):
    """Reachable normed gradings, built the old way: every sum of at most
    max_steps positive norm values."""
    T = max_degree + 1
    if route == "diag":
        max_steps = T * T
    else:
        max_steps = max(p * q for p in range(T + 1) for q in range(T + 1 - p))
    values = {v for v in N.norm.values() if v > 0}
    sums = {Fraction(0)}
    for _ in range(max_steps):
        sums |= {s + v for s in sums for v in values}
    return sorted(sums)


def test_reachable_normed_gradings_are_the_norm_sums():
    cases = [N for _, N in _stock_normed_groups()]
    cases.append(make_normed_group(cyclic_group(3), {0: 0, 1: Fraction(1, 2), 2: 1}))
    for N in cases:
        for route in ("diag", "tot"):
            for k in range(4):
                assert reachable_normed_gradings(N, k, route) == _norm_sums(N, k, route), (
                    N.norm, route, k)


def test_bad_route_is_rejected_before_any_grading():
    N = z2_normed()
    for gradings in ([], "norm-values"):
        with pytest.raises(ValidationError, match="unknown route"):
            normed_group_homology(N, gradings, 1, route="sideways")
        with pytest.raises(ValidationError, match="tot route"):
            normed_group_homology(N, gradings, 1, route="diag", normalize_rows=True)


def _direct_cat_group_from_preordered(P):
    """The Cat-group of a preordered group, built the old way: one arrow
    (g, h) per pair g <= h, multiplied entrywise."""
    from maghom.enriched_data import CatGroup, make_category

    G = P.group
    arrows = sorted(P.leq, key=repr)
    cells = make_category(
        G.elements, arrows,
        {a: a[0] for a in arrows}, {a: a[1] for a in arrows},
        {g: (g, g) for g in G.elements},
        {(b, a): (a[0], b[1]) for b in arrows for a in arrows if a[1] == b[0]},
    )
    hmul = {((a, b), (c, d)): (G.mul(a, c), G.mul(b, d))
            for (a, b) in arrows for (c, d) in arrows}
    return CatGroup(cells, G, hmul)


def _relabelled(C, G):
    """C with the arrow (g, h) renamed (h g^-1, g), the name the normal-
    subgroup Cat-group gives the arrow g -> h."""
    name = {m: (G.mul(m[1], G.inv(m[0])), m[0]) for m in C.cells.morphisms}
    X = C.cells
    return (
        set(name.values()),
        {name[m]: X.source[m] for m in X.morphisms},
        {name[m]: X.target[m] for m in X.morphisms},
        {g: name[m] for g, m in X.identity.items()},
        {(name[b], name[a]): name[c] for (b, a), c in X.compose.items()},
        {(name[a], name[b]): name[c] for (a, b), c in C.hmul.items()},
    )


def test_preordered_cat_group_is_the_cone_cat_group():
    from maghom import (
        all_groups_up_to_order_8,
        cat_group_from_preordered,
        preordered_group_from_cone,
    )

    count = 0
    for G in all_groups_up_to_order_8():
        for K in G.normal_subgroups():
            P = preordered_group_from_cone(G, K)
            old, new = _direct_cat_group_from_preordered(P), cat_group_from_preordered(P)
            X = new.cells
            assert _relabelled(old, G) == (
                set(X.morphisms), dict(X.source), dict(X.target), dict(X.identity),
                dict(X.compose), dict(new.hmul)), (G.elements, K)
            for rows in (False, True):
                assert iterated_homology(old, 1, "tot", rows) == \
                    iterated_homology(new, 1, "tot", rows), (G.elements, K, rows)
            count += 1
    assert count == 64
    P = preordered_group_from_cone(S3, A3)
    assert iterated_homology(_direct_cat_group_from_preordered(P), 1, "diag") == \
        iterated_homology(cat_group_from_preordered(P), 1, "diag")


def _kunneth_rows_two_branches(X, Y, max_degree):
    """The two-branch body kunneth_check had before it was one body."""
    from maghom import (
        FinCategory, GenMetricSpace, metric_homology, oracle_kunneth,
        product_category, tensor_metric,
    )

    if isinstance(X, FinCategory) and isinstance(Y, FinCategory):
        HX = category_homology(X, max_degree)
        HY = category_homology(Y, max_degree)
        direct = category_homology(product_category(X, Y), max_degree)
        pred = oracle_kunneth(HX, HY, max_degree)
        return [(k, None, direct.group(k), pred.group(k)) for k in range(max_degree + 1)]
    assert isinstance(X, GenMetricSpace) and isinstance(Y, GenMetricSpace)
    HX = metric_homology(X, max_degree)
    HY = metric_homology(Y, max_degree)
    direct = metric_homology(tensor_metric(X, Y), max_degree)
    pred = oracle_kunneth(HX, HY, max_degree)
    gradings = sorted(
        {g for g in direct.gradings() if g is not None}
        | {g for g in pred.gradings() if g is not None}
    )
    return [
        (k, ell, direct.group(k, ell), pred.group(k, ell))
        for ell in gradings
        for k in range(max_degree + 1)
    ]


def test_kunneth_rows_match_the_two_branch_body():
    two = discrete_space(2, 1)
    s1 = parallel_arrows_category()
    for X, Y in ((two, two), (cycle_graph(3), two), (s1, s1)):
        assert kunneth_check(X, Y, 3).rows == _kunneth_rows_two_branches(X, Y, 3)


def test_negative_max_degree_is_rejected_at_every_entry_point():
    from maghom import HomologyTable, metric_homology, nerve_category, oracle_kunneth
    from maghom.complexes import grading_values

    errors = []
    for route in ("diag", "tot"):
        with pytest.raises(ValidationError) as caught:
            normed_group_homology(z2_normed(), "norm-values", -1, route=route)
        errors.append(str(caught.value))
    assert errors == ["max_degree must be nonnegative"] * 2

    C = two_group_from_normal_subgroup(cyclic_group(2), [0, 1])
    for build in (
        lambda: iterated_homology(C, -1),
        lambda: iterated_homology(C, -1, "tot"),
        lambda: category_homology(parallel_arrows_category(), -1),
        lambda: metric_homology(cycle_graph(3), -1),
        lambda: nerve_category(parallel_arrows_category(), -1),
        lambda: mb_n(sphere_ncat(2), -1),
        lambda: double_nerve_2cat(C, -1),
        lambda: double_nerve_normed_group(z2_normed(), 1, -1),
        lambda: kunneth_check(cycle_graph(3), cycle_graph(3), -1),
        lambda: reachable_normed_gradings(z2_normed(), -1, "diag"),
        lambda: oracle_suspension(category_homology(parallel_arrows_category(), 1), -1),
        lambda: oracle_kunneth(HomologyTable({}), HomologyTable({}), -1),
    ):
        with pytest.raises(ValidationError, match="max_degree must be nonnegative"):
            build()
    for bad in (lambda: grading_values(5), lambda: metric_homology(cycle_graph(3), 1, 5)):
        with pytest.raises(ValidationError, match="not a list of rationals"):
            bad()


def _max_degree_entry_points():
    from maghom import (
        HomologyTable,
        graded_homology_table,
        magnitude_complex_metric,
        metric_homology,
        metric_nerve,
        nerve_category,
        oracle_kunneth,
        reachable_gradings,
        unit_complex,
    )

    C = two_group_from_normal_subgroup(cyclic_group(2), [0, 1])
    return {
        "homology_table": lambda d: homology_table(unit_complex(), d),
        "graded_homology_table": lambda d: graded_homology_table(
            magnitude_complex_metric(cycle_graph(3), 1), d),
        "metric_homology": lambda d: metric_homology(cycle_graph(4), d),
        "magnitude_complex_metric": lambda d: magnitude_complex_metric(cycle_graph(4), d),
        "metric_nerve": lambda d: metric_nerve(cycle_graph(4), d),
        "reachable_gradings": lambda d: reachable_gradings(cycle_graph(4), d),
        "nerve_category": lambda d: nerve_category(parallel_arrows_category(), d),
        "category_homology": lambda d: category_homology(parallel_arrows_category(), d),
        "iterated_complex": lambda d: iterated_complex(sphere_ncat(2), d),
        "iterated_homology-diag": lambda d: iterated_homology(C, d),
        "iterated_homology-tot": lambda d: iterated_homology(C, d, "tot"),
        "mb_n": lambda d: mb_n(sphere_ncat(2), d),
        "double_nerve_2cat": lambda d: double_nerve_2cat(C, d),
        "double_nerve_normed_group": lambda d: double_nerve_normed_group(z2_normed(), 1, d),
        "normed_group_homology-diag": lambda d: normed_group_homology(
            z2_normed(), "norm-values", d, route="diag"),
        "normed_group_homology-tot": lambda d: normed_group_homology(
            z2_normed(), "norm-values", d, route="tot"),
        "reachable_normed_gradings": lambda d: reachable_normed_gradings(z2_normed(), d, "diag"),
        "kunneth_check": lambda d: kunneth_check(cycle_graph(3), cycle_graph(3), d),
        "oracle_suspension": lambda d: oracle_suspension(
            category_homology(parallel_arrows_category(), 1), d),
        "oracle_kunneth": lambda d: oracle_kunneth(HomologyTable({}), HomologyTable({}), d),
    }


@pytest.mark.parametrize("bad", [1.5, "2", True])
@pytest.mark.parametrize("entry", sorted(_max_degree_entry_points()))
def test_a_max_degree_that_is_no_int_is_rejected(entry, bad):
    """A float or a string is a ValidationError, not a TypeError further
    in, and a bool is not read as 0 or 1."""
    with pytest.raises(ValidationError, match=rf"^max_degree {bad!r} is not an integer$"):
        _max_degree_entry_points()[entry](bad)


def test_diagonal_nerve_leaves_no_reference_cycles():
    """Reference counting frees everything a nerve build allocates, so
    peak memory does not depend on when the cyclic collector runs."""
    import gc

    N = word_norm_group(S3, [(1, 0, 2)])
    gc.collect()
    diag_nerve_normed_group(N, 2, 2)
    assert gc.collect() == 0
