"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test exercises the full pipeline at the stated scale and tolerance
(exact group equality everywhere) and prints PASS/FAIL so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import random
import time
from fractions import Fraction
from itertools import combinations


from maghom import (
    FgAbelianGroup,
    HomologyTable,
    IntMatrix,
    all_groups_up_to_order_8,
    cat_group_from_preordered,
    category_homology,
    cycle_digraph,
    cycle_graph,
    cyclic_group,
    dihedral_group,
    discrete_space,
    double_nerve_normed_group,
    external_product,
    homology_table,
    iterated_homology,
    kunneth_check,
    magnitude_complex_metric,
    make_normed_group,
    mb_n,
    metric_homology,
    metric_nerve,
    metric_of_normed_group,
    nerve_category,
    normalized_chains,
    normed_group_homology,
    oracle_mh1_metric,
    oracle_mh2_normed,
    oracle_suspension,
    oracle_mh01_catgroup,
    oracle_catgroup,
    oracle_group_homology,
    parallel_arrows_category,
    product_category,
    reachable_gradings,
    reachable_normed_gradings,
    smith_normal_form,
    sphere_ncat,
    symmetric_group,
    tensor_complex,
    tensor_metric,
    total_complex,
    two_cat_from_category,
    two_group_from_normal_subgroup,
    unnormalized_chains,
    validate_complex,
    validate_normed_group,
    diagonal,
    double_chains,
    row_normalize,
    word_norm_group,
)

from maghom.cli import builder_documents, parse_input

from conftest import random_metric_space
from test_exact_linalg import snf_by_minors
from test_simplicial import _quasi_iso_instances

S3 = symmetric_group(3)
TRANSPOSITION = (1, 0, 2)


def report(number: int, description: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}"


NORMED_SUITE = None


def normed_suite():
    """The four normed groups of criterion 6, built once."""
    global NORMED_SUITE
    if NORMED_SUITE is None:
        NORMED_SUITE = [
            ("S3", word_norm_group(S3, [TRANSPOSITION])),
            ("Z2", make_normed_group(cyclic_group(2), {0: 0, 1: 1})),
            ("Z4", word_norm_group(cyclic_group(4), [1])),
            ("D4", word_norm_group(dihedral_group(4), [("r", 1), ("s", 0)])),
        ]
    return NORMED_SUITE


def test_criterion_1_circle_category():
    start = time.monotonic()
    table = category_homology(parallel_arrows_category(), 2)
    elapsed = time.monotonic() - start
    ok = (
        table.group(0) == FgAbelianGroup(1)
        and table.group(1) == FgAbelianGroup(1)
        and table.group(2).is_trivial
        and elapsed < 1.0
    )
    report(1, "two parallel arrows: Z, Z, 0 in degrees 0..2", ok, f"{elapsed:.3f}s")


def test_criterion_2_sphere_ladder():
    start = time.monotonic()
    ok = True
    predicted = HomologyTable({(0, None): FgAbelianGroup(2)})  # two points
    for n in (1, 2, 3):
        S = mb_n(sphere_ncat(n), n + 2)
        table = homology_table(unnormalized_chains(S), n + 1)
        for k in range(n + 2):
            want = FgAbelianGroup(1) if k in (0, n) else FgAbelianGroup()
            ok = ok and table.group(k) == want
        predicted = oracle_suspension(predicted, n + 1)
        ok = ok and all(
            table.group(k) == predicted.group(k) for k in range(n + 2)
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(2, "sphere ladder n=1..3 matches the iterated shift prediction", ok,
           f"{elapsed:.2f}s")


def test_criterion_3_degree_one_theorem():
    rnd = random.Random(3)
    spaces = [cycle_digraph(n) for n in range(3, 7)]
    spaces += [cycle_graph(n) for n in range(3, 7)]
    spaces += [random_metric_space(rnd, 5) for _ in range(20)]
    checked = 0
    ok = True
    for X in spaces:
        table = metric_homology(X, 1)
        for ell in reachable_gradings(X, 2):
            got = table.group(1, ell)
            ok = ok and got == oracle_mh1_metric(X, ell)
            checked += 1
    report(3, "degree-1 groups count adjacent pairs on cycles and 20 random spaces",
           ok, f"{checked} gradings compared")


def test_criterion_4_kunneth():
    two = discrete_space(2, 1)
    pairs = [
        ("2pt x 2pt", two, two),
        ("cycle3 x 2pt", cycle_graph(3), two),
    ]
    ok = True
    details = []
    for name, X, Y in pairs:
        rep = kunneth_check(X, Y, 3)
        ok = ok and rep.ok
        details.append(f"{name}: {len(rep.rows)}")
    s1 = parallel_arrows_category()
    rep = kunneth_check(s1, s1, 3)
    ok = ok and rep.ok
    got = category_homology(product_category(s1, s1), 3)
    ok = ok and [got.group(k).free_rank for k in range(4)] == [1, 2, 1, 0]
    details.append(f"s1 x s1: {len(rep.rows)}")
    report(4, "product homology equals the split tensor/Tor assembly", ok,
           ", ".join(details))


def all_cat_group_pairs():
    for G in all_groups_up_to_order_8():
        for N in G.normal_subgroups():
            yield G, N


def test_criterion_5_cat_group_low_degrees():
    ok = True
    count = 0
    for G, N in all_cat_group_pairs():
        C = two_group_from_normal_subgroup(G, N)
        table = iterated_homology(C, 1, route="tot")
        h0, h1 = oracle_mh01_catgroup(C)
        ok = ok and table.group(0) == h0 == FgAbelianGroup(1)
        ok = ok and table.group(1) == h1
        count += 1
    report(5, "every order <= 8 two-group has MH_0 = Z and MH_1 its component "
              "abelianization", ok, f"{count} pairs")


def test_criterion_5_s3_a3_through_degree_three():
    """catgroup-s3-a3 and its preordered form on the tot route, rows
    normalized or not, through degree 3, against the group homology of
    the quotient S3/A3 = Z/2."""
    docs = builder_documents()
    z2 = [FgAbelianGroup(1), FgAbelianGroup(0, (2,)), FgAbelianGroup(), FgAbelianGroup(0, (2,))]
    ok = True
    for C in (parse_input(docs["catgroup-s3-a3"]),
              cat_group_from_preordered(parse_input(docs["preordered-s3-a3"]))):
        want = oracle_catgroup(C, 3)
        ok = ok and [want.group(k) for k in range(4)] == z2
        for rows in (False, True):
            ok = ok and iterated_homology(C, 3, "tot", normalize_rows=rows) == want
    report(5, "S3/A3 as a Cat-group and as a preordered group: tot through degree 3 "
              "is the group homology of Z/2", ok)


def test_criterion_6_normed_groups():
    ok = True
    details = []
    s3_elapsed = None
    for name, N in normed_suite():
        start = time.monotonic()
        pos = [v for v in sorted(set(N.norm.values())) if v > 0]
        every_ell = reachable_normed_gradings(N, 2, route="tot")
        table = normed_group_homology(N, every_ell, 2, route="tot")
        gh = oracle_group_homology(N.group, 2)
        ok = ok and all(table.group(k, 0) == gh.group(k) for k in range(3))
        for ell in every_ell:
            if ell > 0:
                ok = ok and table.group(0, ell).is_trivial
                ok = ok and table.group(1, ell).is_trivial
        for ell in pos:
            ok = ok and table.group(2, ell) == oracle_mh2_normed(N, ell)
        elapsed = time.monotonic() - start
        if name == "S3":
            s3_elapsed = elapsed
        details.append(f"{name} {elapsed:.1f}s")
    ok = ok and s3_elapsed is not None and s3_elapsed < 300.0
    report(6, "normed groups: grading 0 is group homology, low degrees vanish "
              "above it, degree 2 counts indecomposable classes", ok,
           ", ".join(details))


def _routes_table(thing, max_degree):
    td = iterated_homology(thing, max_degree, "diag")
    tt = iterated_homology(thing, max_degree, "tot")
    tn = iterated_homology(thing, max_degree, "tot", normalize_rows=True)
    return td == tt == tn


def test_criterion_7_route_equivalence():
    ok = True
    parts = []

    # criterion 1 instance, embedded with discrete hom-categories
    s1 = parallel_arrows_category()
    emb = two_cat_from_category(s1)
    ok_s1 = _routes_table(emb, 2) and iterated_homology(emb, 2, "diag") == category_homology(s1, 2)
    ok = ok and ok_s1
    parts.append("circle")

    # criterion 2 instances
    for n in (2, 3):
        ok = ok and _routes_table(sphere_ncat(n), n + 1)
    parts.append("spheres")

    # criterion 3/4 product instances via the external product of nerves
    two = discrete_space(2, 1)
    for X, Y in ((two, two), (cycle_graph(3), two)):
        slices_x = metric_nerve(X, 3)
        slices_y = metric_nerve(Y, 3)
        direct = metric_homology(tensor_metric(X, Y), 2)
        for r in slices_x:
            for s in slices_y:
                E = external_product(slices_x[r], slices_y[s])
                t_diag = homology_table(unnormalized_chains(diagonal(E)), 2)
                t_tot = homology_table(total_complex(double_chains(E)), 2)
                t_rows = homology_table(total_complex(row_normalize(E)), 2)
                ok = ok and t_diag == t_tot == t_rows
    A = nerve_category(s1, 3)
    E = external_product(A, A)
    t_diag = homology_table(unnormalized_chains(diagonal(E)), 2)
    t_tot = homology_table(total_complex(double_chains(E)), 2)
    t_rows = homology_table(total_complex(row_normalize(E)), 2)
    t_tensor = homology_table(tensor_complex(unnormalized_chains(A), unnormalized_chains(A)), 2)
    ok = ok and t_diag == t_tot == t_rows == t_tensor
    parts.append("products")

    # criterion 5 instances
    for G, N in all_cat_group_pairs():
        C = two_group_from_normal_subgroup(G, N)
        ok = ok and _routes_table(C, 1)
    parts.append("two-groups")

    # criterion 6 instances, per grading, through degree 2
    for name, N in normed_suite():
        ells = sorted({Fraction(0), *(v for v in N.norm.values())})
        td = normed_group_homology(N, ells, 2, route="diag")
        tt = normed_group_homology(N, ells, 2, route="tot")
        tn = normed_group_homology(N, ells, 2, route="tot", normalize_rows=True)
        ok = ok and td == tt == tn
    parts.append("normed-groups")

    report(7, "diagonal and total-complex routes agree, with and without row "
              "normalization", ok, ", ".join(parts))


def test_criterion_8_property_suites():
    ok = True

    # d after d vanishes on every complex constructed here (the chain
    # constructors verify this and raise; touching them is the check)
    built = 0
    for X in (cycle_digraph(4), discrete_space(2, 1)):
        for piece in magnitude_complex_metric(X, 3).pieces.values():
            validate_complex(piece)
            built += 1
    for n in (1, 2):
        validate_complex(unnormalized_chains(mb_n(sphere_ncat(n), n + 2)))
        built += 1
    for _, N in normed_suite()[:2]:
        B = double_nerve_normed_group(N, 1, 2)
        validate_complex(total_complex(double_chains(B)))
        built += 1

    # normalized vs unnormalized homology on 50 random simplicial objects
    rnd = random.Random(8)
    quasi = 0
    for S in _quasi_iso_instances(rnd, 50):
        tn = homology_table(normalized_chains(S), S.max_degree - 1)
        tu = homology_table(unnormalized_chains(S), S.max_degree - 1)
        ok = ok and tn == tu
        quasi += 1

    # adjacency factorization on every validated normed group of order <= 8
    normed_count = 0
    for G in all_groups_up_to_order_8():
        norms = [make_normed_group(
            G, {g: 0 if g == G.identity else 1 for g in G.elements}
        )]
        gens = _normal_generators(G)
        if gens is not None:
            norms.append(word_norm_group(G, gens))
        for N in norms:
            validate_normed_group(N)
            ok = ok and _adjacency_factorization_holds(N)
            normed_count += 1

    # Smith form against the gcd-of-minors oracle on 200 random matrices
    rnd = random.Random(88)
    for _ in range(200):
        m, n = rnd.randint(1, 4), rnd.randint(1, 4)
        rows = [[rnd.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        factors, rank = smith_normal_form(IntMatrix.from_rows(rows))
        ok = ok and factors == snf_by_minors(rows) and rank == len(factors)

    report(8, "property suites: boundary squares to zero, normalization is a "
              "quasi-isomorphism, adjacency factorization, Smith form vs minors",
           ok, f"{built} complexes, {quasi} quasi-iso, {normed_count} normed groups, 200 matrices")


def _normal_generators(G):
    """A small normally-generating set, or None if the search fails."""
    for size in (1, 2):
        for seed in combinations([g for g in G.elements if g != G.identity], size):
            conj = {G.conjugate(g, s) for g in G.elements for s in seed}
            conj |= {G.inv(c) for c in conj}
            reached = {G.identity}
            frontier = [G.identity]
            while frontier:
                x = frontier.pop()
                for c in conj:
                    y = G.mul(x, c)
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
            if len(reached) == len(G):
                return list(seed)
    return None


def _adjacency_factorization_holds(N):
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
            if non_adjacent != factored:
                return False
    return True
