
from fractions import Fraction

import pytest

from maghom import (
    FgAbelianGroup,
    IntMatrix,
    ValidationError,
    category_from_group,
    cyclic_group,
    diagonal,
    discrete_category,
    discrete_space,
    double_chains,
    external_product,
    homology_table,
    linear_order_category,
    metric_nerve,
    nerve_category,
    normalized_chains,
    parallel_arrows_category,
    row_normalize,
    tensor_complex,
    terminal_category,
    total_complex,
    unnormalized_chains,
    validate_bisimplicial,
    validate_simplicial,
)
from maghom import simplicial
from maghom.simplicial import BasedSimplicialObject, degenerate_labels

from conftest import random_metric_space, random_preorder_category


def constant_simplicial(D=3):
    basis = tuple((f"c",) for _ in range(D + 1))
    face = [()] + [tuple({"c": "c"} for _ in range(n + 1)) for n in range(1, D + 1)]
    degen = [tuple({"c": "c"} for _ in range(n + 1)) for n in range(D)]
    return BasedSimplicialObject(basis, tuple(face), tuple(degen))


def test_constant_object_boundaries_alternate():
    S = constant_simplicial()
    validate_simplicial(S)
    C = unnormalized_chains(S)
    assert C.boundary[1].is_zero()
    assert C.boundary[2].entry(0, 0) == 1
    assert C.boundary[3].is_zero()


def test_validation_catches_broken_identity():
    S = constant_simplicial(2)
    bad_face = list(list(level) for level in S.face)
    bad_face[2] = list(bad_face[2])
    bad_face[2][0] = {"c": None}
    broken = BasedSimplicialObject(S.basis, tuple(tuple(l) for l in bad_face), S.degeneracy)
    with pytest.raises(ValidationError):
        validate_simplicial(broken)


def test_nerve_of_linear_order_contractible():
    S = nerve_category(linear_order_category(3), 3)
    validate_simplicial(S)
    t = homology_table(unnormalized_chains(S), 2)
    assert t.group(0) == FgAbelianGroup(1)
    assert t.group(1).is_trivial and t.group(2).is_trivial


def test_normalized_one_object_category():
    S = nerve_category(terminal_category(), 3)
    N = normalized_chains(S)
    assert [N.dim(k) for k in range(4)] == [1, 0, 0, 0]


def test_normalized_parallel_arrows():
    S = nerve_category(parallel_arrows_category(), 3)
    N = normalized_chains(S)
    assert N.basis[1] == (("f",), ("g",))
    assert N.dim(2) == 0 and N.dim(3) == 0


def _quasi_iso_instances(rnd, count):
    made = []
    while len(made) < count:
        pick = len(made) % 3
        if pick == 0:
            made.append(nerve_category(random_preorder_category(rnd), 3))
        elif pick == 1:
            G = rnd.choice([cyclic_group(2), cyclic_group(3), cyclic_group(4)])
            made.append(nerve_category(category_from_group(G), 3))
        else:
            X = random_metric_space(rnd, n_points=3, complete=False)
            slices = metric_nerve(X, 3)
            ells = sorted(slices)
            made.append(slices[rnd.choice(ells)])
    return made


def test_normalized_vs_unnormalized_quasi_iso(rnd):
    for S in _quasi_iso_instances(rnd, 50):
        validate_simplicial(S)
        tn = homology_table(normalized_chains(S), S.max_degree - 1)
        tu = homology_table(unnormalized_chains(S), S.max_degree - 1)
        assert tn == tu


def _alternating_on(S, nondeg):
    """The alternating face sums of S restricted to the given generators,
    with faces outside them dropped."""
    out = [IntMatrix.zero(0, len(nondeg[0]))]
    for n in range(1, S.max_degree + 1):
        index = {lab: i for i, lab in enumerate(nondeg[n - 1])}
        cols = []
        for lab in nondeg[n]:
            col = {}
            for i, fmap in enumerate(S.face[n]):
                tgt = fmap[lab]
                if tgt in index:
                    col[index[tgt]] = col.get(index[tgt], 0) + (-1) ** i
            cols.append(col)
        out.append(IntMatrix.from_columns(len(nondeg[n - 1]), cols))
    return tuple(out)


def test_normalized_chains_reads_the_degenerate_labels_once_per_degree(monkeypatch):
    S = nerve_category(category_from_group(cyclic_group(3)), 4)
    # the filter as it was, with the degenerate set rebuilt for every label
    nondeg = [
        tuple(lab for lab in S.basis[n] if lab not in degenerate_labels(S, n))
        for n in range(S.max_degree + 1)
    ]
    calls = []

    def counting(S, n):
        calls.append(n)
        return degenerate_labels(S, n)

    monkeypatch.setattr(simplicial, "degenerate_labels", counting)
    C = normalized_chains(S)
    assert calls == list(range(S.max_degree + 1))
    assert C.basis == tuple(nondeg)
    assert [len(b) for b in C.basis] == [1, 2, 4, 8, 16]
    assert C.boundary == _alternating_on(S, nondeg)


def test_degenerate_labels_are_images():
    S = nerve_category(parallel_arrows_category(), 2)
    degs = degenerate_labels(S, 1)
    assert degs == {("idA",), ("idB",)}


def test_diagonal_of_external_product_matches_tensor(rnd):
    A = nerve_category(parallel_arrows_category(), 3)
    B = nerve_category(random_preorder_category(rnd), 3)
    E = external_product(A, B)
    validate_bisimplicial(E)
    t_diag = homology_table(unnormalized_chains(diagonal(E)), 2)
    t_tensor = homology_table(
        tensor_complex(unnormalized_chains(A), unnormalized_chains(B)), 2
    )
    t_tot = homology_table(total_complex(double_chains(E)), 2)
    t_rows = homology_table(total_complex(row_normalize(E)), 2)
    assert t_diag == t_tensor == t_tot == t_rows


def test_double_chains_of_constant_rows():
    # legs constant in the vertical direction: columns alternate 0 / identity
    A = nerve_category(category_from_group(cyclic_group(2)), 2)
    E = external_product(A, constant_simplicial(2))
    D = double_chains(E)
    assert D.vertical[(1, 1)].is_zero()
    assert not D.vertical[(1, 2)].is_zero()


def test_row_normalize_trims_degenerate_nerve_legs():
    A = nerve_category(parallel_arrows_category(), 2)
    E = external_product(A, A)
    plain = double_chains(E)
    reduced = row_normalize(E)
    assert plain.basis[(0, 0)] == reduced.basis[(0, 0)]
    assert len(reduced.basis[(1, 1)]) < len(plain.basis[(1, 1)])


def test_row_normalize_identical_without_degenerate_generators():
    # a single-grading slice concentrated in its top degree has nothing
    # degenerate, so normalizing the rows changes nothing at all
    X = discrete_space(2, 1)
    A = metric_nerve(X, 3, gradings=[3])[Fraction(3)]
    assert all(A.dim(n) == 0 for n in range(3))
    E = external_product(A, A)
    plain = double_chains(E)
    reduced = row_normalize(E)
    assert plain.basis == reduced.basis
    assert plain.horizontal == reduced.horizontal
    assert plain.vertical == reduced.vertical


def test_row_normalize_preserves_total_homology(rnd):
    for _ in range(6):
        A = nerve_category(random_preorder_category(rnd), 3)
        B = nerve_category(random_preorder_category(rnd), 3)
        E = external_product(A, B)
        t1 = homology_table(total_complex(double_chains(E)), 2)
        t2 = homology_table(total_complex(row_normalize(E)), 2)
        assert t1 == t2


def test_diagonal_of_corner_concentration():
    # everything concentrated in bidegree (0,0) restricts to a constant-free
    # simplicial object: one generator in degree 0 and nothing above
    A = nerve_category(discrete_category(["p"]), 0)
    E = external_product(A, A)
    D = diagonal(E)
    assert D.max_degree == 0 and D.dim(0) == 1


def test_diagonal_requires_square():
    A = nerve_category(parallel_arrows_category(), 2)
    B = nerve_category(parallel_arrows_category(), 3)
    E = external_product(A, B)
    with pytest.raises(ValidationError):
        diagonal(E)


def test_assemble_simplicial_stores_basis_labels_and_rejects_the_rest():
    # pairs of 0/1 over their end points; faces and degeneracies build
    # fresh tuples, and the tables hold the basis objects they equal
    def faces(n, i, x):
        return (x[1 - i],)

    def degen(n, i, x):
        return x + x

    S = simplicial.assemble_simplicial([[(0,), (1,)], [(0, 0), (0, 1), (1, 1)]], faces, degen)
    validate_simplicial(S)
    assert S.face[1][0][(0, 1)] is S.basis[0][1]
    assert S.degeneracy[0][0][(1,)] is S.basis[1][2]
    with pytest.raises(ValidationError, match="degeneracy 0 in degree 0 leaves the basis"):
        simplicial.assemble_simplicial([[(0,), (1,)], [(0, 0), (0, 1)]], faces, degen)
    with pytest.raises(ValidationError, match="face 1 in degree 1 leaves the basis"):
        simplicial.assemble_simplicial([[(1,)], [(0, 1)]], faces, degen)


def test_validate_bisimplicial_rejects_broken_tables():
    from dataclasses import replace

    E = external_product(nerve_category(parallel_arrows_category(), 2),
                         nerve_category(linear_order_category(2), 2))
    validate_bisimplicial(E)

    h_face = dict(E.h_face)
    del h_face[(1, 1)]
    with pytest.raises(ValidationError, match="row q=1: face 0 in degree 1 not defined"):
        validate_bisimplicial(replace(E, h_face=h_face))

    v_face = dict(E.v_face)
    off = dict(v_face[(1, 1)][0])
    off[next(iter(off))] = "nowhere"
    v_face[(1, 1)] = (off,) + v_face[(1, 1)][1:]
    with pytest.raises(ValidationError, match="column p=1: face 0 in degree 1 leaves the basis"):
        validate_bisimplicial(replace(E, v_face=v_face))

    h_degen = dict(E.h_degen)
    merged = dict(h_degen[(0, 0)][0])
    a, b = E.basis[(0, 0)][:2]
    merged[b] = merged[a]
    h_degen[(0, 0)] = (merged,)
    with pytest.raises(ValidationError, match="row q=0: degeneracy 0 in degree 0 is not injective"):
        validate_bisimplicial(replace(E, h_degen=h_degen))


# One object with a loop (1,), and two objects with arrows f, g: A -> B; in
# degrees 0 and 1 a redirected face or degeneracy below keeps every row and
# column simplicial, so only the commutation of the two directions fails.
LOOP = nerve_category(category_from_group(cyclic_group(2)), 1)
ARROWS = nerve_category(parallel_arrows_category(), 1)


@pytest.mark.parametrize("factors, table, at, x, y, law", [
    ((LOOP, ARROWS), "v_face", (1, 1), ((1,), ("f",)), ((1,), "A"),
     r"h-face 0 and v-face 0 do not commute at \(1, 1\)"),
    ((ARROWS, LOOP), "v_degen", (1, 0), (("f",), "*"), (("f",), (1,)),
     r"h-face 0 and v-degeneracy 0 do not commute at \(1, 0\)"),
    ((LOOP, ARROWS), "h_degen", (0, 1), ("*", ("f",)), ((1,), ("f",)),
     r"h-degeneracy 0 and v-face 0 do not commute at \(0, 1\)"),
    ((LOOP, ARROWS), "h_degen", (0, 1), ("*", ("idA",)), ((1,), ("idA",)),
     r"h-degeneracy 0 and v-degeneracy 0 do not commute at \(0, 0\)"),
], ids=["face-face", "face-degeneracy", "degeneracy-face", "degeneracy-degeneracy"])
def test_validate_bisimplicial_rejects_each_noncommuting_pair(factors, table, at, x, y, law):
    from dataclasses import replace

    E = external_product(*factors)
    validate_bisimplicial(E)
    tables = dict(getattr(E, table))
    first, *rest = tables[at]
    assert first[x] != y
    tables[at] = ({**first, x: y}, *rest)
    with pytest.raises(ValidationError, match=law):
        validate_bisimplicial(replace(E, **{table: tables}))
