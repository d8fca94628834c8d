"""The tensor products are Tot of a tensor double complex.

Differential test against the hand-written assembly they replace: a
test-local copy of the old tensor_complex, direct_sum_chain and
graded_tensor. Each old generator maps to a new one, ((j, c), (k, d)) to
(j, k, (c, d)) and, in a graded piece, ((r, s), ((j, c), (k, d))) to
(j, k, (r, s, c, d)); under that map both complexes have the same shape,
the same faithful degree, the same columns and the same homology.
"""

import pytest

from maghom import (
    BasedChainComplex,
    GradedChainComplex,
    IntMatrix,
    category_from_group,
    cycle_graph,
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
    unit_complex,
)
from maghom.cli import builder_documents, parse_input


def _old_tensor_complex(C, D):
    faithful = min(C.faithful_degree, D.faithful_degree)
    max_degree = min(C.max_degree + D.max_degree, max(faithful + 1, 0))
    c_index = [{lab: i for i, lab in enumerate(C.basis[j])} for j in range(C.max_degree + 1)]
    d_index = [{lab: i for i, lab in enumerate(D.basis[k])} for k in range(D.max_degree + 1)]
    basis, index = [], []
    for n in range(max_degree + 1):
        labels = []
        for j in range(n + 1):
            k = n - j
            if j <= C.max_degree and k <= D.max_degree:
                labels.extend(((j, cl), (k, dl)) for cl in C.basis[j] for dl in D.basis[k])
        basis.append(tuple(labels))
        index.append({lab: i for i, lab in enumerate(labels)})
    boundary = [IntMatrix.zero(0, len(basis[0]))]
    for n in range(1, max_degree + 1):
        cols = []
        target = index[n - 1]
        for ((j, cl), (k, dl)) in basis[n]:
            col = {}
            if j >= 1:
                for i, v in C.boundary[j].cols[c_index[j][cl]].items():
                    col[target[((j - 1, C.basis[j - 1][i]), (k, dl))]] = v
            if k >= 1:
                sign = -1 if j % 2 else 1
                for i, v in D.boundary[k].cols[d_index[k][dl]].items():
                    t = target[((j, cl), (k - 1, D.basis[k - 1][i]))]
                    nv = col.get(t, 0) + sign * v
                    if nv:
                        col[t] = nv
                    else:
                        col.pop(t, None)
            cols.append(col)
        boundary.append(IntMatrix.from_columns(len(basis[n - 1]), cols))
    return BasedChainComplex(tuple(basis), tuple(boundary), faithful)


def _old_direct_sum_chain(summands):
    max_degree = max(c.max_degree for _, c in summands)
    faithful = min(c.faithful_degree for _, c in summands)
    basis, boundary = [], []
    for n in range(max_degree + 1):
        labels, cols, offsets, offset = [], [], [], 0
        for _, c in summands:
            offsets.append(offset)
            offset += c.dim(n - 1)
        for (tag, c), off in zip(summands, offsets):
            labels.extend((tag, lab) for lab in (c.basis[n] if n <= c.max_degree else ()))
            if 1 <= n <= c.max_degree:
                cols.extend({off + i: v for i, v in col.items()} for col in c.boundary[n].cols)
        basis.append(tuple(labels))
        if n == 0:
            boundary.append(IntMatrix.zero(0, len(labels)))
        else:
            boundary.append(IntMatrix.from_columns(len(basis[n - 1]), cols))
    return BasedChainComplex(tuple(basis), tuple(boundary), faithful)


def _old_graded_tensor(C, D):
    splittings = {}
    for r in C.pieces:
        for s in D.pieces:
            splittings.setdefault(r + s, []).append((r, s))
    return GradedChainComplex({
        ell: _old_direct_sum_chain(
            [((r, s), _old_tensor_complex(C.pieces[r], D.pieces[s])) for (r, s) in sorted(parts)]
        )
        for ell, parts in sorted(splittings.items())
    })


def _plain_label(old):
    (j, c), (k, d) = old
    return (j, k, (c, d))


def _graded_label(old):
    (r, s), ((j, c), (k, d)) = old
    return (j, k, (r, s, c, d))


def _assert_same_complex(old, new, relabel):
    assert new.max_degree == old.max_degree
    assert new.faithful_degree == old.faithful_degree
    assert [new.dim(n) for n in range(new.max_degree + 1)] == [
        old.dim(n) for n in range(old.max_degree + 1)
    ]
    for n in range(old.max_degree + 1):
        assert sorted(map(relabel, old.basis[n]), key=repr) == sorted(new.basis[n], key=repr)
    for n in range(1, old.max_degree + 1):
        new_cols = dict(zip(new.basis[n], new.boundary[n].cols))
        for label, col in zip(old.basis[n], old.boundary[n].cols):
            assert {relabel(old.basis[n - 1][i]): v for i, v in col.items()} == {
                new.basis[n - 1][i]: v for i, v in new_cols[relabel(label)].items()
            }
    top = min(old.faithful_degree, old.max_degree)
    if top >= 0:
        old_table, new_table = homology_table(old, top), homology_table(new, top)
        assert [new_table.group(k) for k in range(top + 1)] == [
            old_table.group(k) for k in range(top + 1)
        ]


def _s1(D=3):
    return normalized_chains(nerve_category(parallel_arrows_category(), D))


def _chain_complexes():
    zero_differential = make_chain_complex(
        [("a",), ("b",)], [IntMatrix.zero(0, 1), IntMatrix.zero(1, 1)], 10**9
    )
    return {
        "s1": _s1(),
        "s1-short": _s1(2),
        "unit": unit_complex(),
        "zero-differential": zero_differential,
        "z2-nerve": normalized_chains(nerve_category(category_from_group(cyclic_group(2)), 3)),
        "z3-nerve": normalized_chains(nerve_category(category_from_group(cyclic_group(3)), 2)),
        "faithful-nowhere": make_chain_complex([("a",)], [IntMatrix.zero(0, 1)], -2),
    }


def _metric_spaces():
    return {
        "two-point": discrete_space(2, 1),
        "three-point-line": parse_input(builder_documents()["three-point-line"]),
        "c4": cycle_graph(4),
        "c5": cycle_graph(5),
    }


@pytest.mark.parametrize("left", sorted(_chain_complexes()))
@pytest.mark.parametrize("right", sorted(_chain_complexes()))
def test_tensor_complex_matches_the_hand_written_assembly(left, right):
    C, D = _chain_complexes()[left], _chain_complexes()[right]
    _assert_same_complex(_old_tensor_complex(C, D), tensor_complex(C, D), _plain_label)


@pytest.mark.parametrize("pair", [
    ("two-point", "two-point"),
    ("two-point", "three-point-line"),
    ("three-point-line", "three-point-line"),
    ("c4", "two-point"),
    ("c4", "c4"),
    ("c5", "c5"),
])
def test_graded_tensor_matches_the_hand_written_assembly(pair):
    spaces = _metric_spaces()
    GL, GR = (magnitude_complex_metric(spaces[name], 3) for name in pair)
    old, new = _old_graded_tensor(GL, GR), graded_tensor(GL, GR)
    assert sorted(new.pieces) == sorted(old.pieces)
    assert any(
        len({lab[2][:2] for n in range(C.max_degree + 1) for lab in C.basis[n]}) > 1
        for C in new.pieces.values()
    ), "no piece has two splittings with generators"
    for ell in old.pieces:
        _assert_same_complex(old.pieces[ell], new.pieces[ell], _graded_label)
        # generators come bidegree by bidegree, not splitting by splitting
        C = new.pieces[ell]
        for n in range(C.max_degree + 1):
            assert [lab[0] for lab in C.basis[n]] == sorted(lab[0] for lab in C.basis[n])
    assert graded_homology_table(new, 2) == graded_homology_table(old, 2)
