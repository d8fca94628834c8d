"""_reduce_columns against the cascade it replaced, on the acceptance streams.

exact_linalg._reduce_columns keeps its unit pivots reduced, so a column in
their span clears in one pass. After each column its pivot rows and pivot
magnitudes are the cascade's, so it reads the same columns before its
early exit and gives the same groups. Here every homology table is
computed twice: with the reduction, and with the test-local cascade of
tests/test_exact_linalg.py monkeypatched in. That is done on the diag
route and on the tot route with rows normalized or not. The tables must
agree, and so must the columns each reduction read.

Instances: the S3, Z4 and D4 word norms, spheres 2-4, and the 64
Cat-groups (G, N) with |G| <= 8. Where G/N has a nontrivial Schur
multiplier (V4, C4 x C2, C2^3, D4), H_2 has torsion: a non-unit pivot
survives, the early exit never fires, and every top column is read.
"""

import pytest

from maghom import (
    all_groups_up_to_order_8,
    iterated_homology,
    normed_group_homology,
    sphere_ncat,
    two_group_from_normal_subgroup,
)
from maghom import exact_linalg
from maghom.cli import builder_documents, parse_input
from test_exact_linalg import _reduce_columns_cascade, _reduce_counting_reads

DOCS = builder_documents()
ROUTES = [("diag", False), ("tot", False), ("tot", True)]


def _with_reads(monkeypatch, reduce, compute):
    """compute() with reduce as the column reduction; returns its result
    and, per reduction, (columns read, whether the early exit never fired
    and every column was read)."""
    reads = []

    def counting(columns, stop_rank=None):
        basis, read = _reduce_counting_reads(reduce, columns, stop_rank)
        reads.append(read)
        return basis

    with monkeypatch.context() as m:
        m.setattr(exact_linalg, "_reduce_columns", counting)
        return compute(), reads


def _assert_like_the_cascade(monkeypatch, compute):
    """The table and the reads agree with the cascade's; returns both."""
    got = _with_reads(monkeypatch, exact_linalg._reduce_columns, compute)
    assert got == _with_reads(monkeypatch, _reduce_columns_cascade, compute)
    return got


@pytest.mark.parametrize("route, normalize_rows", ROUTES)
@pytest.mark.parametrize("name", ["s3-word-norm", "z4-word-norm", "d4-word-norm"])
def test_word_norms_reduce_like_the_cascade(monkeypatch, name, route, normalize_rows):
    N = parse_input(DOCS[name])
    _assert_like_the_cascade(
        monkeypatch,
        lambda: normed_group_homology(N, "norm-values", 2, route, normalize_rows),
    )


@pytest.mark.parametrize("route, normalize_rows", ROUTES)
def test_spheres_reduce_like_the_cascade(monkeypatch, route, normalize_rows):
    for n in (2, 3, 4):
        X = sphere_ncat(n)
        _assert_like_the_cascade(
            monkeypatch, lambda: iterated_homology(X, n + 1, route, normalize_rows)
        )


@pytest.mark.parametrize("route, normalize_rows", ROUTES)
def test_cat_groups_reduce_like_the_cascade(monkeypatch, route, normalize_rows):
    # the diag route's top degree 3 is too large for a unit test on S3
    max_degree = 1 if route == "diag" else 2
    read_all = early_exit = 0
    for G in all_groups_up_to_order_8():
        for N in G.normal_subgroups():
            X = two_group_from_normal_subgroup(G, N)
            table, reads = _assert_like_the_cascade(
                monkeypatch, lambda: iterated_homology(X, max_degree, route, normalize_rows)
            )
            # the top stream is the last reduction
            _, exhausted = reads[-1]
            if table.group(max_degree).torsion:
                assert exhausted, (G, N)
            read_all += exhausted
            early_exit += not exhausted
    assert read_all and early_exit
