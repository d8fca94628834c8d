"""The tot route's streamed top degree against the tabulated total complex.

iterated_homology(route="tot") and the tot branch of normed_group_homology
tabulate the double nerve on p + q <= D - 1 only and stream Tot_D, the
boundary out of total degree D, from integer codes (iterated._CodedTop).
Here each streamed complex is compared with the total complex of the
whole tabulated double nerve on p + q <= D, rows normalized or not: bases
(the top labels decoded, in order), lower boundaries, every top column in
order with its entries in insertion order, and the homology.

A streamed Tot column of bidegree (p, q) has d*d in three disjoint row
blocks: h*h in (p - 2, q), v*v in (p, q - 2) and +-(hv - vh) in
(p - 1, q - 1). The soundness tests break each one alone on a top
bidegree and check that the stream raises.
"""

from fractions import Fraction
from itertools import zip_longest

import pytest

from maghom import (
    InvalidComplexError,
    all_groups_up_to_order_8,
    cyclic_group,
    double_chains,
    double_nerve_normed_group,
    homology_table,
    iterated_homology,
    normed_group_homology,
    parallel_arrows_category,
    row_normalize,
    sphere_ncat,
    total_complex,
    two_cat_from_category,
    two_group_from_normal_subgroup,
)
from maghom import exact_linalg, iterated
from maghom.cli import builder_documents, parse_input
from maghom.exact_linalg import ColumnStream
from maghom.iterated import _truncated_double_nerve

DOCS = builder_documents()


def _record_complexes(monkeypatch) -> list:
    """Record every complex the iterated module reads homology from."""
    seen = []
    original = iterated.homology_table

    def recording(C, max_degree):
        seen.append(C)
        return original(C, max_degree)

    monkeypatch.setattr(iterated, "homology_table", recording)
    return seen


def _tabulated(B, normalize_rows: bool):
    return total_complex(row_normalize(B) if normalize_rows else double_chains(B))


def _assert_streams_the_full_complex(streamed, full) -> None:
    D = full.max_degree
    assert streamed.max_degree == D and streamed.faithful_degree == D - 1
    assert streamed.basis[:D] == full.basis[:D]
    assert streamed.boundary[:D] == full.boundary[:D]
    top = streamed.boundary[D]
    assert isinstance(top, ColumnStream)
    assert (top.nrows, top.ncols) == (full.boundary[D].nrows, full.boundary[D].ncols)
    assert len(streamed.basis[D]) == len(full.basis[D])
    for got, want in zip_longest(streamed.basis[D], full.basis[D]):
        assert got == want
    for got, want in zip_longest(top.cols, full.boundary[D].cols):
        assert list(got.items()) == list(want.items())


def _two_category_cases():
    cases = [(two_cat_from_category(parallel_arrows_category()), D) for D in (1, 2, 3)]
    cases += [(sphere_ncat(2), 3), (sphere_ncat(3), 3), (sphere_ncat(2), 1),
              (parse_input(DOCS["suspension-two-discrete"]), 3),
              (parse_input(DOCS["suspension-two-discrete"]), 1),
              # deep prefixes: up to D - 1 = 4 and 5 legs before the last one
              (sphere_ncat(4), 5), (sphere_ncat(5), 6)]
    return cases


def _cat_group_cases():
    """The catgroup-tot benchmark's instances: every Cat-group of order at
    most 8, at D = 3."""
    return [(two_group_from_normal_subgroup(G, N), 3)
            for G in all_groups_up_to_order_8() for N in G.normal_subgroups()]


def _check_two_categories(monkeypatch, cases, normalize_rows: bool) -> None:
    for X, D in cases:
        seen = _record_complexes(monkeypatch)
        table = iterated_homology(X, D - 1, "tot", normalize_rows)
        (streamed,) = seen
        full = _tabulated(_truncated_double_nerve(X, D), normalize_rows)
        _assert_streams_the_full_complex(streamed, full)
        assert table == homology_table(full, D - 1), (X, D)
        monkeypatch.undo()


@pytest.mark.parametrize("normalize_rows", [False, True])
def test_streamed_tot_matches_the_tabulated_total_complex(monkeypatch, normalize_rows):
    _check_two_categories(monkeypatch, _two_category_cases(), normalize_rows)


@pytest.mark.parametrize("normalize_rows", [False, True])
def test_streamed_tot_matches_on_every_cat_group_to_order_8(monkeypatch, normalize_rows):
    cases = _cat_group_cases()
    assert len(cases) == 64
    _check_two_categories(monkeypatch, cases, normalize_rows)


@pytest.mark.parametrize("name, max_degree", [
    ("s3-word-norm", 2), ("z4-word-norm", 2), ("d4-word-norm", 2), ("z4-word-norm", 0),
    ("z4-word-norm", 3),
])
@pytest.mark.parametrize("normalize_rows", [False, True])
def test_streamed_tot_matches_the_tabulated_normed_slices(monkeypatch, name, max_degree,
                                                          normalize_rows):
    N = parse_input(DOCS[name])
    ells = sorted({Fraction(0), *N.norm.values()})
    seen = _record_complexes(monkeypatch)
    table = normed_group_homology(N, ells, max_degree, "tot", normalize_rows)
    assert len(seen) == len(ells)
    for ell, streamed in zip(ells, seen):
        full = _tabulated(double_nerve_normed_group(N, ell, max_degree), normalize_rows)
        _assert_streams_the_full_complex(streamed, full)
        want = homology_table(full, max_degree)
        for k in range(max_degree + 1):
            assert table.group(k, ell) == want.group(k), (name, ell, k)


def test_row_normalization_leaves_out_the_h_degenerate_top_generators(monkeypatch):
    seen = _record_complexes(monkeypatch)
    X = parse_input(DOCS["catgroup-s3-a3"])
    iterated_homology(X, 1, "tot")
    iterated_homology(X, 1, "tot", normalize_rows=True)
    plain, normalized = (C.boundary[2].ncols for C in seen)
    assert normalized < plain


# --- soundness: each component of d*d broken alone on a top bidegree --------


def _record_reads(monkeypatch) -> list:
    """Record how many columns each column reduction reads."""
    read = []
    original = exact_linalg._reduce_columns

    def counting(columns, stop_rank=None):
        def counted():
            for col in columns:
                read[-1] += 1
                yield col

        read.append(0)
        return original(counted(), stop_rank)

    monkeypatch.setattr(exact_linalg, "_reduce_columns", counting)
    return read


def _codiscrete_c2():
    """The Cat-group with two objects and an arrow between any two: one
    2-category object, so a path with one leg has no h-boundary (its two
    end faces cancel)."""
    return two_group_from_normal_subgroup(cyclic_group(2), cyclic_group(2).elements)


def _streamed(monkeypatch, X):
    """The streamed tot complex of X through degree 2, and how many top
    columns the reduction read before its early exit."""
    seen = _record_complexes(monkeypatch)
    read = _record_reads(monkeypatch)
    iterated_homology(X, 2, "tot")
    (C,) = seen
    monkeypatch.undo()
    return C, read[-1]


def _blocks(labels) -> list:
    return [label[:2] for label in labels]


def _failing_blocks(C, col) -> set:
    """The blocks of Tot_{D-2} where d*d of a top column is nonzero."""
    D = C.max_degree
    below = C.boundary[D - 1].cols
    acc: dict = {}
    for r, v in col.items():
        for i, w in below[r].items():
            acc[i] = acc.get(i, 0) + v * w
    rows = _blocks(C.basis[D - 2])
    return {rows[i] for i, v in acc.items() if v}


def _break_last_column(C, block, failing):
    """(k, column): the last top column k of the block with an entry whose
    sign, flipped, makes d*d nonzero in the failing block alone, and that
    column with the entry flipped."""
    D = C.max_degree
    cols = list(C.boundary[D].cols)
    tops = _blocks(C.basis[D])
    for k in reversed(range(len(cols))):
        if tops[k] != block:
            continue
        for t, v in cols[k].items():
            broken = {**cols[k], t: -v}
            if _failing_blocks(C, broken) == {failing}:
                return k, broken
    raise AssertionError(f"no column of {block} breaks {failing} alone")


def _streaming_broken(monkeypatch, k, broken) -> None:
    """Make the stream emit the broken column as its column k."""
    columns = iterated._CodedTop._columns

    def flipped(self, rows, ell):
        for j, col in enumerate(columns(self, rows, ell)):
            yield broken if j == k else col

    monkeypatch.setattr(iterated._CodedTop, "_columns", flipped)


# component: (top block, block where d*d fails), each at D = 3
BREAKS = {
    "h*h": ((3, 0), (1, 0)),  # (p - 2, q)
    "v*v": ((1, 2), (1, 0)),  # (p, q - 2)
    "commutation": ((2, 1), (1, 0)),  # (p - 1, q - 1)
}


@pytest.mark.parametrize("component", sorted(BREAKS))
def test_a_broken_component_of_d_d_raises_through_the_stream(monkeypatch, component):
    """Flip the sign of one entry of a top column: d*d then fails in one of
    its three components alone, and the stream raises. The h*h and
    commutation columns come after the reduction's early exit."""
    X = _codiscrete_c2()
    C, read = _streamed(monkeypatch, X)
    block, failing = BREAKS[component]
    k, broken = _break_last_column(C, block, failing)
    assert (k >= read) == (component != "v*v")
    _streaming_broken(monkeypatch, k, broken)
    with pytest.raises(InvalidComplexError, match=f"nonzero on streamed column {k}$"):
        iterated_homology(X, 2, "tot")


def test_a_broken_v_v_column_after_an_early_exit_raises(monkeypatch):
    """Every v*v column (q >= 2) comes before the ones the early exit
    skips on the tot route, so here the reduction is stopped by hand
    (stop_rank 1) on the first nonzero column, before the broken one."""
    X = _codiscrete_c2()
    C, _ = _streamed(monkeypatch, X)
    k, broken = _break_last_column(C, *BREAKS["v*v"])
    _streaming_broken(monkeypatch, k, broken)
    seen = _record_complexes(monkeypatch)
    with pytest.raises(InvalidComplexError):
        iterated_homology(X, 2, "tot")
    top = seen[0].boundary[3]
    first = next(j for j, col in enumerate(C.boundary[3].cols) if col)
    assert first < k
    read = _record_reads(monkeypatch)
    with pytest.raises(InvalidComplexError, match=f"nonzero on streamed column {k}$"):
        exact_linalg.smith_normal_form(top, stop_rank=1)
    assert read == [first + 1]


def test_every_streamed_tot_column_is_checked_when_the_early_exit_fires(monkeypatch):
    seen = _record_complexes(monkeypatch)
    read = _record_reads(monkeypatch)
    normed_group_homology(parse_input(DOCS["s3-word-norm"]), [2], 2, "tot")
    top = seen[0].boundary[3]
    assert read[-1] < top.ncols  # the exit fired
    assert top.checked == top.ncols == 546


def test_streamed_tot_leaves_no_reference_cycles():
    import gc

    N = parse_input(DOCS["s3-word-norm"])
    gc.collect()
    normed_group_homology(N, [1], 1, route="tot", normalize_rows=True)
    iterated_homology(sphere_ncat(2), 2, "tot")
    assert gc.collect() == 0
