"""The diag route's streamed top degree against the tabulated complex.

iterated_homology(route="diag") and the diag branch of
normed_group_homology tabulate the diagonal nerve below its top degree
and stream the top boundary from integer codes (iterated._CodedTop).
Here each streamed complex is compared with the unnormalized chains of
the whole tabulated diagonal nerve: bases, lower boundaries, every top
column in order with its entries in insertion order, and the homology.
"""

from fractions import Fraction
from functools import partial
from itertools import zip_longest

import pytest

from maghom import (
    InvalidComplexError,
    ValidationError,
    all_groups_up_to_order_8,
    cycle_graph,
    cyclic_group,
    diag_nerve_normed_group,
    homology_table,
    iterated_complex,
    iterated_homology,
    magnitude_complex_metric,
    normed_group_homology,
    sphere_ncat,
    two_group_from_normal_subgroup,
    unnormalized_chains,
)
from maghom.simplicial import degenerate_labels
from maghom import exact_linalg, iterated
from maghom.cli import builder_documents, parse_input
from maghom.exact_linalg import ColumnStream
from maghom.iterated import _CodedTop, _diagonal_nerve, _hom_nerves_for, _leg_degree
from maghom.magnitude_core import _TupleCodes

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
    suspension = parse_input(DOCS["suspension-two-discrete"])
    cases = [(sphere_ncat(2), 3), (sphere_ncat(3), 3), (suspension, 3),
             (sphere_ncat(2), 1), (sphere_ncat(2), 2), (suspension, 1),
             # deep prefixes: D - 1 = 4 and 5 legs before the last one
             (sphere_ncat(4), 5), (sphere_ncat(5), 6)]
    for G in all_groups_up_to_order_8():
        if len(G.elements) <= 4:
            for N in G.normal_subgroups():
                D = 3 if len(G.elements) * len(N) <= 8 else 2
                cases.append((two_group_from_normal_subgroup(G, N), D))
    return cases


def test_streamed_top_matches_the_tabulated_diagonal_on_two_categories(monkeypatch):
    for X, D in _two_category_cases():
        seen = _record_complexes(monkeypatch)
        table = iterated_homology(X, D - 1, "diag")
        (streamed,) = seen
        full = unnormalized_chains(_diagonal_nerve(_hom_nerves_for(X, D), D))
        _assert_streams_the_full_complex(streamed, full)
        assert table == homology_table(full, D - 1), (X, D)
        monkeypatch.undo()


@pytest.mark.parametrize("name, max_degree", [
    ("s3-word-norm", 2), ("z4-word-norm", 2), ("d4-word-norm", 2),
    ("s3-word-norm", 1), ("z4-word-norm", 0), ("z4-word-norm", 3),
])
def test_streamed_top_matches_the_tabulated_normed_slices(monkeypatch, name, max_degree):
    N = parse_input(DOCS[name])
    ells = sorted({0, *N.norm.values()})
    seen = _record_complexes(monkeypatch)
    table = normed_group_homology(N, ells, max_degree, route="diag")
    assert len(seen) == len(ells)
    for ell, streamed in zip(ells, seen):
        full = unnormalized_chains(diag_nerve_normed_group(N, ell, max_degree + 1))
        _assert_streams_the_full_complex(streamed, full)
        want = homology_table(full, max_degree)
        for k in range(max_degree + 1):
            assert table.group(k, ell) == want.group(k), (name, ell, k)


def test_streamed_top_off_the_lattice_of_lengths_is_empty():
    N = parse_input(DOCS["s3-word-norm"])
    T = _CodedTop(iterated._NormedNerves(N, 2), 2)
    assert T.count(T.H.units(1)) > 0
    half = T.H.units(Fraction(1, 2))
    assert T.count(half) == 0 and list(T._labels(half)) == []


def _s3_grading_2_top(monkeypatch):
    """Homology of the S3 word norm's grading-2 slice, degree 2; returns
    the streamed top boundary and how many of its columns the reduction
    read before its early exit."""
    seen = _record_complexes(monkeypatch)
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
    N = parse_input(DOCS["s3-word-norm"])
    table = normed_group_homology(N, [2], 2, route="diag")
    (C,) = seen
    return table, C.boundary[3], read[-1]


def test_every_streamed_column_is_checked_when_the_early_exit_fires(monkeypatch):
    table, top, read = _s3_grading_2_top(monkeypatch)
    assert read < top.ncols  # the exit fired
    assert top.checked == top.ncols == 73872
    assert all(table.group(k, 2).is_trivial for k in range(3))


def test_a_broken_column_after_the_early_exit_still_raises(monkeypatch):
    _, top, read = _s3_grading_2_top(monkeypatch)
    monkeypatch.undo()
    below = top.below.cols
    columns = iterated._CodedTop._columns

    def last_face_dropped(self, rows, ell):
        """The last column loses the first of its faces whose row has a
        nonzero boundary, so d*d fails on it alone."""
        cols = list(columns(self, rows, ell))
        last = cols[-1]
        r = next(r for r in last if below[r])
        cols[-1] = {t: v for t, v in last.items() if t != r}
        return iter(cols)

    monkeypatch.setattr(iterated._CodedTop, "_columns", last_face_dropped)
    N = parse_input(DOCS["s3-word-norm"])
    assert read < top.ncols - 1
    with pytest.raises(InvalidComplexError, match="streamed column 73871"):
        normed_group_homology(N, [2], 2, route="diag")


def test_a_broken_streamed_column_raises_on_a_two_category(monkeypatch):
    seen = _record_complexes(monkeypatch)
    iterated_homology(sphere_ncat(2), 2, "diag")
    below = seen[0].boundary[3].below.cols
    monkeypatch.undo()
    columns = iterated._CodedTop._columns

    def first_face_dropped(self, rows, ell):
        """The first column with a face whose row has a nonzero boundary
        loses that face."""
        broken = False
        for col in columns(self, rows, ell):
            r = None if broken else next((r for r in col if below[r]), None)
            if r is not None:
                col = {t: v for t, v in col.items() if t != r}
                broken = True
            yield col

    monkeypatch.setattr(iterated._CodedTop, "_columns", first_face_dropped)
    with pytest.raises(InvalidComplexError, match="nonzero on streamed column"):
        iterated_homology(sphere_ncat(2), 2, "diag")


def _doctored(monkeypatch, H) -> None:
    """Make iterated_homology build its hom nerves as H."""
    monkeypatch.setattr(iterated, "_hom_nerves_for", lambda X, max_q: H)


def test_a_top_face_that_leaves_the_basis_raises(monkeypatch):
    """Give a leg of degree D - 1 length 1: the paths through it leave
    grading 0, below the top and among its rows alike, but a top path in
    grading 0 whose v-face is that leg still has it in a face. That face
    is not a row, and the stream says which generator it came from."""
    X, D = sphere_ncat(2), 2
    H = _hom_nerves_for(X, D)
    for S in H.homs.values():
        leg = S.basis[D - 1][-1]  # the last leg, so the basis stays sorted by length
        if leg not in degenerate_labels(S, D - 1) and any(
                leg in face.values() for face in S.face[D]):
            break
    else:
        raise AssertionError("no hom has such a leg")
    H.lengths = {leg: 1}
    _doctored(monkeypatch, H)
    with pytest.raises(ValidationError, match=rf"^a face in degree {D} of \(\(.*\)\) "
                                              "leaves the basis$"):
        iterated_homology(X, D - 1, "diag")


def test_an_inner_merge_that_leaves_the_basis_raises(monkeypatch):
    """Composition that leaves the hom basis in leg degree D - 1 only,
    where the diagonal's top alone composes."""
    X, D = sphere_ncat(2), 3
    H = _hom_nerves_for(X, D)
    compose = H.compose

    def leaving(x, y, z, q, a, b):
        merged = compose(x, y, z, q, a, b)
        return ("not a leg", merged) if q == D - 1 and merged is not None else merged

    H.compose = leaving
    _doctored(monkeypatch, H)
    with pytest.raises(ValidationError, match=f"^an h-face in leg degree {D - 1} leaves "
                                              r"the basis: \('not a leg', "):
        iterated_homology(X, D - 1, "diag")


def test_a_stream_of_the_wrong_length_raises():
    below = exact_linalg.IntMatrix.zero(0, 2)
    top = ColumnStream(below, 3, lambda: iter([{}, {}]))
    with pytest.raises(InvalidComplexError, match="emitted 2 columns, expected 3"):
        exact_linalg.smith_normal_form(top)


def test_streamed_homology_leaves_no_reference_cycles():
    import gc

    N = parse_input(DOCS["s3-word-norm"])
    gc.collect()
    normed_group_homology(N, [1], 1, route="diag")
    iterated_homology(sphere_ncat(2), 2, "diag")
    assert gc.collect() == 0


def _metric_join():
    """The streamed metric top: cycle_graph(5) from the point 0, degree 3
    of grading 3 over the complex through degree 2."""
    X = cycle_graph(5)

    def through(D, starts=(0,)):
        return magnitude_complex_metric(X, D, [3], starts=starts).pieces[3]

    codes = _TupleCodes(X, 2, [0])
    return (partial(codes.extend, ell=3), 3, through(2), through(1), through(2, None),
            through(3))


def _route_join(X, other, route, normalize_rows):
    """The streamed top degree 3 of a route of iterated_homology."""
    D = 3
    top = _CodedTop(_hom_nerves_for(X, _leg_degree(route, D)), D, route, normalize_rows)
    chains = partial(iterated_complex, route=route, normalize_rows=normalize_rows)
    return (partial(top.extend, ell=0), D, chains(X, D - 1), chains(X, D - 2),
            chains(other, D - 1), chains(X, D))


JOINS = {
    "metric-cycle-5": _metric_join,
    "sphere-2-diag": lambda: _route_join(sphere_ncat(2), sphere_ncat(3), "diag", False),
    "catgroup-z4-tot-rows": lambda: _route_join(
        two_group_from_normal_subgroup(cyclic_group(4), [0, 2]),
        two_group_from_normal_subgroup(cyclic_group(4), [0]), "tot", True),
}


@pytest.mark.parametrize("case", JOINS)
def test_both_engines_join_their_top_through_one_check(case):
    """_TupleCodes.extend and _CodedTop.extend are one call to
    complexes.stream_top: it refuses a complex through another degree and
    one with another number of rows, one message each, and the streamed
    basis decodes its labels again each time it is read."""
    extend, D, C, shallow, other, full = JOINS[case]()
    with pytest.raises(ValueError, match=f"^expected a complex through degree {D - 1}$"):
        extend(shallow)
    assert len(other.basis[D - 1]) != len(C.basis[D - 1])
    with pytest.raises(ValueError, match=f"^expected {len(C.basis[D - 1])} generators in "
                                         f"degree {D - 1}, not {len(other.basis[D - 1])}$"):
        extend(other)
    streamed = extend(C)
    assert streamed.max_degree == D and streamed.faithful_degree == D - 1
    labels = streamed.basis[D]
    decode, reads = labels.labels, []
    labels.labels = lambda: reads.append(1) or decode()
    assert len(labels) == len(full.basis[D]) > 0
    assert list(labels) == list(labels) == list(full.basis[D])
    assert len(reads) == 2
