from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghom import (
    FgAbelianGroup,
    IntMatrix,
    InvalidComplexError,
    column_rank,
    homology_between,
    smith_normal_form,
    tensor_fg,
    tor_fg,
)
from maghom import (
    all_groups_up_to_order_8,
    cycle_graph,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    exact_linalg,
    iterated,
    iterated_homology,
    metric_homology,
    normed_group_homology,
    oracle_group_homology,
    quaternion_group,
    two_group_from_normal_subgroup,
)
from maghom.cli import builder_documents, parse_input
from maghom.exact_linalg import (
    ColumnStream,
    _RowsBelow,
    _combine,
    _ext_gcd,
    _invariant_chain,
    _reduce_columns,
    _SparseSmith,
    _sub_scaled,
)

# --- independent oracles ---------------------------------------------------


def det_exact(rows):
    """Fraction-free determinant by cofactor expansion (tiny matrices)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_exact(minor)
    return total


def snf_by_minors(rows):
    """Invariant factors via gcds of k x k minors."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rr in combinations(range(m), k):
            for cc in combinations(range(n), k):
                sub = [[rows[i][j] for j in cc] for i in rr]
                g = gcd(g, det_exact(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def rank_over_q(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][c]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def rank_mod_p(rows, p):
    m = [[v % p for v in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = (m[i][c] * inv) % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# --- smith normal form -----------------------------------------------------


def test_snf_already_diagonal():
    assert smith_normal_form(IntMatrix.from_rows([[2]])) == ([2], 1)


def test_snf_zero_matrix():
    assert smith_normal_form(IntMatrix.zero(2, 2)) == ([], 0)


def test_snf_hand_reduced_example():
    # det -8, entry gcd 2, so the chain is (2, 4)
    assert smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])) == ([2, 4], 2)


def test_snf_empty_shapes():
    assert smith_normal_form(IntMatrix.zero(0, 3)) == ([], 0)
    assert smith_normal_form(IntMatrix.zero(3, 0)) == ([], 0)
    assert smith_normal_form(IntMatrix.zero(0, 0)) == ([], 0)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_matches_minor_gcds(rows):
    factors, rank = smith_normal_form(IntMatrix.from_rows(rows))
    assert factors == snf_by_minors(rows)
    assert rank == len(factors) == rank_over_q(rows)


def test_entry_bounds_checked():
    M = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert M.entry(1, 0) == 3
    with pytest.raises(IndexError):
        M.entry(2, 0)
    with pytest.raises(ValueError):
        IntMatrix(2, -1, ())


# --- homology_between ------------------------------------------------------


def test_homology_zero_maps():
    assert homology_between(IntMatrix.zero(1, 2), IntMatrix.zero(2, 1)) == FgAbelianGroup(2)


def test_homology_times_two():
    got = homology_between(IntMatrix.zero(0, 1), IntMatrix.from_rows([[2]]))
    assert got == FgAbelianGroup(0, (2,))


def test_homology_circle_boundaries():
    # two vertices, two edges, both edges from A to B (computed by hand)
    d1 = IntMatrix.from_rows([[-1, -1], [1, 1]])
    d2 = IntMatrix.zero(2, 0)
    assert homology_between(d1, d2) == FgAbelianGroup(1)


def test_homology_rejects_nonzero_composite():
    d1 = IntMatrix.from_rows([[1]])
    d2 = IntMatrix.from_rows([[1]])
    with pytest.raises(InvalidComplexError):
        homology_between(d1, d2)


def test_homology_rejects_dimension_mismatch():
    with pytest.raises(InvalidComplexError):
        homology_between(IntMatrix.zero(1, 2), IntMatrix.zero(3, 1))


def _random_composable_pair(rnd):
    """A pair (A, B) with A @ B = 0: B's columns drawn from ker A."""
    m = rnd.randint(1, 6)
    n = rnd.randint(1, 6)
    A = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    # kernel basis over Q, scaled to integers
    frac = [[Fraction(v) for v in row] for row in A]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if frac[i][c]), None)
        if piv is None:
            continue
        frac[r], frac[piv] = frac[piv], frac[r]
        pv = frac[r][c]
        for i in range(m):
            if i != r and frac[i][c]:
                f = frac[i][c] / pv
                frac[i] = [a - f * b for a, b in zip(frac[i], frac[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -frac[i][fc] / frac[i][pc]
        scale = 1
        for v in vec:
            scale = scale * v.denominator // gcd(scale, v.denominator)
        kernel.append([int(v * scale) for v in vec])
    k = rnd.randint(0, 6)
    cols = []
    for _ in range(k):
        col = [0] * n
        for vec in kernel:
            c = rnd.randint(-2, 2)
            col = [a + c * b for a, b in zip(col, vec)]
        cols.append(col)
    B = [[cols[j][i] for j in range(k)] for i in range(n)]
    return A, B


def test_homology_against_modular_oracle(rnd):
    """Free rank from rational ranks; p-torsion counts from minor gcds; the
    mod-p homology dimension ties the two together."""
    for _ in range(60):
        A, B = _random_composable_pair(rnd)
        n = len(A[0])
        H = homology_between(IntMatrix.from_rows(A), IntMatrix.from_rows(B))
        free = n - rank_over_q(A) - rank_over_q(B)
        assert H.free_rank == free
        assert [f for f in snf_by_minors(B) if f > 1] == list(H.torsion)
        for p in (2, 3, 5, 7):
            h_p = (n - rank_mod_p(A, p)) - rank_mod_p(B, p)
            t_a = sum(1 for f in snf_by_minors(A) if f % p == 0)
            t_b = sum(1 for f in H.torsion if f % p == 0)
            assert h_p == free + t_a + t_b


# --- finitely generated abelian groups -------------------------------------


def test_group_validation():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (3, 2))
    with pytest.raises(ValueError):
        FgAbelianGroup(-1)


def test_from_parts_normalizes():
    assert FgAbelianGroup.from_parts(0, (2, 3)) == FgAbelianGroup(0, (6,))
    assert FgAbelianGroup.from_parts(1, (4, 6)) == FgAbelianGroup(1, (2, 12))
    assert FgAbelianGroup.from_parts(0, (1, 1)) == FgAbelianGroup()


def test_tensor_examples():
    assert tensor_fg(FgAbelianGroup(2), FgAbelianGroup(0, (2,))) == FgAbelianGroup(0, (2, 2))
    assert tor_fg(FgAbelianGroup(0, (4,)), FgAbelianGroup(0, (6,))) == FgAbelianGroup(0, (2,))
    assert tor_fg(FgAbelianGroup(3), FgAbelianGroup(0, (8,))).is_trivial


small_groups_st = st.builds(
    lambda r, t: FgAbelianGroup.from_parts(r, t),
    st.integers(0, 3),
    st.lists(st.integers(2, 12), max_size=3),
)


@settings(max_examples=80, deadline=None)
@given(small_groups_st, small_groups_st)
def test_tensor_and_tor_are_symmetric(A, B):
    assert tensor_fg(A, B) == tensor_fg(B, A)
    assert tor_fg(A, B) == tor_fg(B, A)


@settings(max_examples=60, deadline=None)
@given(small_groups_st)
def test_unit_laws(A):
    assert tensor_fg(A, FgAbelianGroup(1)) == A
    assert tor_fg(A, FgAbelianGroup(1)).is_trivial


def test_rendering():
    assert str(FgAbelianGroup()) == "0"
    assert str(FgAbelianGroup(1)) == "Z"
    assert str(FgAbelianGroup(2, (2, 4))) == "Z^2 ⊕ Z/2 ⊕ Z/4"


def test_column_rank():
    assert column_rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert column_rank(IntMatrix.zero(3, 2)) == 0


# --- early exit at saturation ------------------------------------------------


def _full_path(A: IntMatrix, B: IntMatrix) -> FgAbelianGroup:
    """homology_between with every column of B reduced: the path without
    the early exit."""
    rank_out = len(_reduce_columns(A.cols))
    basis = _reduce_columns(B.cols)
    factors = _invariant_chain(_SparseSmith(basis).diagonal()) if basis else []
    free = A.ncols - rank_out - len(factors)
    return FgAbelianGroup.from_parts(free, (f for f in factors if f > 1))


def _assert_early_exit_agrees(A: IntMatrix, B: IntMatrix) -> bool:
    """The early-exit path equals the full path on a composable pair;
    returns whether the exit left columns of B unread."""
    assert homology_between(A, B, check=False) == _full_path(A, B)
    cols = iter(B.cols)
    _reduce_columns(cols, A.ncols - column_rank(A))
    return next(cols, None) is not None


def test_early_exit_matches_full_path_on_random_pairs(rnd):
    for _ in range(60):
        A, B = _random_composable_pair(rnd)
        _assert_early_exit_agrees(IntMatrix.from_rows(A), IntMatrix.from_rows(B))


def test_early_exit_matches_full_path_on_acceptance_complexes():
    from maghom import (
        cycle_graph,
        diag_nerve_normed_group,
        iterated_complex,
        magnitude_complex_metric,
        mb_n,
        nerve_category,
        normalized_chains,
        parallel_arrows_category,
        sphere_ncat,
        symmetric_group,
        two_group_from_normal_subgroup,
        unnormalized_chains,
        word_norm_group,
    )

    S3 = symmetric_group(3)
    A3 = frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)})
    NS3 = word_norm_group(S3, [(1, 0, 2)])
    complexes = [
        normalized_chains(nerve_category(parallel_arrows_category(), 3)),
        unnormalized_chains(mb_n(sphere_ncat(2), 3)),
        *magnitude_complex_metric(cycle_graph(4), 3).pieces.values(),
        iterated_complex(two_group_from_normal_subgroup(S3, A3), 3, route="tot"),
        *(unnormalized_chains(diag_nerve_normed_group(NS3, ell, 3)) for ell in (0, 1, 2)),
    ]
    fired = 0
    for C in complexes:
        for k in range(C.faithful_degree + 1):
            fired += _assert_early_exit_agrees(C.boundary_or_zero(k), C.boundary_or_zero(k + 1))
    assert fired  # the S3 word norm's grading-2 top boundary saturates early


def test_early_exit_leaves_the_rest_unread():
    # ker d_k = Z^2; the first two columns already span it with unit pivots
    cols = iter([{0: 1}, {0: 1, 1: 1}, {1: 5}, {0: 7}])
    basis = _reduce_columns(cols, 2)
    assert sorted(basis) == [0, 1]
    assert next(cols) == {1: 5}
    # a pivot of 2 is made a unit by the gcd step with the next column
    cols = iter([{0: 2}, {0: 3}, {0: 5}])
    assert _reduce_columns(cols, 1) == {0: {0: 1}}
    assert next(cols) == {0: 5}


def test_early_exit_waits_out_a_nonunit_pivot():
    cols = iter([{0: 2}, {0: 4}, {0: 6}])
    assert _reduce_columns(cols, 1) == {0: {0: 2}}
    assert next(cols, None) is None
    B = IntMatrix.from_rows([[2, 4, 6]])
    assert homology_between(IntMatrix.zero(0, 1), B) == FgAbelianGroup(0, (2,))


def test_invariant_chain_keeps_its_ones_in_front():
    assert _invariant_chain([6, 1, 4, 1, 1]) == [1, 1, 1, 2, 12]
    assert _invariant_chain([2, 3]) == [1, 6]
    assert _invariant_chain([1, 1]) == [1, 1]
    assert _invariant_chain([]) == []
    with pytest.raises(ValueError):
        _invariant_chain([1, 0])


# --- bottommost pivots against the topmost rule they replace -----------------


def _clear_unit_rows(basis: dict, bottommost: bool) -> dict:
    """basis with every unit pivot row cleared from the vectors whose pivot
    is not 1, as _SparseSmith requires: v -= v[p] * u_p at each unit row
    p of v, the largest p first for bottommost pivots and the smallest
    first for topmost, so u_p's other entries land on rows still to come.
    These are column operations within the basis: its span, its pivots
    and their entries stay."""
    units = sorted((p for p, u in basis.items() if u[p] == 1), reverse=bottommost)
    for p, v in basis.items():
        if v[p] != 1:
            for q in units:
                if q in v:
                    _sub_scaled(v, basis[q], v[q])
    return basis


def _reduce_columns_topmost(columns, stop_rank=None):
    """_reduce_columns as it was with the topmost nonzero row as pivot, its
    unit rows then cleared from the other vectors for _SparseSmith."""
    basis = {}
    nonunit = 0
    for col in columns:
        v = {r: w for r, w in col.items() if w}
        while v:
            r = min(v)
            b = basis.get(r)
            if b is None:
                if v[r] < 0:
                    v = {k: -w for k, w in v.items()}
                basis[r] = v
                if v[r] != 1:
                    nonunit += 1
                break
            a, c = b[r], v[r]
            if c % a == 0:
                _sub_scaled(v, b, c // a)
            else:
                g, x, y = _ext_gcd(a, c)
                basis[r] = _combine(x, b, y, v)
                if g == 1:
                    nonunit -= 1
                v = _combine(a // g, v, -(c // g), b)
                v.pop(r, None)
        if len(basis) == stop_rank and not nonunit:
            break
    return _clear_unit_rows(basis, bottommost=False)


def _assert_pivot_rules_agree(A: IntMatrix, B: IntMatrix, monkeypatch) -> None:
    """Same group and same basis size at the exit under either pivot rule."""
    stop = A.ncols - column_rank(A)
    bottom = _reduce_columns(B.cols, stop)
    assert all(max(v) == r for r, v in bottom.items())
    assert len(bottom) == len(_reduce_columns_topmost(B.cols, stop))
    H = homology_between(A, B, check=False)
    with monkeypatch.context() as m:
        m.setattr(exact_linalg, "_reduce_columns", _reduce_columns_topmost)
        assert homology_between(A, B, check=False) == H


def test_bottommost_pivot_matches_topmost_on_random_pairs(rnd, monkeypatch):
    for _ in range(60):
        A, B = _random_composable_pair(rnd)
        _assert_pivot_rules_agree(IntMatrix.from_rows(A), IntMatrix.from_rows(B), monkeypatch)


def _acceptance_complexes():
    from maghom import (
        cycle_graph,
        diag_nerve_normed_group,
        iterated_complex,
        magnitude_complex_metric,
        mb_n,
        nerve_category,
        normalized_chains,
        parallel_arrows_category,
        sphere_ncat,
        symmetric_group,
        two_group_from_normal_subgroup,
        unnormalized_chains,
        word_norm_group,
    )

    S3 = symmetric_group(3)
    A3 = frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)})
    NS3 = word_norm_group(S3, [(1, 0, 2)])
    return [
        normalized_chains(nerve_category(parallel_arrows_category(), 3)),
        unnormalized_chains(mb_n(sphere_ncat(2), 3)),
        *magnitude_complex_metric(cycle_graph(4), 3).pieces.values(),
        iterated_complex(two_group_from_normal_subgroup(S3, A3), 3, route="tot"),
        *(unnormalized_chains(diag_nerve_normed_group(NS3, ell, 3)) for ell in (0, 1, 2)),
    ]


def test_bottommost_pivot_matches_topmost_on_acceptance_complexes(monkeypatch):
    for C in _acceptance_complexes():
        for k in range(C.faithful_degree + 1):
            _assert_pivot_rules_agree(
                C.boundary_or_zero(k), C.boundary_or_zero(k + 1), monkeypatch
            )


# --- reduced unit pivots against the cascade they replace ---------------------


def _reduce_columns_cascade(columns, stop_rank=None):
    """_reduce_columns as it was before its unit pivots were kept reduced:
    each column cascades through the pivots, bottommost row first. Its
    unit rows are cleared from the other vectors at the end, for
    _SparseSmith."""
    basis = {}
    nonunit = 0
    for col in columns:
        v = {r: w for r, w in col.items() if w}
        while v:
            r = max(v)
            b = basis.get(r)
            if b is None:
                if v[r] < 0:
                    v = {k: -w for k, w in v.items()}
                basis[r] = v
                if v[r] != 1:
                    nonunit += 1
                break
            a, c = b[r], v[r]
            if c % a == 0:
                _sub_scaled(v, b, c // a)
            else:
                g, x, y = _ext_gcd(a, c)
                basis[r] = _combine(x, b, y, v)
                if g == 1:
                    nonunit -= 1
                v = _combine(a // g, v, -(c // g), b)
                v.pop(r, None)
        if len(basis) == stop_rank and not nonunit:
            break
    return _clear_unit_rows(basis, bottommost=True)


def _reduce_counting_reads(reduce, columns, stop_rank):
    """(basis, (how many columns reduce pulled, whether it asked for one
    more: then its early exit never fired and every column was read))."""
    read, exhausted = 0, False

    def pulled():
        nonlocal read, exhausted
        for col in columns:
            read += 1
            yield col
        exhausted = True

    basis = reduce(pulled(), stop_rank)
    return basis, (read, exhausted)


def _assert_unit_pivots_reduced(basis: dict) -> None:
    """Every vector's pivot is its bottommost row, and no vector has an
    entry on the pivot row of a unit-pivot vector other than its own."""
    units = {r for r, v in basis.items() if v[r] == 1}
    for r, v in basis.items():
        assert max(v) == r
        assert all(k == r or k not in units for k in v), (r, v)


def _assert_reduced_like_the_cascade(columns, nrows: int, monkeypatch) -> None:
    snapshot = [dict(col) for col in columns]
    M = IntMatrix(nrows, len(columns), tuple(columns))
    rank = len(_reduce_columns_cascade(columns))
    for stop in (None, rank, rank - 1):
        got, read = _reduce_counting_reads(_reduce_columns, columns, stop)
        want, want_read = _reduce_counting_reads(_reduce_columns_cascade, columns, stop)
        assert read == want_read, stop
        assert {r: v[r] for r, v in got.items()} == {r: v[r] for r, v in want.items()}
        _assert_unit_pivots_reduced(got)
        factors = smith_normal_form(M, stop)
        with monkeypatch.context() as m:
            m.setattr(exact_linalg, "_reduce_columns", _reduce_columns_cascade)
            assert smith_normal_form(M, stop) == factors
    assert list(columns) == snapshot


@pytest.mark.parametrize("entries", [
    (1, -1), (1, -1, 2, -2), (1, -1, 2, 3, -4, 6, -9),
])
def test_reduced_unit_pivots_match_the_cascade_on_random_matrices(rnd, monkeypatch, entries):
    for _ in range(300):
        nrows, ncols = rnd.randint(1, 9), rnd.randint(1, 12)
        density = rnd.random()
        columns = [
            {r: rnd.choice(entries) for r in range(nrows) if rnd.random() < density}
            for _ in range(ncols)
        ]
        _assert_reduced_like_the_cascade(columns, nrows, monkeypatch)
    # wider and sparser, so a new unit pivot is cleared from many vectors
    for _ in range(20):
        nrows = rnd.randint(20, 40)
        columns = [
            {r: rnd.choice(entries) for r in rnd.sample(range(nrows), rnd.randint(1, 4))}
            for _ in range(rnd.randint(nrows, 2 * nrows))
        ]
        _assert_reduced_like_the_cascade(columns, nrows, monkeypatch)


# --- Smith on the reduction's basis, against the unit peel it replaces -------


def _smith_by_peel(columns) -> list:
    """The Smith diagonal as _SparseSmith found it before it read the unit
    pivots off the reduction's basis, on any columns: each column whose
    +-1 entry is alone in its row is peeled off as a 1 (row ops with that
    row touch no other column), until none is left; then the least entry
    of what is left goes to the corner and clears its row and column,
    until the corner stands alone and is a diagonal entry."""
    cols = {j: {r: v for r, v in col.items() if v} for j, col in enumerate(columns)}
    cols = {j: col for j, col in cols.items() if col}
    row_occ: dict = {}
    for j, col in cols.items():
        for r in col:
            row_occ.setdefault(r, set()).add(j)
    diag = []
    stack = [r for r, occ in row_occ.items() if len(occ) == 1]
    while stack:
        r = stack.pop()
        occ = row_occ.get(r)
        if occ is None or len(occ) != 1 or cols[next(iter(occ))][r] not in (1, -1):
            continue
        (j,) = occ
        for r2 in cols.pop(j):
            row_occ[r2].discard(j)
            if not row_occ[r2]:
                del row_occ[r2]
            elif len(row_occ[r2]) == 1:
                stack.append(r2)
        diag.append(1)
    index = {r: i for i, r in enumerate(row_occ)}
    m = [[0] * len(cols) for _ in index]
    for j, col in enumerate(cols.values()):
        for r, v in col.items():
            m[index[r]][j] = v
    while any(map(any, m)):
        _, i, j = min((abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v)
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        top, p = m[0], m[0][0]
        for row in m[1:]:
            q = row[0] // p
            row[:] = [v - q * t for v, t in zip(row, top)]
        for k in range(1, len(top)):
            q = top[k] // p
            for row in m:
                row[k] -= q * row[0]
        if not any(top[1:]) and not any(row[0] for row in m[1:]):
            diag.append(abs(p))
            m = [row[1:] for row in m[1:]]
    return diag


def _assert_smith_agrees(columns, nrows=None) -> None:
    """The diagonal _SparseSmith reads off the reduction's basis of the
    columns, put in divisibility order, equals the peel's on the columns
    themselves and, given nrows, the invariant factors read off the gcds
    of the k x k minors (snf_by_minors)."""
    columns = list(columns)
    got = _invariant_chain(_SparseSmith(_reduce_columns(columns)).diagonal())
    assert got == _invariant_chain(_smith_by_peel(columns))
    if nrows is not None:
        assert got == snf_by_minors([[col.get(r, 0) for col in columns] for r in range(nrows)])


def _echelon_basis(rnd, n: int, pivots) -> list:
    """n vectors in Z^(2n), vector i with pivot row 2i + 1 (its bottommost),
    pivot drawn from pivots and a few random entries above it."""
    basis = []
    for i in range(n):
        v = {2 * i + 1: rnd.choice(pivots)}
        for _ in range(rnd.randint(0, 3)):
            v[rnd.randrange(2 * i + 1)] = rnd.choice((1, -1, 2, -5))
        basis.append(v)
    rnd.shuffle(basis)
    return basis


def test_smith_diagonal_matches_the_peel_on_random_matrices(rnd):
    for _ in range(300):
        nrows, ncols = rnd.randint(1, 7), rnd.randint(1, 7)
        entries = (0, 0, 0, 1, -1, 1, 2, -3)
        _assert_smith_agrees({r: rnd.choice(entries) for r in range(nrows)} for _ in range(ncols))


def test_smith_diagonal_matches_the_peel_on_mixed_echelon_bases(rnd):
    for _ in range(100):
        _assert_smith_agrees(_echelon_basis(rnd, rnd.randint(1, 12), (1, -1, 1, 2, 3, -4)))


def test_smith_diagonal_matches_minor_gcds_on_random_matrices(rnd):
    for _ in range(300):
        nrows, ncols = rnd.randint(1, 5), rnd.randint(1, 5)
        entries = (0, 0, 1, -1, 2, -3, 4, 6, -9, 12)
        _assert_smith_agrees(
            ({r: rnd.choice(entries) for r in range(nrows)} for _ in range(ncols)), nrows
        )


def test_smith_diagonal_matches_minor_gcds_on_echelon_bases(rnd):
    for _ in range(60):
        n = rnd.randint(1, 5)
        _assert_smith_agrees(_echelon_basis(rnd, n, (1, -1, 2, 3, -4, 6)), 2 * n)


def test_an_all_unit_basis_leaves_the_dense_finisher_nothing(rnd):
    smith = _SparseSmith(_reduce_columns(_echelon_basis(rnd, 2000, (1, -1))))
    assert smith.units == 2000 and smith.rest == []
    assert smith.diagonal() == [1] * 2000
    # the echelon basis of a real top boundary, pivots on the bottommost row
    B = IntMatrix.from_rows([[1, 1, 0], [-1, 0, 1], [0, -1, -1]])
    assert _SparseSmith(_reduce_columns(B.cols)).diagonal() == [1, 1]


def _smith_checked(monkeypatch, compute) -> tuple:
    """Runs compute() with every basis that Smith reads checked: it is in
    Gauss-Jordan form on its unit pivots (_assert_unit_pivots_reduced),
    and its diagonal, in divisibility order, is the peel's. Returns how
    many bases were read, and how many diagonal entries, and entries other
    than 1, they gave: what the benchmark's trace counts as smith_pivots
    and smith_nonunit."""
    counts = [0, 0, 0]

    class Checked(_SparseSmith):
        def __init__(self, basis):
            _assert_unit_pivots_reduced(basis)
            super().__init__(basis)
            self.basis = basis
            counts[0] += 1

        def diagonal(self):
            diag = super().diagonal()
            assert _invariant_chain(diag) == _invariant_chain(_smith_by_peel(self.basis.values()))
            counts[1] += len(diag)
            counts[2] += sum(1 for v in diag if v != 1)
            return diag

    with monkeypatch.context() as m:
        m.setattr(exact_linalg, "_SparseSmith", Checked)
        compute()
    return tuple(counts)


def test_smith_reads_reduced_bases_on_the_benchmark_instances(monkeypatch):
    """One pass of each benchmark workload: the S3 word norm on diag at
    degree 2 over the norm values, the 64 Cat-groups of order at most 8 on
    tot at degree 2, and the 8-cycle at degree 4 over every reachable
    grading. The diagonals are as long, with as many entries other than
    1, as the unit peel gave."""
    N = parse_input(DOCS["s3-word-norm"])
    got = _smith_checked(monkeypatch, lambda: normed_group_homology(N, "norm-values", 2, "diag"))
    assert got == (6, 2699, 1)
    cases = [two_group_from_normal_subgroup(G, K)
             for G in all_groups_up_to_order_8() for K in G.normal_subgroups()]
    got = _smith_checked(monkeypatch, lambda: [iterated_homology(X, 2, "tot") for X in cases])
    assert got == (128, 4600, 82)
    assert _smith_checked(monkeypatch, lambda: metric_homology(cycle_graph(8), 4)) == (30, 2442, 0)


@pytest.mark.parametrize("name", ["Q8", "D4", "C4xC2", "C2^3"])
def test_smith_matches_the_peel_on_group_homology(monkeypatch, name):
    """Group homology through degree 4, where non-unit pivots survive the
    reduction: H_3(Q8) = Z/8, and every H_k of C2^3 has torsion."""
    c2, c4 = cyclic_group(2), cyclic_group(4)
    G = {"Q8": quaternion_group(), "D4": dihedral_group(4),
         "C4xC2": direct_product_group(c4, c2),
         "C2^3": direct_product_group(direct_product_group(c2, c2), c2)}[name]
    bases, _, nonunit = _smith_checked(monkeypatch, lambda: oracle_group_homology(G, 4))
    assert bases == 4 and nonunit > 0


# --- streamed columns, checked through the reduction's basis -------------------


def _stream(below: IntMatrix, cols: list) -> ColumnStream:
    return ColumnStream(below, len(cols), lambda: iter(cols))


def _smith_checking_each_column(M: ColumnStream, stop_rank):
    """smith_normal_form on a stream as it was before the reduction's basis
    checked the columns read: every column checked as it is emitted, the
    reduction fed from the checked pass, then the rest drawn."""
    cols = iter(M.cols)
    basis = _reduce_columns(cols, stop_rank)
    for _ in cols:
        pass
    if not basis:
        return [], 0
    factors = _invariant_chain(_SparseSmith(basis).diagonal())
    return factors, len(factors)


def _random_stream_complex(rnd):
    """(below, kernel, failing): below is an m x n matrix presented as
    W * U^-1 for a random unimodular U, with W zero on its first k columns,
    so the first k columns of U (kernel) are a basis of a saturated
    sublattice of ker(below); failing holds the other columns of U that
    below does not kill."""
    m, n = rnd.randint(1, 5), rnd.randint(1, 6)
    k = rnd.randint(0, n)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    U_inv = [row[:] for row in U]
    for _ in range(3 * n):
        a, b = rnd.sample(range(n), 2) if n > 1 else (0, 0)
        if a == b:
            continue
        c = rnd.choice((-2, -1, 1, 2))
        for row in U:  # column a of U += c * column b
            row[a] += c * row[b]
        U_inv[b] = [x - c * y for x, y in zip(U_inv[b], U_inv[a])]
    W = [[0] * k + [rnd.randint(-3, 3) for _ in range(n - k)] for _ in range(m)]
    below = [[sum(W[i][t] * U_inv[t][j] for t in range(n)) for j in range(n)]
             for i in range(m)]
    columns_of_U = [{i: U[i][j] for i in range(n) if U[i][j]} for j in range(n)]
    failing = [u for j, u in enumerate(columns_of_U)
               if j >= k and any(W[i][j] for i in range(m))]
    return IntMatrix.from_rows(below), columns_of_U[:k], failing


def _random_top(rnd, kernel: list, n: int) -> list:
    """Columns in the span of kernel: some of its vectors alone, so the
    early exit can fire partway, the rest integer combinations; a few
    carry explicit zero entries, on rows in range and out of it."""
    cols = []
    for _ in range(rnd.randint(0, 10)):
        if kernel and rnd.random() < 0.3:
            col = dict(rnd.choice(kernel))
        else:
            col = {}
            for u in kernel:
                c = rnd.randint(-2, 2)
                for r, v in u.items():
                    col[r] = col.get(r, 0) + c * v
            col = {r: v for r, v in col.items() if v}
        if rnd.random() < 0.2:
            col.setdefault(rnd.choice((-1, 0, n - 1, n, n + 3)), 0)
        cols.append(col)
    return cols


def _columns_read(cols: list, stop_rank) -> int:
    _, (read, _) = _reduce_counting_reads(_reduce_columns, iter(cols), stop_rank)
    return read


def _error(compute):
    with pytest.raises(InvalidComplexError) as err:
        compute()
    return str(err.value)


def test_the_basis_check_agrees_with_a_check_per_column(rnd):
    """Clean streams give the per-column path's factors and count every
    column as checked; a stream with one bad column, read before the
    early exit or drawn after it, raises the per-column path's error."""
    positions = {"read": 0, "drawn": 0}
    for _ in range(400):
        below, kernel, failing = _random_stream_complex(rnd)
        n = below.ncols
        stop = n - column_rank(below)
        cols = _random_top(rnd, kernel, n)
        top = _stream(below, cols)
        want = _smith_checking_each_column(_stream(below, cols), stop)
        assert smith_normal_form(top, stop) == want
        assert top.checked == top.ncols
        if not cols:
            continue
        read = _columns_read(cols, stop)
        j = rnd.randrange(len(cols))
        positions["read" if j < read else "drawn"] += 1
        bad = dict(cols[j])
        extra = rnd.choice(failing + [{-1: 1}, {n: -2}, {n + 5: 1}])
        for r, v in extra.items():
            bad[r] = bad.get(r, 0) + v
        broken = cols[:j] + [bad] + cols[j + 1:]
        want = _error(lambda: _smith_checking_each_column(_stream(below, broken), stop))
        assert f"streamed column {j}" in want
        assert _error(lambda: smith_normal_form(_stream(below, broken), stop)) == want
    assert min(positions.values()) >= 50, positions


@pytest.mark.parametrize("row", [-1, 5])
@pytest.mark.parametrize("position", [0, 1])
def test_a_streamed_row_out_of_range_raises(row, position):
    """below's kernel is spanned by e_1, so the reduction stops after the
    first column: the bad column is read (position 0) or drawn after the
    early exit (position 1). A row below 0 would wrap around to a real row,
    and one past the end would be an IndexError."""
    below = IntMatrix.from_rows([[1, 0]])
    cols = [{1: 1}, {1: 1}]
    cols[position] = {row: 1}
    with pytest.raises(InvalidComplexError,
                       match=rf"^streamed column {position} has an entry on row {row}, "
                             r"outside 0\.\.1$"):
        homology_between(below, _stream(below, cols))
    with pytest.raises(InvalidComplexError, match=f"^streamed column {position} has"):
        list(_stream(below, cols).cols)


def test_explicit_zero_entries_in_a_stream_are_harmless():
    below = IntMatrix.from_rows([[1, 0]])
    top = _stream(below, [{0: 0, 1: 1, 9: 0}, {-3: 0, 1: 2}])
    assert homology_between(below, top) == FgAbelianGroup(0)
    assert top.checked == 2
    assert list(top.cols) == [{1: 1}, {1: 2}]


def test_homology_between_emits_a_stream_once():
    """With check=True the stream checks itself, so it is not also
    multiplied by the boundary below it."""
    below = IntMatrix.from_rows([[1, 0, -1], [0, 1, 1]])
    calls = []

    def columns():
        calls.append(1)
        return iter([{0: 1, 1: -1, 2: 1}, {0: 2, 1: -2, 2: 2}])

    top = ColumnStream(below, 2, columns)
    assert homology_between(below, top) == FgAbelianGroup(0)
    assert len(calls) == 1 and top.checked == 2


# --- the packed d*d check against the dense one --------------------------------


def _repeated_columns_below(rnd, m: int):
    """(below, kernel): an m-row below whose columns repeat a few random
    sparse columns with entries +-1..+-9, some negated, and a zero column;
    kernel holds the vectors in ker(below) that the repeats give, e_r for
    a zero column r and s0 e_r0 - s e_r for columns s0 b and s b."""
    base = [{i: rnd.choice((-1, 1)) * rnd.randint(1, 9)
             for i in rnd.sample(range(m), min(m, rnd.randint(1, 4)))}
            for _ in range(rnd.randint(1, 6))] + [{}]
    rows = [(b, rnd.choice((-1, 1))) for b in range(len(base)) for _ in range(rnd.randint(1, 3))]
    rnd.shuffle(rows)
    below = IntMatrix(m, len(rows), tuple({i: s * w for i, w in base[b].items()} for b, s in rows))
    kernel, first = [], {}
    for r, (b, s) in enumerate(rows):
        if not base[b]:
            kernel.append({r: 1})
        elif b in first:
            r0, s0 = first[b]
            kernel.append({r0: s0, r: -s})
        else:
            first[b] = (r, s)
    return below, kernel


def _kernel_columns(rnd, kernel: list, n: int, big: bool) -> list:
    """Integer combinations of kernel vectors, with coefficients +-1..+-9,
    or past the packed kernel's bound when big; a few carry explicit zero
    entries, on rows in range and out of it."""
    cols = []
    for _ in range(rnd.randint(1, 8)):
        col = {}
        for u in rnd.sample(kernel, min(len(kernel), rnd.randint(1, 3))):
            c = rnd.choice((-1, 1)) * (rnd.randint(1 << 15, 1 << 20) if big else rnd.randint(1, 9))
            for r, v in u.items():
                col[r] = col.get(r, 0) + c * v
        col = {r: v for r, v in col.items() if v}
        if rnd.random() < 0.3:
            col.setdefault(rnd.choice((-1, 0, n - 1, n, n + 3)), 0)
        cols.append(col)
    return cols


def _carry_column(rnd, below: IntMatrix):
    """A column that below does not kill but whose packed sum is 0: on two
    rows r, r2 with independent columns of below, the packed integers'
    cross multiples, which carry one field into the next. None when below
    has no two such rows."""
    nonzero = [r for r, col in enumerate(below.cols) if col]
    rnd.shuffle(nonzero)
    for r in nonzero:
        for r2 in nonzero:
            a, b = below.cols[r], below.cols[r2]
            if any(a.get(i, 0) * b.get(k, 0) != a.get(k, 0) * b.get(i, 0)
                   for i in a for k in b):
                P = [sum(w << (exact_linalg._FIELD_BITS * i) for i, w in c.items())
                     for c in (a, b)]
                g = gcd(*P)
                return {r: P[1] // g, r2: -P[0] // g}
    return None


def _outcomes(below: IntMatrix, cols: list):
    """What cols gives when read, and when its homology is read: the
    columns or the error, and the columns checked."""
    read = _stream(below, cols)
    try:
        got = list(read.cols)
    except InvalidComplexError as e:
        got = str(e)
    reduced = _stream(below, cols)
    try:
        group = homology_between(below, reduced)
    except InvalidComplexError as e:
        group = str(e)
    return got, read.checked, group, reduced.checked


@pytest.mark.parametrize("rows", [(1, 20), (257, 400)], ids=["narrow", "wide"])
def test_the_packed_check_agrees_with_the_dense_one(rnd, monkeypatch, rows):
    """Every stream, clean or with one bad column (an entry off the kernel,
    a nonzero entry on a row out of range, or a column whose packed sum
    carries to 0), gives the same columns, errors and checked counts on
    the packed kernel, forced on even for a wide below, as on the dense."""
    bad_kinds = {"off the kernel": 0, "out of range": 0, "carry": 0}
    for _ in range(150):
        below, kernel = _repeated_columns_below(rnd, rnd.randint(*rows))
        n = below.ncols
        assert (_RowsBelow(below).packed is None) == (below.nrows * 16 > 4096)
        cols = _kernel_columns(rnd, kernel, n, big=rnd.random() < 0.3)
        streams = [cols]
        j = rnd.randrange(len(cols))
        off = next((r for r in range(n) if below.cols[r]), None)
        if off is not None:
            streams.append(cols[:j] + [{**cols[j], off: cols[j].get(off, 0) + 1}] + cols[j + 1:])
            bad_kinds["off the kernel"] += 1
        streams.append(cols[:j] + [{**cols[j], rnd.choice((-1, n, n + 5)): 2}] + cols[j + 1:])
        bad_kinds["out of range"] += 1
        carry = _carry_column(rnd, below)
        if carry is not None:
            streams.append(cols[:j] + [carry] + cols[j + 1:])
            bad_kinds["carry"] += 1
        for stream in streams:
            monkeypatch.setattr(exact_linalg, "_PACKED_BITS", -1)
            dense = _outcomes(below, stream)
            monkeypatch.setattr(exact_linalg, "_PACKED_BITS", 1 << 30)
            assert _RowsBelow(below).packed is not None
            assert _outcomes(below, stream) == dense
            monkeypatch.undo()
            if stream is not cols:
                assert f"streamed column {j}" in dense[0]
    assert min(bad_kinds.values()) >= 50, bad_kinds


DOCS = builder_documents()


def _recorded_top(monkeypatch, compute) -> ColumnStream:
    """The streamed top boundary of the complex that compute reads
    homology from."""
    seen = []
    original = iterated.homology_table

    def recording(C, max_degree):
        seen.append(C)
        return original(C, max_degree)

    monkeypatch.setattr(iterated, "homology_table", recording)
    compute()
    monkeypatch.undo()
    (C,) = seen
    return C.boundary[C.max_degree]


@pytest.mark.parametrize("case", ["s3-grading-2", "catgroup-s3-a3-tot"])
def test_a_broken_drained_column_fails_alike_on_both_kernels(monkeypatch, case):
    """One entry raised by 1 in a column drawn after the reduction's early
    exit (column 73,871 of the S3 word norm's grading-2 top, and the last
    column of a Cat-group's tot top) fails d*d on the packed kernel as on
    the dense one."""
    if case == "s3-grading-2":
        N = parse_input(DOCS["s3-word-norm"])
        top = _recorded_top(monkeypatch, lambda: normed_group_homology(N, [2], 2, route="diag"))
        j = 73871
    else:
        C = parse_input(DOCS["catgroup-s3-a3"])
        top = _recorded_top(monkeypatch, lambda: iterated_homology(C, 2, "tot"))
        j = top.ncols - 1
    below = top.below
    assert _RowsBelow(below).packed is not None
    stop = below.ncols - column_rank(below)
    _, (read, _) = _reduce_counting_reads(_reduce_columns, top._columns(), stop)
    assert read <= j < top.ncols
    r = next(r for r, col in enumerate(below.cols) if col)

    def broken():
        for k, col in enumerate(top._columns()):
            yield {**col, r: col.get(r, 0) + 1} if k == j else col

    errors = []
    for packed_bits in (exact_linalg._PACKED_BITS, -1):
        monkeypatch.setattr(exact_linalg, "_PACKED_BITS", packed_bits)
        stream = ColumnStream(below, top.ncols, broken)
        errors.append(_error(lambda: homology_between(below, stream)))
        assert stream.checked == j
    assert errors == [f"composite of consecutive boundaries is nonzero on streamed column {j}"] * 2


# --- the packed zero test of _reduce_columns against the dict unit pass --------


def _unit_image(basis: dict, r: int) -> dict:
    """What the unit pass turns e_r into: e_r on a row that is no unit
    pivot, -(u_r - e_r) on a unit pivot r."""
    u = basis.get(r)
    if u is None or u[r] != 1:
        return {r: 1}
    return {k: -x for k, x in u.items() if k != r}


def _carry_pair(rnd, basis: dict, nrows: int):
    """[{}, c]: a column the unit pass clears, so the packed test runs on
    the next, and a column c whose packed sum is 0 although the unit pass
    leaves it nonzero: on two rows r, r2 with packed images P, P2, c is
    P2/g on r and -P/g on r2 (g = gcd), whose fields carry into each
    other. Only the bound on sum |c| keeps c from being skipped. None when
    no sampled pair leaves c nonzero."""
    B = exact_linalg._FIELD_BITS
    images = [_unit_image(basis, r) for r in range(nrows)]
    packed = [sum(x << (B * k) for k, x in image.items()) for image in images]
    nonzero = [r for r in range(nrows) if packed[r]]
    for _ in range(100 if len(nonzero) > 1 else 0):
        r, r2 = rnd.sample(nonzero, 2)
        g = gcd(packed[r], packed[r2])
        x, y = packed[r2] // g, -packed[r] // g
        v = {k: x * images[r].get(k, 0) + y * images[r2].get(k, 0)
             for k in images[r].keys() | images[r2].keys()}
        if any(v.values()):
            return [{}, {r: x, r2: y}]
    return None


def _unit_pass_stream(rnd, nrows: int, big: bool) -> list:
    """Columns on rows 0..nrows-1 with entries +-1..+-9 (past the bound
    when big) that the unit pass often clears: a few random generators,
    repeats and integer combinations of the columns so far, empty columns,
    and explicit zero entries."""
    def fresh():
        return {r: rnd.choice((-1, 1)) * rnd.randint(1, 9)
                for r in rnd.sample(range(nrows), min(nrows, rnd.randint(1, 4)))}

    cols = [fresh() for _ in range(rnd.randint(1, 6))]
    for _ in range(rnd.randint(5, 40)):
        x = rnd.random()
        if x < 0.15:
            col = {}
        elif x < 0.3:
            col = fresh()
        elif x < 0.45:
            col = dict(rnd.choice(cols))
        else:
            col = {}
            for c in rnd.sample(cols, min(len(cols), rnd.randint(1, 3))):
                k = rnd.choice((-1, 1)) * (rnd.randint(1 << 12, 1 << 16) if big
                                           else rnd.randint(1, 9))
                for r, v in c.items():
                    col[r] = col.get(r, 0) + k * v
            col = {r: v for r, v in col.items() if v}
        if rnd.random() < 0.1:
            col.setdefault(rnd.randrange(nrows), 0)
        cols.append(col)
    return cols


def _reduced_both_ways(monkeypatch, columns: list, stop_rank):
    """_reduce_columns with the packed zero test and without it: for each,
    the basis as (pivot, entries in order) and the columns read, or the
    error it raised."""
    outcomes = []
    for packed_bits in (exact_linalg._PACKED_BITS, 0):
        monkeypatch.setattr(exact_linalg, "_PACKED_BITS", packed_bits)
        try:
            basis, (read, _) = _reduce_counting_reads(_reduce_columns, iter(columns), stop_rank)
            outcomes.append(([(p, list(v.items())) for p, v in basis.items()], read))
        except TypeError as e:
            outcomes.append(str(e))
        monkeypatch.undo()
    return outcomes


@pytest.mark.parametrize("rows", [(2, 12), (40, 255), (257, 400)],
                         ids=["narrow", "wide-narrow", "wide"])
def test_the_packed_zero_test_agrees_with_the_dict_pass(rnd, monkeypatch, rows):
    """Random streams, with columns past the bound and with columns whose
    packed sum carries to 0, give the same basis, entry for entry and in
    order, and read the same columns, with and without the packed test."""
    carries = 0
    for _ in range(120):
        nrows = rnd.randint(*rows)
        cols = _unit_pass_stream(rnd, nrows, big=rnd.random() < 0.2)
        k = rnd.randint(1, len(cols))
        monkeypatch.setattr(exact_linalg, "_PACKED_BITS", 0)
        pair = _carry_pair(rnd, _reduce_columns(cols[:k]), nrows)
        monkeypatch.undo()
        if pair is not None:
            cols[k:k] = pair
            carries += 1
        rank = len(_reduce_columns(cols))
        for stop in (None, rank, 0):
            packed, plain = _reduced_both_ways(monkeypatch, cols, stop)
            assert packed == plain, (cols, stop)
    assert carries >= 60, carries


@pytest.mark.parametrize("bad", [-1, -300, 256, 1000, 2.5, "x"])
def test_a_row_the_packed_test_cannot_pack_gives_the_dict_pass_outcome(monkeypatch, bad):
    """A row outside 0..255, or one that is no int, turns the packed test
    off for the rest of the call: the basis, the columns read, or the
    error from comparing rows, are the dict pass's. The bad row comes
    after a cleared column, so the packed test reads it."""
    cols = [{0: 1, 1: 2}, {1: 1}, {}, {3: 1, bad: 1}, {0: 1, 1: 1}, {}, {2: 1}]
    packed, plain = _reduced_both_ways(monkeypatch, cols, None)
    assert packed == plain
    if bad == "x":
        assert "not supported between" in plain


def test_a_unit_with_an_empty_tail_packs_to_zero(monkeypatch):
    """u_0 = e_0 turns e_0 into 0, so its image packs to 0, and a column on
    row 0 alone is cleared by the packed test as by the dict pass."""
    cols = [{0: 1}, {}, {0: 3}, {0: -7, 1: 2}, {}, {1: 2, 0: 5}, {1: 1}]
    packed, plain = _reduced_both_ways(monkeypatch, cols, None)
    assert packed == plain
    assert plain[0] == [(0, [(0, 1)]), (1, [(1, 1)])]


def test_a_packed_unit_that_a_later_step_updates(monkeypatch):
    """u_2 = e_2 + e_0 is packed when the third column is tested; then e_0
    becomes a unit pivot and the Gauss-Jordan step turns u_2 into e_2, so
    the image of row 2 changes from -e_0 to 0."""
    cols = [{0: 1, 2: 1}, {}, {2: 1, 0: 1}, {0: 1}, {}, {2: 1, 1: 2}, {}, {2: 1}, {1: 1},
            {}, {2: 3, 0: -2}]
    packed, plain = _reduced_both_ways(monkeypatch, cols, None)
    assert packed == plain
    assert plain[0] == [(2, [(2, 1)]), (0, [(0, 1)]), (1, [(1, 1)])]


def test_the_packed_zero_test_agrees_on_every_catgroup_tot_top(monkeypatch):
    """Every Cat-group of order at most 8 at degree 2 on the tot route: the
    streamed top reduces to the same basis and reads the same columns with
    the packed test and without it."""
    cases = [two_group_from_normal_subgroup(G, N)
             for G in all_groups_up_to_order_8() for N in G.normal_subgroups()]
    assert len(cases) == 64
    for C in cases:
        top = _recorded_top(monkeypatch, lambda: iterated_homology(C, 2, "tot"))
        cols = list(top._columns())
        stop = top.below.ncols - column_rank(top.below)
        packed, plain = _reduced_both_ways(monkeypatch, cols, stop)
        assert packed == plain
