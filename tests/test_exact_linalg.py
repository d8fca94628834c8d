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
from maghom import exact_linalg
from maghom.exact_linalg import (
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
    factors = _invariant_chain(_SparseSmith(basis.values()).diagonal()) if basis else []
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


def _reduce_columns_topmost(columns, stop_rank=None):
    """_reduce_columns as it was with the topmost nonzero row as pivot."""
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
    return basis


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
    each column cascades through the pivots, bottommost row first."""
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
    return basis


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


# --- the unit peel in _SparseSmith --------------------------------------------


class _NoPeel(_SparseSmith):
    """The Smith loop without the unit peel."""

    def _peel_units(self) -> int:
        return 0


def _assert_peel_agrees(columns) -> None:
    columns = list(columns)
    assert _invariant_chain(_SparseSmith(columns).diagonal()) == _invariant_chain(
        _NoPeel(columns).diagonal()
    )


def test_unit_peel_matches_the_loop_on_random_matrices(rnd):
    for _ in range(300):
        nrows, ncols = rnd.randint(1, 7), rnd.randint(1, 7)
        entries = (0, 0, 0, 1, -1, 1, 2, -3)
        _assert_peel_agrees(
            {r: rnd.choice(entries) for r in range(nrows)} for _ in range(ncols)
        )


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


def test_unit_peel_matches_the_loop_on_mixed_echelon_bases(rnd):
    for _ in range(100):
        _assert_peel_agrees(_echelon_basis(rnd, rnd.randint(1, 12), (1, -1, 1, 2, 3, -4)))


def test_all_unit_echelon_basis_peels_without_picking_a_pivot(rnd):
    basis = _echelon_basis(rnd, 2000, (1, -1))
    smith = _SparseSmith(basis)
    assert smith._peel_units() == 2000
    assert smith.cols == {} and smith.row_occ == {}
    assert _SparseSmith(basis).diagonal() == [1] * 2000
    # the echelon basis of a real top boundary, pivots on the bottommost row
    B = IntMatrix.from_rows([[1, 1, 0], [-1, 0, 1], [0, -1, -1]])
    assert _SparseSmith(_reduce_columns(B.cols).values()).diagonal() == [1, 1]


# --- the dense finisher against determinantal divisors --------------------------


def _assert_minors_agree(columns, nrows: int) -> None:
    """The Smith diagonal, put in divisibility order, equals the invariant
    factors read off the gcds of the k x k minors (snf_by_minors)."""
    columns = list(columns)
    rows = [[col.get(r, 0) for col in columns] for r in range(nrows)]
    assert _invariant_chain(_SparseSmith(columns).diagonal()) == snf_by_minors(rows)


def test_smith_diagonal_matches_minor_gcds_on_random_matrices(rnd):
    for _ in range(300):
        nrows, ncols = rnd.randint(1, 5), rnd.randint(1, 5)
        entries = (0, 0, 1, -1, 2, -3, 4, 6, -9, 12)
        _assert_minors_agree(
            ({r: rnd.choice(entries) for r in range(nrows)} for _ in range(ncols)), nrows
        )


def test_smith_diagonal_matches_minor_gcds_on_echelon_bases(rnd):
    for _ in range(60):
        n = rnd.randint(1, 5)
        _assert_minors_agree(_echelon_basis(rnd, n, (1, -1, 2, 3, -4, 6)), 2 * n)
