"""Exact integer linear algebra.

Smith normal form, ranks, homology of free chain complexes presented by
integer boundary matrices, and tensor/Tor of finitely generated abelian
groups. Everything runs on Python's arbitrary-precision integers; no
floating point is used anywhere in this module.

Matrices are sparse and column-major: boundary matrices of the complexes
built elsewhere in this package have a handful of +-1 entries per column,
and every algorithm here consumes columns. Rank and torsion are extracted
in two phases. First the column span is brought to an echelon basis by
unimodular column operations. This is the only phase that sees the full,
possibly very wide, matrix. The basis is kept in Gauss-Jordan form on its
unit pivots, so a column that the unit-pivot vectors already span is
cleared in one pass, and most columns read are. On rows 0..255 that pass
is often decided without running it: each row's image under the pass is
packed into one integer, one 16-bit field per row, and a column whose
combination of images is 0 is skipped, under the same kind of bound as
the packed d*d check below (see _reduce_columns). Then a full Smith
reduction runs on the basis, which has at most one vector per pivot row.
That reduction first peels off every unit entry alone in its row; an
echelon basis whose pivots are all units is peeled away completely,
without a single row or column operation. The few columns a peel leaves
(at most 3 on every chain complex measured, see _SparseSmith) are
diagonalized densely.

A boundary too large to store is a ColumnStream: its columns are computed
as they are read, and each is checked for d*d = 0 against the boundary
below it by one of two kernels. When that boundary has few rows (rows
times a 16-bit field width at most 4,096 bits), each of its columns is
packed into one integer, one 16-bit field per row, and a column passes
when its combination of packed integers is 0; this is exact while the
column's absolute entries, summed and times the boundary's largest
absolute entry, stay under 2**15. Every other column goes through a dense
accumulator with one integer per row, whose memory does not grow with the
boundary's width.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .errors import InvalidComplexError


class IntMatrix:
    """Sparse integer matrix, stored as one dict (row -> entry) per column."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols: tuple[dict, ...]):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(cols) != ncols:
            raise ValueError("column count mismatch")
        for col in cols:
            for r, v in col.items():
                if not 0 <= r < nrows:
                    raise ValueError(f"row index {r} out of range 0..{nrows - 1}")
                if v == 0:
                    raise ValueError("explicit zero entry stored")
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls(nrows, ncols, tuple({} for _ in range(ncols)))

    @classmethod
    def from_columns(cls, nrows: int, cols: Iterable[Mapping[int, int]]) -> "IntMatrix":
        packed = tuple({r: v for r, v in col.items() if v} for col in cols)
        return cls(nrows, len(packed), packed)

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        cols: list[dict] = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    cols[j][i] = v
        return cls(nrows, ncols, tuple(cols))

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError("entry access out of bounds")
        return self.cols[j].get(i, 0)

    def is_zero(self) -> bool:
        return all(not col for col in self.cols)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """Matrix product self @ other."""
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        out = []
        for col in other.cols:
            acc: dict[int, int] = {}
            for k, v in col.items():
                for i, w in self.cols[k].items():
                    nv = acc.get(i, 0) + v * w
                    if nv:
                        acc[i] = nv
                    else:
                        acc.pop(i, None)
            out.append(acc)
        return IntMatrix(self.nrows, other.ncols, tuple(out))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(sorted(c.items())) for c in self.cols)))

    def __repr__(self) -> str:
        return f"IntMatrix({self.nrows}x{self.ncols}, nnz={sum(len(c) for c in self.cols)})"


# The packed d*d check (ColumnStream): B, the bits of one field of a packed
# row, and the widest below it packs, below.nrows * B bits. On random
# boundaries with four +-1 entries per column of below, checking a
# four-entry column took the packed kernel 0.7-0.9 us up to 1,024 bits,
# 1.6 us at 4,096 and 2.7 us at 8,192, and the dense one 1.8-2.2 us at
# every width (Python 3.11, one core of a shared 2-vCPU Xeon host). Wider
# rows also cost memory: sphere 5's 2,730-row boundary would pack into
# about 27 MB.
_FIELD_BITS = 16
_PACKED_BITS = 4096
_FIELD_LIMIT = (1 << (_FIELD_BITS - 1)) - 1  # the largest |digit| a field holds


class _RowsBelow:
    """below's columns, for one pass of ColumnStream._checked_columns.

    packed maps each row r of the stream to below's column r packed into
    one integer, or is None when below is too wide to pack; limit is the
    packed kernel's bound on the sum of |v| over a column's entries.
    dense() maps each row to below's column as a tuple of entries, built
    when the dense kernel first checks a column, so a pass that the packed
    kernel checks whole never builds it. A row outside 0..nrows-1 is a
    KeyError in both maps.
    """

    __slots__ = ("below", "packed", "limit", "_dense")

    def __init__(self, below: IntMatrix):
        self.below = below
        self.packed = self.limit = self._dense = None
        if below.nrows * _FIELD_BITS <= _PACKED_BITS:
            shifts = [1 << (_FIELD_BITS * i) for i in range(below.nrows)]
            self.packed = {r: sum(w * shifts[i] for i, w in col.items())
                           for r, col in enumerate(below.cols)}
            widest = max((abs(w) for col in below.cols for w in col.values()), default=1)
            self.limit = _FIELD_LIMIT // widest

    def dense(self) -> dict[int, tuple]:
        if self._dense is None:
            self._dense = dict(enumerate(tuple(col.items()) for col in self.below.cols))
        return self._dense


def _nonzero_composite(j: int) -> InvalidComplexError:
    return InvalidComplexError(
        f"composite of consecutive boundaries is nonzero on streamed column {j}")


class ColumnStream:
    """A boundary matrix whose columns are computed when read and never stored.

    below is the boundary one degree down, so nrows is below.ncols. A
    column passes when below * column = 0 and every row holding a nonzero
    entry lies in 0..nrows-1. An explicit zero entry is harmless on any
    row: it adds nothing to below * column, and the reduction drops it.
    Each read of cols computes the columns again and checks each one as
    it is emitted. checked counts the columns that passed. A pass that
    ends after a number of columns other than ncols raises.

    Two kernels check columns (_checked_columns), on below's columns
    copied once per pass (_RowsBelow):
    - The packed kernel runs when below is narrow: below.nrows * B at
      most _PACKED_BITS, with B = _FIELD_BITS. Row r of the stream is
      packed into one integer, P[r] = sum of below[i, r] * 2**(B*i), and
      a column v sums s = sum of v[r] * P[r]. Field i of s is then
      (below * v)[i] as a balanced base-2**B digit, and balanced digits
      are unique while each is less than 2**(B-1) in absolute value. The
      sum of |v[r]| times below's largest |entry| bounds them all, so a
      column within that bound passes exactly when s = 0. A nonzero s
      fails a column at any bound: s is 0 whenever below * v is.
    - The dense kernel adds the column into one accumulator of
      below.nrows integers. A column that passes leaves it all zero
      again, so a check costs the column's entries below, not a pass
      over the rows. It checks what the packed kernel leaves: every
      column of a wide below (it is the only kernel whose memory does
      not grow with below's width), a column over the bound, and a
      column with an entry on a row outside 0..nrows-1. So the errors,
      column numbers and checked counts do not depend on the kernel.

    smith_normal_form reads the stream through reduce instead. The columns
    the reduction reads are checked through the basis it returns, and the
    rest one by one.
    """

    __slots__ = ("below", "nrows", "ncols", "_columns", "checked")

    def __init__(self, below: IntMatrix, ncols: int,
                 columns: Callable[[], Iterable[Mapping[int, int]]]):
        self.below = below
        self.nrows = below.ncols
        self.ncols = ncols
        self._columns = columns
        self.checked = 0

    @property
    def cols(self) -> Iterator[Mapping[int, int]]:
        n = 0
        checked = self._checked_columns(_RowsBelow(self.below), self._columns(), 0)
        for n, col in enumerate(checked, 1):
            self.checked += 1
            yield col
        self._check_length(n)

    def _check_length(self, n: int) -> None:
        if n != self.ncols:
            raise InvalidComplexError(f"stream emitted {n} columns, expected {self.ncols}")

    def _checked_columns(self, rows: _RowsBelow,
                         columns: Iterable[Mapping[int, int]], start: int):
        """Yield columns, numbered from start, each checked as it is
        emitted; the first that fails raises, naming its number."""
        packed, limit = rows.packed, rows.limit
        below = acc = None  # the dense kernel's, made for its first column
        for j, col in enumerate(columns, start):
            if packed is not None:
                s = t = 0
                try:
                    for r, v in col.items():
                        s += v * packed[r]
                        t += abs(v)
                except KeyError:  # a row outside 0..nrows-1: the dense kernel sorts it out
                    pass
                else:
                    if s:
                        raise _nonzero_composite(j)
                    if t <= limit:
                        yield col
                        continue
            if below is None:
                below, acc = rows.dense(), [0] * self.below.nrows
            try:
                for r, v in col.items():
                    for i, w in below[r]:
                        acc[i] += v * w
            except KeyError:  # a row outside 0..nrows-1, harmless under a zero entry
                acc = [0] * self.below.nrows
                col = self._nonzero_in_range(col, j)
                for r, v in col.items():
                    for i, w in below[r]:
                        acc[i] += v * w
            for r in col:
                for i, _ in below[r]:
                    if acc[i]:
                        raise _nonzero_composite(j)
            yield col

    def _nonzero_in_range(self, col: Mapping[int, int], j: int) -> dict:
        """Column j without its zero entries, or an error naming its first
        nonzero entry on a row outside 0..nrows-1."""
        out = {r: v for r, v in col.items() if v}
        for r in out:
            if not (isinstance(r, int) and 0 <= r < self.nrows):
                raise InvalidComplexError(
                    f"streamed column {j} has an entry on row {r!r}, "
                    f"outside 0..{self.nrows - 1}"
                )
        return out

    def reduce(self, stop_rank: Optional[int] = None) -> dict[int, dict]:
        """_reduce_columns on the raw columns, then every column checked.

        The reduction's steps are unimodular, so its basis spans exactly
        the lattice of the columns it read, and ker(below) is a subgroup:
        every column read lies in it if and only if every basis vector
        does. So the basis vectors go through the column check instead of
        the columns read (2,663 vectors for 38,142 columns in one pass of
        the benchmark's normed-diag workload, seed 7). A row holding a
        nonzero entry of a column read holds one of some basis vector too,
        so checking the basis vectors' rows checks the columns' rows. The
        columns left unread are drawn and checked one by one. If a basis
        vector fails, the stream is read again from the start through cols,
        so the error names the first bad column.
        """
        columns = iter(self._columns())
        read = count()  # zip pulls a column first, so read stops at the number read
        basis = _reduce_columns(map(itemgetter(0), zip(columns, read)), stop_rank)
        n = next(read)
        rows = _RowsBelow(self.below)
        try:
            for _ in self._checked_columns(rows, basis.values(), 0):
                pass
        except InvalidComplexError:
            for _ in self.cols:
                pass
            raise InvalidComplexError(
                "composite of consecutive boundaries is nonzero on the span of the "
                "streamed columns read, but on none of them when read again"
            ) from None
        self.checked += n
        for n, _ in enumerate(self._checked_columns(rows, columns, n), n + 1):
            self.checked += 1
        self._check_length(n)
        return basis


class CodedLabels:
    """The labels of a streamed degree's generators: a sized iterable that
    decodes them each time it is iterated, so no list of them is kept.
    labels() decodes them in column order."""

    __slots__ = ("count", "labels")

    def __init__(self, count: int, labels: Callable[[], Iterable]):
        self.count, self.labels = count, labels

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.labels())


def _sub_scaled(v: dict, b: dict, q: int) -> None:
    """v -= q * b, in place."""
    if q == 0:
        return
    for r, w in b.items():
        nv = v.get(r, 0) - q * w
        if nv:
            v[r] = nv
        else:
            v.pop(r, None)


def _combine(x: int, a: dict, y: int, b: dict) -> dict:
    """x*a + y*b as a fresh sparse vector."""
    out: dict[int, int] = {}
    if x:
        for r, w in a.items():
            out[r] = x * w
    if y:
        for r, w in b.items():
            nv = out.get(r, 0) + y * w
            if nv:
                out[r] = nv
            else:
                out.pop(r, None)
    return out


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) > 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _reduce_columns(columns: Iterable[Mapping[int, int]],
                    stop_rank: Optional[int] = None) -> dict[int, dict]:
    """Triangularize the span of the given columns by unimodular column ops.

    Returns a map pivot_row -> vector, where each vector's bottommost
    nonzero row is its pivot. The vectors generate exactly the same
    subgroup of Z^rows as the input columns, which are read in their
    given order and never mutated. Pivoting on the bottommost row rather
    than the topmost cut catgroup-tot's reduction time 2.74 -> 0.86 s
    (perfbench --trace 1, seed 31, BENCH_6.json).

    The basis is kept in Gauss-Jordan form on its unit pivots: no vector
    has an entry on the pivot row of a unit-pivot vector u_r, other than
    u_r itself. Pivots are made positive, so a unit pivot is 1.
    - A column is first cleared of every unit row in one pass,
      v -= v[r] * u_r. No u_r holds another unit row, so the pass brings
      none back.
    - What is left cascades through the non-unit pivots only, by exact
      division or a gcd step. None of those vectors holds a unit row
      either, so the cascade brings none back.
    - When a vector gets a unit pivot p (a new pivot +-1, or a gcd step
      with gcd 1), it is subtracted from every other vector with an entry
      on row p, found through a row index. Their pivots lie above p, so
      they stay.
    Every step is unimodular within the basis, so after each column the
    basis spans the lattice a plain cascade spans. The pivot rows and
    pivot magnitudes of a lattice's echelon basis are unique (its Hermite
    diagonal), so the early exit fires at the same column and the Smith
    factors are the same. On the benchmark's streams (seed 7) the pass
    leaves 0 in 93% of the columns read on normed-diag and 81% on
    catgroup-tot. Over every reduction of one normed-diag pass it makes
    91k entry updates, where the cascade subtracted 366k entries and
    scanned 602k with max().

    A packed zero test decides most cleared columns without the pass.
    With B = _FIELD_BITS, images[r] is what the pass turns e_r into,
    packed one B-bit field per row: 2**(B*r) on a row that is no unit
    pivot, and -(u_r - e_r) on a unit pivot r, so a unit with an empty
    tail packs to 0. Field k of s = sum of col[r] * images[r] is then
    v[k], the entry the pass would leave, and |v[k]| is at most t * W,
    with t the sum of |col| and W = max(1, the largest |entry| of every
    image packed so far). When s = 0 and t * W < 2**(B-1), balanced
    base-2**B digits are unique, so v = 0 and the column is skipped; the
    early-exit test still runs after it. Every other column goes through
    the pass unchanged, so the basis, and the columns read, are the same.
    - An image is packed when a column first reads its row, and dropped
      when the row becomes a unit pivot or a Gauss-Jordan step updates
      its unit. A stale image would still be exact: every image is e_r
      modulo the span of the unit vectors, which never shrinks, so s = 0
      under the bound puts col in that span, where the pass leaves 0.
      It would only miss columns: kept stale, the test skips 10k of
      catgroup-tot's columns in a pass (seed 7), against 41k.
    - Width: the test packs only while every row read, and every tail
      row of a packed image, is an int in 0.._PACKED_BITS // B - 1 (256
      rows); the first row outside turns it off for the rest of the
      call. catgroup-tot's tops have at most 129 rows; normed-diag's
      grading-2 top has 2,232 and stays on the pass.
    - It runs only on a column that comes right after one the pass
      cleared. Run on every column, with each image packed again as soon
      as its vector changed, it made metric-cycle's reductions, which
      mostly grow the basis, 31% slower.
    On catgroup-tot (seed 7) it skips 41k of the 54k columns read and
    cuts the pass's entry updates from 419k to 83k.

    With stop_rank set, the columns are read only until the basis holds
    stop_rank vectors whose pivots are all 1. An echelon basis with unit
    pivots spans a saturated lattice, whichever row of each vector is its
    pivot, so a caller that knows the span lies in a saturated lattice of
    rank stop_rank (the kernel of the previous boundary, once d*d = 0 is
    checked) has its whole span by then: the columns left unread cannot
    change it.
    """
    basis: dict[int, dict] = {}
    units: dict[int, dict] = {}  # the vectors of basis whose pivot is 1
    # row -> pivots of the basis vectors with an entry on it, other than a
    # vector's own pivot row; a set that empties is deleted
    holders: dict[int, set[int]] = {}
    # row r -> what the unit pass turns e_r into, packed (the zero test)
    images: dict[int, int] = {}
    packed_rows = _PACKED_BITS // _FIELD_BITS
    widest = 1  # W: max(1, the largest |entry| of any image packed so far)
    limit = _FIELD_LIMIT  # the largest t the zero test takes, given W

    def pack(col: Mapping[int, int]) -> tuple[bool, int, int]:
        """(True, s, t) for col, packing the image of each of its rows not
        packed yet; (False, 0, 0) when a row read, or a tail row of its
        unit, lies outside 0..packed_rows-1."""
        nonlocal widest, limit
        s = t = 0
        for r, w in col.items():
            x = images.get(r)
            if x is None:
                if not (isinstance(r, int) and 0 <= r < packed_rows):
                    return False, 0, 0
                u = units.get(r)
                if u is None:
                    x = 1 << (_FIELD_BITS * r)
                else:
                    x = 0
                    for k, y in u.items():
                        if k != r:
                            if not (isinstance(k, int) and 0 <= k < packed_rows):
                                return False, 0, 0
                            x -= y << (_FIELD_BITS * k)
                            if abs(y) > widest:
                                widest = abs(y)
                                limit = _FIELD_LIMIT // widest
                images[r] = x
            s += w * x
            t += abs(w)
        return True, s, t

    def hold(r: int, q: int) -> None:
        s = holders.get(r)
        if s is None:
            holders[r] = {q}
        else:
            s.add(q)

    def release(r: int, q: int) -> None:
        s = holders[r]
        s.discard(q)
        if not s:
            del holders[r]

    def enter(p: int, vec: dict) -> None:
        """Put vec in the basis at pivot p, in place of any vector there; a
        unit pivot is then cleared from every other vector, so no vector
        holds row p again."""
        prev = basis.get(p)
        if prev is not None:
            for r in prev:
                if r != p:
                    release(r, p)
        basis[p] = vec
        if vec[p] == 1:
            units[p] = vec
            images.pop(p, None)
            for q in holders.pop(p, ()):
                images.pop(q, None)
                b = basis[q]
                c = b[p]
                for r, w in vec.items():
                    old = b.get(r)
                    if old is None:
                        b[r] = -c * w
                        hold(r, q)
                    elif old != c * w:
                        b[r] = old - c * w
                    else:
                        del b[r]
                        if r != p:
                            release(r, q)
        for r in vec:
            if r != p:
                hold(r, p)

    image, packing, cleared = images.get, packed_rows > 0, False
    for col in columns:
        if packing and cleared:
            # the zero test: field k of s is v[k] below, |v[k]| <= t * W
            s = t = 0
            for r, w in col.items():
                x = image(r)
                if x is None:  # not packed yet
                    packing, s, t = pack(col)
                    break
                s += w * x
                t += abs(w)
            if packing and not s and t <= limit:
                if len(units) == stop_rank == len(basis):
                    break
                continue
        # v = col - sum of col[r] * u_r over col's unit rows r; row r
        # itself cancels, so it is never written
        v: dict[int, int] = {}
        for r, w in col.items():
            u = units.get(r)
            if u is None:
                v[r] = v.get(r, 0) + w
            else:
                for k, x in u.items():
                    if k != r:
                        v[k] = v.get(k, 0) - w * x
        # most columns leave nothing; they skip the filter and the cascade,
        # but not the exit test, which stop_rank == 0 passes at once
        cleared = not any(v.values())
        if not cleared:
            v = {r: w for r, w in v.items() if w}
            while v:
                r = max(v)
                b = basis.get(r)
                if b is None:
                    if v[r] < 0:
                        v = {k: -w for k, w in v.items()}
                    enter(r, v)
                    break
                # b's pivot is not 1: v holds no unit row
                a, c = b[r], v[r]
                if c % a == 0:
                    _sub_scaled(v, b, c // a)
                else:
                    g, x, y = _ext_gcd(a, c)
                    enter(r, _combine(x, b, y, v))
                    v = _combine(a // g, v, -(c // g), b)
                    v.pop(r, None)
        if len(units) == stop_rank == len(basis):
            break
    return basis


def column_rank(M: IntMatrix) -> int:
    """Rank of M over the rationals (= rank of its column span over Z)."""
    return len(_reduce_columns(M.cols))


def _invariant_chain(values: Iterable[int]) -> list[int]:
    """Normalize a multiset of cyclic orders into an invariant-factor chain.

    diag(a, b) is equivalent to diag(gcd, lcm), so pairwise fixes converge
    to the unique chain with d1 | d2 | ... Entries equal to 1 divide
    everything, so they are set aside before the quadratic pass and put
    back in front; the chain length matches the diagonal rank.
    """
    vals = sorted(abs(v) for v in values)
    if any(v == 0 for v in vals):
        raise ValueError("zero is not a cyclic order")
    ones = [v for v in vals if v == 1]
    vals = [v for v in vals if v != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if b % a:
                    g = gcd(a, b)
                    vals[i], vals[j] = g, a * b // g
                    changed = True
        vals.sort()
    return ones + vals


class _SparseSmith:
    """Smith diagonal of a small sparse matrix: a unit peel, then a dense
    finisher on what the peel leaves. Transforms are not accumulated, and
    _invariant_chain puts the diagonal in divisibility order.

    On the echelon bases _reduce_columns builds for chain complexes,
    whose unit pivots are cleared from every other vector, the peel
    leaves little: at most 3 columns by 6 rows on the complexes of the
    test suite and the benchmark's workloads, and 3 columns by 32 rows for
    the group homology of Q8, D4 and C4 x C2 through degree 4 (with unit
    pivots left unreduced: 15 by 22, and 37 by 266). A remainder that
    small needs no fill-reducing sparse pivoting. The suite's random
    matrices with many non-unit entries leave up to 26 columns.
    """

    def __init__(self, columns: Iterable[Mapping[int, int]]):
        self.cols: dict[int, dict[int, int]] = {}
        self.row_occ: dict[int, set[int]] = {}
        for j, col in enumerate(columns):
            c = {r: v for r, v in col.items() if v}
            if c:
                self.cols[j] = c
                for r in c:
                    self.row_occ.setdefault(r, set()).add(j)

    def _peel_units(self) -> int:
        """Delete every column whose +-1 entry is alone in its row; return
        how many were deleted.

        Row ops with such a row clear the rest of its column and touch no
        other column, so the entry is a 1 on the diagonal and the column
        can go. Deleting it can leave another row with one entry, so a
        stack carries the peel on: an echelon basis whose pivots are all
        units peels away completely, in time linear in its entries.
        """
        peeled = 0
        stack = [r for r, occ in self.row_occ.items() if len(occ) == 1]
        while stack:
            r = stack.pop()
            occ = self.row_occ.get(r)
            if occ is None or len(occ) != 1:
                continue
            (j,) = occ
            col = self.cols[j]
            if col[r] not in (1, -1):
                continue
            del self.cols[j]
            for r2 in col:
                occ2 = self.row_occ[r2]
                occ2.discard(j)
                if not occ2:
                    del self.row_occ[r2]
                elif len(occ2) == 1:
                    stack.append(r2)
            peeled += 1
        return peeled

    def diagonal(self) -> list[int]:
        """The peeled 1s, then the dense finisher's pivots. An entry of least
        absolute value goes to the corner and clears its column and row by
        floor division; any remainder is smaller still, so picking again
        ends, and a corner with nothing left beside it is a diagonal entry."""
        diag = [1] * self._peel_units()
        index = {r: i for i, r in enumerate(self.row_occ)}
        m = [[0] * len(self.cols) for _ in index]
        for j, col in enumerate(self.cols.values()):
            for r, v in col.items():
                m[index[r]][j] = v
        while any(map(any, m)):
            _, i, j = min(
                (abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v
            )
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


def smith_normal_form(M: IntMatrix, stop_rank: Optional[int] = None) -> tuple[list[int], int]:
    """Invariant factors of M (nonzero Smith diagonal, in divisibility order).

    Returns (factors, rank) where rank == len(factors). The unimodular
    transforms are not computed. stop_rank is passed to _reduce_columns;
    it is sound only when the column span of M lies in a saturated
    lattice of that rank.

    M may be a ColumnStream (ColumnStream.reduce). Its columns go into the
    reduction unchecked; the basis the reduction returns is checked for
    d*d = 0 in their stead, and the columns the reduction leaves unread
    are still drawn and checked one by one, so every column of the stream
    has been checked before this returns.
    """
    if isinstance(M, ColumnStream):
        basis = M.reduce(stop_rank)
    else:
        basis = _reduce_columns(M.cols, stop_rank)
    if not basis:
        return [], 0
    diag = _SparseSmith(basis.values()).diagonal()
    factors = _invariant_chain(diag)
    return factors, len(factors)


@dataclass(frozen=True)
class FgAbelianGroup:
    """A finitely generated abelian group: Z^free_rank + Z/d1 + Z/d2 + ...

    The torsion coefficients form a divisibility chain d1 | d2 | ... with
    every di >= 2.
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"invalid torsion coefficient {d}")
            if prev is not None and d % prev:
                raise ValueError(f"torsion {self.torsion} is not a divisibility chain")
            prev = d

    @classmethod
    def from_parts(cls, free_rank: int, torsion: Iterable[int]) -> "FgAbelianGroup":
        chain = [d for d in _invariant_chain(torsion) if d > 1]
        return cls(free_rank, tuple(chain))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        return FgAbelianGroup.from_parts(
            self.free_rank + other.free_rank, self.torsion + other.torsion
        )

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"


def tensor_fg(A: FgAbelianGroup, B: FgAbelianGroup) -> FgAbelianGroup:
    """Tensor product over Z, expanded bilinearly over the decompositions."""
    rank = A.free_rank * B.free_rank
    torsion: list[int] = []
    torsion.extend(d for d in A.torsion for _ in range(B.free_rank))
    torsion.extend(e for e in B.torsion for _ in range(A.free_rank))
    torsion.extend(gcd(d, e) for d in A.torsion for e in B.torsion)
    return FgAbelianGroup.from_parts(rank, (t for t in torsion if t > 1))


def tor_fg(A: FgAbelianGroup, B: FgAbelianGroup) -> FgAbelianGroup:
    """Tor_1 over Z. Free parts are flat and contribute nothing."""
    torsion = (gcd(d, e) for d in A.torsion for e in B.torsion)
    return FgAbelianGroup.from_parts(0, (t for t in torsion if t > 1))


def homology_between(d_k: IntMatrix, d_k_plus_1: IntMatrix, check: bool = True) -> FgAbelianGroup:
    """Homology ker(d_k) / im(d_k_plus_1) at the middle of two boundary maps.

    d_k has the chain group in its columns; d_k_plus_1 maps into it. The
    kernel of d_k is a pure submodule of Z^n containing the image, so the
    torsion of the quotient is read off the Smith form of d_k_plus_1 alone.

    The columns of d_k_plus_1 are read only until they span a saturated
    lattice of rank dim ker d_k: that lattice is all of ker d_k, so H_k is
    0 and the rest cannot change it. This needs d_k * d_k_plus_1 = 0, which
    check=True verifies and a caller passing check=False has verified.

    d_k_plus_1 may be a ColumnStream over d_k, whose columns are computed
    as the reduction reads them. smith_normal_form checks d_k * b = 0 on
    each vector b of the basis the reduction returns, which spans exactly
    the lattice of the columns read, and draws and checks one by one the
    columns the reduction leaves unread, so d*d has been checked on every
    column by the time a group is returned, and check=True does not read
    the stream a second time. The early exit keeps the argument above
    unchanged: the unread columns lie in ker d_k (each one is checked),
    and the columns read already span all of it (their span is checked).
    """
    n = d_k.ncols
    if d_k_plus_1.nrows != n:
        raise InvalidComplexError(
            f"boundary dimensions do not compose: {d_k.nrows}x{d_k.ncols} "
            f"after {d_k_plus_1.nrows}x{d_k_plus_1.ncols}"
        )
    checks_itself = isinstance(d_k_plus_1, ColumnStream) and d_k_plus_1.below is d_k
    if check and not checks_itself and not d_k.mul(d_k_plus_1).is_zero():
        raise InvalidComplexError("composite of consecutive boundaries is nonzero")
    rank_out = column_rank(d_k)
    factors, rank_in = smith_normal_form(d_k_plus_1, n - rank_out)
    free = n - rank_out - rank_in
    if free < 0:
        raise InvalidComplexError("negative free rank; input is not a complex")
    return FgAbelianGroup.from_parts(free, (f for f in factors if f > 1))
