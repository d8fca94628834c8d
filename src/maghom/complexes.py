"""Chain complexes over Z with named bases.

Single complexes, double complexes, complexes graded by exact rational
lengths, total complexes, tensor products, and homology extraction.

Every complex records the degree through which its homology is faithful;
requests past that bound raise TruncationError instead of silently
returning groups computed from incomplete data. A complex that is
genuinely zero above its top degree (unit_complex, and a tensor of such
complexes) is complete: its faithful_degree is math.inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Optional

from .errors import InvalidComplexError, TruncationError, ValidationError
from .exact_linalg import CodedLabels, ColumnStream, FgAbelianGroup, IntMatrix, homology_between

Label = Hashable


@dataclass(frozen=True)
class BasedChainComplex:
    """Free chain complex on degrees 0..max_degree with named generators.

    boundary[k] maps degree k to degree k-1; boundary[0] is the zero map
    out of degree 0 (a matrix with no rows). The top boundary may be a
    ColumnStream, whose columns are computed when read; its degree's basis
    is then a sized iterable that makes its labels when iterated.
    """

    basis: tuple[tuple[Label, ...], ...]
    boundary: tuple[IntMatrix, ...]
    faithful_degree: float  # an int, or math.inf when complete

    @property
    def max_degree(self) -> int:
        return len(self.basis) - 1

    def dim(self, k: int) -> int:
        return len(self.basis[k]) if 0 <= k <= self.max_degree else 0

    def boundary_or_zero(self, k: int) -> IntMatrix:
        if 1 <= k <= self.max_degree:
            return self.boundary[k]
        if k == 0:
            return self.boundary[0]
        return IntMatrix.zero(self.dim(k - 1), self.dim(k))


def validate_complex(C: BasedChainComplex) -> None:
    """Raise InvalidComplexError at the first failing degree.

    A top boundary may be a ColumnStream over the boundary below it. Its
    d*d is not checked here, but on every column when its homology is read
    (see homology_between). When the complex is the total complex of a
    double complex, d*d = 0 on each top column is the whole of the double
    complex's check on the top bidegrees: on a Tot column of bidegree
    (p, q), d*d has its h*h part in block (p - 2, q), its v*v part in
    (p, q - 2) and +-(hv - vh) in (p - 1, q - 1), disjoint row blocks, so
    d*d = 0 on the column is exactly the three equations there. That is
    why the tot route of maghom.iterated checks the double complex
    (validate_double_complex) only on the bidegrees it tabulates.
    """
    if len(C.boundary) != len(C.basis):
        raise InvalidComplexError("one boundary matrix required per degree")
    if C.boundary[0].nrows != 0 or C.boundary[0].ncols != len(C.basis[0]):
        raise InvalidComplexError("degree 0 must carry the zero map out")
    for k in range(1, len(C.basis)):
        d = C.boundary[k]
        if d.nrows != len(C.basis[k - 1]) or d.ncols != len(C.basis[k]):
            raise InvalidComplexError(
                f"boundary in degree {k} is {d.nrows}x{d.ncols}, expected "
                f"{len(C.basis[k - 1])}x{len(C.basis[k])}"
            )
        if isinstance(d, ColumnStream):
            if k != len(C.basis) - 1 or d.below is not C.boundary[k - 1]:
                raise InvalidComplexError(
                    f"degree {k} streams a boundary that is not the top one over the one below"
                )
        elif not C.boundary[k - 1].mul(d).is_zero():
            raise InvalidComplexError(f"d*d != 0 at degree {k}")


def make_chain_complex(
    basis: Iterable[Iterable[Label]],
    boundary: Iterable[IntMatrix],
    faithful_degree: float,
) -> BasedChainComplex:
    C = BasedChainComplex(
        tuple(tuple(b) for b in basis), tuple(boundary), faithful_degree
    )
    validate_complex(C)
    return C


def stream_top(C: BasedChainComplex, degree: int, nrows: int, ncols: int,
               columns: Callable[[], Iterable], labels: Callable[[], Iterable]
               ) -> BasedChainComplex:
    """C, tabulated through degree - 1, with degree on top: its boundary a
    ColumnStream of ncols columns over C's top boundary, columns() making
    them, and its basis decoded by labels() whenever it is read, so no
    table of the degree is built. C's top generators must be the nrows
    rows the columns index, in their order; only their number is checked.
    The result is faithful through degree - 1."""
    if C.max_degree != degree - 1:
        raise ValueError(f"expected a complex through degree {degree - 1}")
    if nrows != len(C.basis[-1]):
        raise ValueError(f"expected {nrows} generators in degree {degree - 1}, "
                         f"not {len(C.basis[-1])}")
    top = ColumnStream(C.boundary[-1], ncols, columns)
    return BasedChainComplex(C.basis + (CodedLabels(ncols, labels),),
                             C.boundary + (top,), degree - 1)


def _check_count(n: int, what: str) -> None:
    """Every entry point that takes a max_degree, and every instance
    builder that takes a size, refuses anything but a nonnegative int; a
    bool is refused, not read as 0 or 1."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValidationError(f"{what} {n!r} is not an integer")
    if n < 0:
        raise ValidationError(f"{what} must be nonnegative")


def _check_max_degree(max_degree: int) -> None:
    _check_count(max_degree, "max_degree")


def unit_complex() -> BasedChainComplex:
    """Z concentrated in degree 0."""
    return make_chain_complex([["*"]], [IntMatrix.zero(0, 1)], math.inf)


@dataclass(frozen=True)
class BasedDoubleComplex:
    """First-quadrant double complex with commuting differentials.

    Bidegrees live in the rectangle [0,P]x[0,Q], optionally cut to the
    triangle p + q <= total_bound. horizontal[(p,q)] maps to (p-1,q) and
    vertical[(p,q)] to (p,q-1). Rows and columns are chain complexes and
    the two differentials commute; the Koszul sign appears only in Tot.
    """

    P: int
    Q: int
    basis: Mapping[tuple[int, int], tuple[Label, ...]]
    horizontal: Mapping[tuple[int, int], IntMatrix]
    vertical: Mapping[tuple[int, int], IntMatrix]
    total_bound: Optional[int] = None

    def present(self, p: int, q: int) -> bool:
        if not (0 <= p <= self.P and 0 <= q <= self.Q):
            return False
        return self.total_bound is None or p + q <= self.total_bound

    def dim(self, p: int, q: int) -> int:
        return len(self.basis.get((p, q), ()))

    @property
    def total_exact_degree(self) -> int:
        """Largest n with every (p,q), p+q = n, inside the stored region."""
        if self.total_bound is not None:
            return self.total_bound
        return min(self.P, self.Q)


def validate_double_complex(B: BasedDoubleComplex) -> None:
    for (p, q) in B.basis:
        if not B.present(p, q):
            raise InvalidComplexError(f"basis stored outside the region at {(p, q)}")
    for (p, q), m in B.horizontal.items():
        if m.nrows != B.dim(p - 1, q) or m.ncols != B.dim(p, q):
            raise InvalidComplexError(f"horizontal dimensions wrong at {(p, q)}")
    for (p, q), m in B.vertical.items():
        if m.nrows != B.dim(p, q - 1) or m.ncols != B.dim(p, q):
            raise InvalidComplexError(f"vertical dimensions wrong at {(p, q)}")
    for (p, q) in B.basis:
        if p >= 2 and B.present(p - 2, q):
            if not B.horizontal[(p - 1, q)].mul(B.horizontal[(p, q)]).is_zero():
                raise InvalidComplexError(f"horizontal d*d != 0 at {(p, q)}")
        if q >= 2 and B.present(p, q - 2):
            if not B.vertical[(p, q - 1)].mul(B.vertical[(p, q)]).is_zero():
                raise InvalidComplexError(f"vertical d*d != 0 at {(p, q)}")
        if p >= 1 and q >= 1 and B.present(p - 1, q - 1):
            hv = B.horizontal[(p, q - 1)].mul(B.vertical[(p, q)])
            vh = B.vertical[(p - 1, q)].mul(B.horizontal[(p, q)])
            if hv != vh:
                raise InvalidComplexError(f"differentials do not commute at {(p, q)}")


def total_complex(B: BasedDoubleComplex) -> BasedChainComplex:
    """Collapse along antidiagonals: Tot_n = sum of B[p][q] with p + q = n.

    The differential on the (p,q) block is horizontal plus (-1)^p vertical.
    """
    N = B.total_exact_degree
    blocks: list[list[tuple[int, int]]] = []
    basis: list[tuple] = []
    offsets: dict[tuple[int, int], int] = {}
    for n in range(N + 1):
        degree_blocks = [(p, n - p) for p in range(n + 1) if B.present(p, n - p)]
        blocks.append(degree_blocks)
        labels: list = []
        for pq in degree_blocks:
            offsets[pq] = len(labels)
            labels.extend((pq[0], pq[1], lab) for lab in B.basis.get(pq, ()))
        basis.append(tuple(labels))

    boundary = [IntMatrix.zero(0, len(basis[0]))]
    for n in range(1, N + 1):
        cols: list[dict[int, int]] = []
        for (p, q) in blocks[n]:
            h = B.horizontal.get((p, q))
            v = B.vertical.get((p, q))
            sign = -1 if p % 2 else 1
            for j in range(B.dim(p, q)):
                col: dict[int, int] = {}
                if p >= 1 and h is not None:
                    base = offsets[(p - 1, q)]
                    for i, val in h.cols[j].items():
                        col[base + i] = val
                if q >= 1 and v is not None:
                    base = offsets[(p, q - 1)]
                    for i, val in v.cols[j].items():
                        nv = col.get(base + i, 0) + sign * val
                        if nv:
                            col[base + i] = nv
                        else:
                            col.pop(base + i, None)
                cols.append(col)
        boundary.append(IntMatrix.from_columns(len(basis[n - 1]), cols))
    return BasedChainComplex(tuple(basis), tuple(boundary), N - 1)


def _tensor_total(pairs: list) -> BasedChainComplex:
    """Tot of the tensor double complex of the factor pairs (prefix, C, D).

    Bidegree (j, k) holds, pair after pair, C_j x D_k, the generator c x d
    labeled (*prefix, c, d); the horizontal map is d_C x 1 and the vertical
    1 x d_D, their rows found by index arithmetic, and total_complex adds
    the Koszul sign. The result is faithful through the lesser faithful
    degree of the factors, and homology there reads nothing above the next
    degree, so no degree past it is built.
    """
    faithful = min(min(C.faithful_degree, D.faithful_degree) for _, C, D in pairs)
    top = min(max(C.max_degree + D.max_degree for _, C, D in pairs), max(faithful + 1, 0))
    basis, offsets, horizontal, vertical = {}, {}, {}, {}
    for j in range(top + 1):
        for k in range(top + 1 - j):
            labels, h, v = [], [], []
            offsets[(j, k)] = []
            for i, (prefix, C, D) in enumerate(pairs):
                offsets[(j, k)].append(len(labels))
                nc, nd = C.dim(j), D.dim(k)
                if not (nc and nd):
                    continue
                labels.extend((*prefix, c, d) for c in C.basis[j] for d in D.basis[k])
                if j:
                    row = offsets[(j - 1, k)][i]
                    h.extend({row + r * nd + b: x for r, x in col.items()}
                             for col in C.boundary[j].cols for b in range(nd))
                if k:
                    row, below = offsets[(j, k - 1)][i], D.dim(k - 1)
                    v.extend({row + a * below + r: x for r, x in col.items()}
                             for a in range(nc) for col in D.boundary[k].cols)
            basis[(j, k)] = tuple(labels)
            if j:
                horizontal[(j, k)] = IntMatrix.from_columns(len(basis[(j - 1, k)]), h)
            if k:
                vertical[(j, k)] = IntMatrix.from_columns(len(basis[(j, k - 1)]), v)
    B = BasedDoubleComplex(top, top, basis, horizontal, vertical, top)
    return replace(total_complex(B), faithful_degree=faithful)


def tensor_complex(C: BasedChainComplex, D: BasedChainComplex) -> BasedChainComplex:
    """Tensor product of chain complexes: Tot of their tensor double complex.

    d(c x d) = dc x d + (-1)^j c x dd for c in degree j. A generator is
    labeled (j, k, (c, d)) for c in C_j and d in D_k. The product is
    faithful through the lesser of the factors' faithful degrees, and is
    built through one degree past it.
    """
    return _tensor_total([((), C, D)])


def as_fraction(x) -> Fraction:
    """A Fraction, an int, or a string that parses as a rational, as a
    Fraction; every exact number of the package is read here. A float is
    refused, since it is not exact, and a bool is not read as 0 or 1."""
    if isinstance(x, (Fraction, int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"not an exact rational: {x!r}")


def grading_values(gradings: Iterable) -> list[Fraction]:
    """An explicit list of length gradings as sorted distinct Fractions.

    Every explicit grading list goes through here, and each grading through
    as_fraction, so anything that is not a finite nonnegative rational (a
    float, INF, NaN, a non-numeric string, a bool) is a ValidationError
    rather than an arithmetic error further in.
    """
    if not isinstance(gradings, Iterable):
        raise ValidationError(f"gradings {gradings!r} are not a list of rationals")
    wanted = set()
    for g in gradings:
        try:
            wanted.add(as_fraction(g))
        except ValidationError:
            raise ValidationError(f"grading {g!r} is not a finite rational") from None
    out = sorted(wanted)
    if out and out[0] < 0:
        raise ValidationError("gradings are nonnegative")
    return out


def resolve_gradings(gradings, named: Mapping[str, Callable[[], list]]) -> list[Fraction]:
    """An explicit list of gradings, through grading_values, or the list
    that named makes for a named request; any other name is refused."""
    if not isinstance(gradings, str):
        return grading_values(gradings)
    if gradings not in named:
        raise ValidationError(f"unknown grading request {gradings!r}")
    return named[gradings]()


@dataclass(frozen=True)
class GradedChainComplex:
    """A chain complex for each exact nonnegative rational grading.

    Absent gradings are the zero complex.
    """

    pieces: Mapping[Fraction, BasedChainComplex]

    def gradings(self) -> list[Fraction]:
        return sorted(self.pieces)

    def piece(self, ell) -> Optional[BasedChainComplex]:
        (ell,) = grading_values([ell])
        return self.pieces.get(ell)


def graded_tensor(C: GradedChainComplex, D: GradedChainComplex) -> GradedChainComplex:
    """Convolution tensor: grading l is Tot of one tensor double complex
    over all splittings r + s = l, taken in order of r. Bidegree (j, k)
    holds C^r_j x D^s_k for each splitting in turn, the generator c x d
    labeled (j, k, (r, s, c, d))."""
    splittings: dict[Fraction, list] = {}
    for r in sorted(C.pieces):
        for s in sorted(D.pieces):
            splittings.setdefault(r + s, []).append(((r, s), C.pieces[r], D.pieces[s]))
    return GradedChainComplex(
        {ell: _tensor_total(pairs) for ell, pairs in sorted(splittings.items())}
    )


class HomologyTable:
    """Map from (degree, optional length grading) to FgAbelianGroup.

    Missing keys read as the zero group; equality compares nonzero entries.
    """

    def __init__(self, entries: Mapping[tuple[int, Optional[Fraction]], FgAbelianGroup]):
        self._entries = dict(entries)

    def group(self, degree: int, grading=None) -> FgAbelianGroup:
        if grading is not None:
            (grading,) = grading_values([grading])
        return self._entries.get((degree, grading), FgAbelianGroup())

    def degrees(self) -> list[int]:
        return sorted({k for k, _ in self._entries})

    def gradings(self) -> list:
        gr = {g for _, g in self._entries}
        if gr <= {None}:
            return [None] if gr else []
        return sorted(g for g in gr if g is not None)

    def items(self):
        def key(item):
            (k, g), _ = item
            return (g is not None, g if g is not None else Fraction(0), k)

        return sorted(self._entries.items(), key=key)

    def nonzero(self) -> dict:
        return {k: v for k, v in self._entries.items() if not v.is_trivial}

    def __eq__(self, other) -> bool:
        return isinstance(other, HomologyTable) and self.nonzero() == other.nonzero()

    def __repr__(self) -> str:
        parts = []
        for (k, g), grp in self.items():
            name = f"H_{k}" if g is None else f"H_{k}^{g}"
            parts.append(f"{name}={grp}")
        return "HomologyTable(" + ", ".join(parts) + ")"


def _homology_groups(C: BasedChainComplex, max_degree: int) -> list[FgAbelianGroup]:
    """H_0..H_max_degree; the one place where d*d = 0 is checked before
    homology is read, so the builders of complexes do not check it. A
    streamed top boundary (the iterated routes' _CodedTop and
    metric_homology's _TupleCodes stream theirs) is checked as
    smith_normal_form reads it: the columns the reduction reads through
    the basis it returns, which spans exactly their lattice, and the
    columns drawn after its early exit one by one. The tabulated degrees
    below it are checked by matrix products (validate_complex)."""
    _check_max_degree(max_degree)
    if max_degree > C.faithful_degree:
        raise TruncationError(max_degree, C.faithful_degree)
    validate_complex(C)
    return [
        homology_between(C.boundary_or_zero(k), C.boundary_or_zero(k + 1), check=False)
        for k in range(max_degree + 1)
    ]


def homology_table(C: BasedChainComplex, max_degree: int) -> HomologyTable:
    """Homology in degrees 0..max_degree, honoring the faithfulness bound."""
    groups = _homology_groups(C, max_degree)
    return HomologyTable({(k, None): grp for k, grp in enumerate(groups)})


def graded_homology_table(G: GradedChainComplex, max_degree: int) -> HomologyTable:
    entries = {}
    for ell in G.gradings():
        for k, grp in enumerate(_homology_groups(G.pieces[ell], max_degree)):
            entries[(k, ell)] = grp
    return HomologyTable(entries)
