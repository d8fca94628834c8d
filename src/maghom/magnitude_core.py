"""First-order magnitude nerves and complexes.

Categories get the simplicial object freely generated by their nerve.
Generalized metric spaces get the length-graded theory: a generator in
degree n is a tuple of points, its grading is the sum of its consecutive
distances, and faces drop a point exactly when it sits between its
neighbours. Tuples through an infinite distance are never generated.

The differential of the normalized metric complex uses inner faces only,
so it never moves the start point x_0: each grading piece is the direct
sum over points a of the subcomplex MC(a, .) of tuples starting at a. An
isometry g of X keeps every length and every betweenness triple, so it
maps MC(a, .) onto MC(g a, .) as a chain isomorphism.
``metric_homology`` therefore builds and reduces only the blocks of one
representative per orbit of Isom(X) on the points, from the orbits
``point_orbits`` finds, and takes each one's homology |orbit| times.
Every complex built is still an exact chain complex whose d*d is checked
before its homology is read. Two points share an orbit only after a map
between them has been checked against the whole distance table; a
search that runs out of its step budget counts as failed, which only
splits an orbit and leaves the answer unchanged.

Homology through degree D reads the boundary out of degree D + 1, by far
the largest, and usually only part of it before the reduction's early
exit. So metric_homology tabulates each complex through degree D and
streams degree D + 1 from integer codes (_TupleCodes), whose one face
rule also gives magnitude_complex_metric its columns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Iterable, Optional, Union

from .complexes import (
    BasedChainComplex,
    GradedChainComplex,
    HomologyTable,
    _check_max_degree,
    graded_homology_table,
    grading_values,
    homology_table,
)
from .enriched_data import INF, FinCategory, GenMetricSpace, d_add
from .errors import ValidationError
from .exact_linalg import CodedLabels, ColumnStream, FgAbelianGroup, IntMatrix
from .simplicial import BasedSimplicialObject, assemble_simplicial

GradingSpec = Union[str, Iterable]

# candidate images the isometry search of one point_orbits call may try;
# past it every search counts as failed, so orbits only get finer
_ORBIT_BUDGET = 10**5


def nerve_category(X: FinCategory, max_degree: int) -> BasedSimplicialObject:
    """Simplicial object on composable tuples of morphisms.

    Degree 0 is the object set; degree n is all n-tuples (f1, ..., fn)
    with target(fi) = source(fi+1). Inner faces compose in diagram order,
    outer faces drop an end, degeneracies insert identities.
    """
    _check_max_degree(max_degree)
    D = max_degree
    basis: list[tuple] = [tuple(X.objects)]
    for n in range(1, D + 1):
        prev = basis[-1]
        if n == 1:
            basis.append(tuple((m,) for m in X.morphisms))
            continue
        new = []
        for tup in prev:
            last = tup[-1]
            for m in X.morphisms:
                if X.source[m] == X.target[last]:
                    new.append(tup + (m,))
        basis.append(tuple(new))

    def face(n, i, tup):
        if n == 1:
            return X.target[tup[0]] if i == 0 else X.source[tup[0]]
        if i == 0:
            return tup[1:]
        if i == n:
            return tup[:-1]
        return tup[: i - 1] + (X.compose[(tup[i], tup[i - 1])],) + tup[i + 1:]

    def degen(n, i, tup):
        if n == 0:
            return (X.identity[tup],)
        at = X.source[tup[i]] if i < n else X.target[tup[n - 1]]
        return tup[:i] + (X.identity[at],) + tup[i:]

    return assemble_simplicial(basis, face, degen)


def _scaled_distances(X: GenMetricSpace) -> tuple[dict, int]:
    """Every distance as an int over one common denominator L, with INF as
    None; returns (table, L)."""
    d = {(x, y): X.d(x, y) for x in X.points for y in X.points}
    L = lcm(*(v.denominator for v in d.values() if v is not INF))
    return {k: None if v is INF else int(v * L) for k, v in d.items()}, L


def _betweenness(X: GenMetricSpace) -> frozenset:
    """The triples (z, x, y) on which is_between holds: d(x, y) =
    d(x, z) + d(z, y), with infinity absorbing."""
    D, _ = _scaled_distances(X)
    pts = X.points
    out = set()
    for x in pts:
        for y in pts:
            dxy = D[x, y]
            for z in pts:
                a, b = D[x, z], D[z, y]
                if (None if a is None or b is None else a + b) == dxy:
                    out.add((z, x, y))
    return frozenset(out)


def _enumerate_tuples(X: GenMetricSpace, max_degree: int, distinct: bool, *,
                      starts: Optional[Iterable] = None):
    """All finite-length tuples, bucketed by (degree, grading).

    distinct=True skips tuples with equal adjacent entries (the
    nondegenerate generators). Lengths are summed as ints over the common
    denominator L of _scaled_distances; each bucket's Fraction grading is
    made once. Only the tuples that begin at one of the points in starts
    are listed; the default, None, starts at every point.

    Degree n is built from degree n - 1 by appending one step to each
    tuple. Degree 0 lists the points in order and each step list does too,
    so every degree, and every bucket in it, is in lexicographic point
    order. The keys are sorted by (degree, grading).
    """
    _check_max_degree(max_degree)
    if starts is not None:
        starts = set(starts)
        for a in starts - set(X.points):
            raise ValidationError(f"start {a!r} is not a point of the space")
    D, L = _scaled_distances(X)
    steps = {
        x: [(p, D[x, p]) for p in X.points
            if D[x, p] is not None and not (distinct and p == x)]
        for x in X.points
    }
    level = [((p,), 0) for p in X.points if starts is None or p in starts]
    buckets: dict[tuple[int, Fraction], list] = {}
    for n in range(max_degree + 1):
        if n:
            level = [(t + (p,), s + d) for t, s in level for p, d in steps[t[-1]]]
        by_length: dict[int, list] = {}
        for t, s in level:
            by_length.setdefault(s, []).append(t)
        for s in sorted(by_length):
            buckets[(n, Fraction(s, L))] = by_length[s]
    return buckets


def reachable_gradings(X: GenMetricSpace, max_degree: int) -> list[Fraction]:
    """Every grading realized by a nondegenerate tuple of length <= max_degree.

    A dynamic program over end points: reach[y] holds the integer lengths
    (over the common denominator L) of the tuples of the current degree
    that end at y, and each round extends them by one nondegenerate finite
    step. No tuple is built.
    """
    _check_max_degree(max_degree)
    D, L = _scaled_distances(X)
    preds = {y: [(x, D[x, y]) for x in X.points if x != y and D[x, y] is not None]
             for y in X.points}
    reach = {y: {0} for y in X.points}
    seen = set().union(*reach.values())
    for _ in range(max_degree):
        reach = {y: {s + d for x, d in preds[y] for s in reach[x]} for y in X.points}
        seen.update(*reach.values())
    return [Fraction(s, L) for s in sorted(seen)]


def _resolve_gradings(X, max_degree, gradings: GradingSpec) -> list[Fraction]:
    if isinstance(gradings, str):
        if gradings != "all-reachable":
            raise ValidationError(f"unknown grading request {gradings!r}")
        return reachable_gradings(X, max_degree)
    return grading_values(gradings)


def is_between(X: GenMetricSpace, z, x, y) -> bool:
    return X.d(x, y) == d_add(X.d(x, z), X.d(z, y))


def adjacency(X: GenMetricSpace, x, y):
    """A point strictly between x and y, or None when they are adjacent."""
    if x == y:
        raise ValidationError("adjacency needs two distinct points")
    for z in X.points:
        if z != x and z != y and is_between(X, z, x, y):
            return z
    return None


class _TupleCodes:
    """The nondegenerate tuples of X through degree D that begin at the
    start points, in integer codes, each with its inner faces.

    A tuple's code is its index in its degree, in the level order of
    _enumerate_tuples: degree n lists the children of each tuple of degree
    n - 1 in turn, one per finite step out of its last point, in point
    order. So the children of code c are the codes first[n][c] + k, k the
    rank of the step among the steps out of c's last point. Points are
    indices into X.points and lengths ints over the common denominator L;
    pos[n][c] is the tuple's position in its length bucket, which is its
    row or column in that grading's complex. A tuple is decoded only when
    its label is read.

    One rule gives every column (_plans, _columns): faces 1..n-1 of
    t = s + (p,) are the faces of s with p appended, so each moves through
    the child table from the column of s, and face n drops the last point
    of s when it lies between its neighbours, one lookup in the
    betweenness table. What a column reads from s is worked out once per
    s. The columns of degrees 1..D are tabulated (cols), in codes; degree
    D + 1 is streamed from them (extend) and never listed.
    """

    def __init__(self, X: GenMetricSpace, D: int, starts: Optional[Iterable] = None):
        dist, self.L = _scaled_distances(X)
        pts = self.points = tuple(X.points)
        self.D = D
        # the finite steps out of each point other than itself, in point order
        self.ends = [[j for j, p in enumerate(pts) if p != x and dist[x, p] is not None]
                     for x in pts]
        self.dists = [[dist[x, pts[p]] for p in ends] for x, ends in zip(pts, self.ends)]
        self.rank = [{p: k for k, p in enumerate(ends)} for ends in self.ends]
        index = {p: i for i, p in enumerate(pts)}
        # after[x][z]: the y with z strictly between x and y
        self.after = [{} for _ in pts]
        for z, x, y in _betweenness(X):
            if z != x and z != y:
                assert x != y, "face produced equal neighbours"
                self.after[index[x]].setdefault(index[z], set()).add(index[y])
        starts = None if starts is None else set(starts)
        self.last = [[i for i, p in enumerate(pts) if starts is None or p in starts]]
        self.length = [[0] * len(self.last[0])]
        self.parent, self.first, self.cols = [[]], [], [[{}] * len(self.last[0])]
        for n in range(1, D + 1):
            last, parent, length, first = [], [], [], []
            codes = range(len(self.last[n - 1]))
            for s, x, used in zip(codes, self.last[n - 1], self.length[n - 1]):
                first.append(len(last))
                last += self.ends[x]
                parent += [s] * len(self.ends[x])
                length += map(used.__add__, self.dists[x])
            prefixes = zip(codes, map(self.ends.__getitem__, self.last[n - 1]))
            self.cols.append(list(self._columns(self._plans(n - 1), prefixes, codes)))
            self.first.append(first)
            self.last.append(last)
            self.parent.append(parent)
            self.length.append(length)
        self.pos, self.buckets = [], []
        for length in self.length:
            pos, by_length = [], {}
            for c, used in enumerate(length):
                bucket = by_length.get(used)
                if bucket is None:
                    bucket = by_length[used] = []
                pos.append(len(bucket))
                bucket.append(c)
            self.pos.append(pos)
            self.buckets.append(by_length)

    def _plans(self, n: int) -> list:
        """What every column of a tuple s + (p,) reads from code s of degree
        n, for each s: (inner, rank_z, rank_x, after, base, sign). Face
        i < n of s + (p,) is the child at rank_z[p] of face i of s, whose
        first child is b in inner's pair (b, v); face n, when p is in
        after, is the child at rank_x[p] of s's parent, whose first child
        is base, with sign (-1)^n."""
        rank = self.rank
        if n == 0:  # a tuple of two points has no inner face
            return [((), rank[z], None, (), 0, 1) for z in self.last[0]]
        first, above, after = self.first[n - 1], self.last[n - 1], self.after
        sign = -1 if n % 2 else 1
        return [(tuple([(first[r], v) for r, v in col.items()]), rank[z], rank[above[a]],
                 after[above[a]].get(z, ()), first[a], sign)
                for z, a, col in zip(self.last[n], self.parent[n], self.cols[n])]

    @staticmethod
    def _columns(plans, prefixes, rows):
        """For each (s, ps) of prefixes and each p of ps, the column of
        s + (p,), {rows[face code]: sign}, its entries in face order; rows
        maps codes to themselves (a range) or to their bucket positions."""
        for s, ps in prefixes:
            inner, rank_z, rank_x, after, base, sign = plans[s]
            for p in ps:
                k = rank_z[p]
                col = {}
                for b, v in inner:
                    col[rows[b + k]] = v
                if p in after:
                    col[rows[base + rank_x[p]]] = sign
                yield col

    def label(self, n: int, c: int) -> tuple:
        """The tuple of points that code c of degree n stands for."""
        out = []
        for m in range(n, -1, -1):
            out.append(self.points[self.last[m][c]])
            if m:
                c = self.parent[m][c]
        return tuple(reversed(out))

    def boundary(self, n: int, ell) -> IntMatrix:
        """The boundary out of degree n, 1 <= n <= D, in grading ell."""
        k = ell * self.L
        pos, cols, codes = self.pos[n - 1], self.cols[n], self.buckets[n].get(k, ())
        return IntMatrix(len(self.buckets[n - 1].get(k, ())), len(codes),
                         tuple({pos[r]: v for r, v in cols[c].items()} for c in codes))

    @cached_property
    def _top_plans(self) -> list:
        return self._plans(self.D)

    @cached_property
    def _tops(self) -> dict:
        """grading (int over L) -> the prefixes (s, ps) of its tuples of
        degree D + 1, in level order: code s of degree D, then the points p
        of the steps out of its last point that reach the grading."""
        by_step = [{} for _ in self.points]
        for x, (ends, dists) in enumerate(zip(self.ends, self.dists)):
            for p, d in zip(ends, dists):
                by_step[x].setdefault(d, []).append(p)
        tops: dict[int, list] = {}
        for s, (x, used) in enumerate(zip(self.last[self.D], self.length[self.D])):
            for d, ps in by_step[x].items():
                tops.setdefault(used + d, []).append((s, ps))
        return tops

    def _top_codes(self, prefixes):
        for s, ps in prefixes:
            for p in ps:
                yield s, p

    def _top_label(self, code) -> tuple:
        s, p = code
        return self.label(self.D, s) + (self.points[p],)

    def extend(self, C: BasedChainComplex, ell) -> BasedChainComplex:
        """C, the complex of grading ell through degree D, with degree D + 1
        on top: its labels are decoded whenever they are read, and its
        boundary is a ColumnStream over C's top boundary, so no table of
        degree D + 1 is built. C's generators must be the ones these codes
        list, in their order; only their number in degree D is checked."""
        if len(C.basis) != self.D + 1:
            raise ValueError(f"expected a complex through degree {self.D}")
        k = ell * self.L
        count = len(self.buckets[self.D].get(k, ()))
        if count != len(C.basis[-1]):
            raise ValueError(f"expected {count} generators in degree {self.D}, "
                             f"not {len(C.basis[-1])}")
        prefixes = self._tops.get(k, ())
        top = ColumnStream(C.boundary[-1], sum(len(ps) for _, ps in prefixes),
                           partial(self._columns, self._top_plans, prefixes, self.pos[self.D]))
        labels = CodedLabels(top.ncols, partial(self._top_codes, prefixes), self._top_label)
        return BasedChainComplex(C.basis + (labels,), C.boundary + (top,), self.D)


def magnitude_complex_metric(
    X: GenMetricSpace, max_degree: int, gradings: GradingSpec = "all-reachable",
    *, starts: Optional[Iterable] = None,
) -> GradedChainComplex:
    """Normalized length-graded chain complex of a metric space.

    In each grading, degree n is spanned by tuples with distinct
    neighbours summing to that length; the differential only uses the
    inner faces (the outer ones change the grading and die). Two inner
    faces of a tuple with distinct neighbours never land on the same
    tuple, so each column entry is set once, never summed. The columns
    come from the coded rule of _TupleCodes, in the order of the tuples
    _enumerate_tuples lists.

    With start points S, the complex is the direct summand, the sum of
    the blocks MC(a, .) over a in S, of the tuples that begin in S (inner
    faces keep the first point); the default, None, is the whole complex.
    """
    wanted = _resolve_gradings(X, max_degree, gradings)
    buckets = _enumerate_tuples(X, max_degree, distinct=True, starts=starts)
    codes = _TupleCodes(X, max_degree, starts)
    pieces = {}
    for ell in wanted:
        basis = tuple(tuple(buckets.get((n, ell), ())) for n in range(max_degree + 1))
        boundary = (IntMatrix.zero(0, len(basis[0])),) + tuple(
            codes.boundary(n, ell) for n in range(1, max_degree + 1))
        pieces[ell] = BasedChainComplex(basis, boundary, max_degree - 1)
    return GradedChainComplex(pieces)


def _metric_face(between: frozenset, n: int, i: int, tup: tuple):
    """Face i of a degree-n tuple in the unnormalized metric nerve: an end
    point drops when its step has length 0, an inner point when it lies
    between its neighbours (a triple of _betweenness); None otherwise."""
    if i == 0:
        return tup[1:] if tup[0] == tup[1] else None
    if i == n:
        return tup[:-1] if tup[n - 1] == tup[n] else None
    if (tup[i], tup[i - 1], tup[i + 1]) in between:
        return tup[:i] + tup[i + 1:]
    return None


def _metric_degen(n: int, i: int, tup: tuple) -> tuple:
    """Degeneracy i repeats point i."""
    return tup[: i + 1] + tup[i:]


def metric_nerve(
    X: GenMetricSpace, max_degree: int, gradings: GradingSpec = "all-reachable"
) -> dict[Fraction, BasedSimplicialObject]:
    """Unnormalized graded nerve: one simplicial object per grading.

    Degree n of the slice at l is spanned by all tuples (repeats allowed)
    of total length l. Outer faces drop an end point when the adjacent
    step has length 0; inner faces test betweenness; degeneracies repeat
    a point.
    """
    wanted = _resolve_gradings(X, max_degree, gradings)
    buckets = _enumerate_tuples(X, max_degree, distinct=False)
    face = partial(_metric_face, _betweenness(X))
    out = {}
    for ell in wanted:
        basis = [tuple(buckets.get((n, ell), ())) for n in range(max_degree + 1)]
        out[ell] = assemble_simplicial(basis, face, _metric_degen)
    return out


def category_homology(X: FinCategory, max_degree: int) -> HomologyTable:
    """Homology of the normalized nerve chains through max_degree."""
    from .simplicial import normalized_chains

    S = nerve_category(X, max_degree + 1)
    return homology_table(normalized_chains(S), max_degree)


def _find_isometry(D: dict, pts: tuple, sig: dict, a, b, budget: list) -> Optional[dict]:
    """A bijection g of pts with g(a) = b under which every distance of D
    agrees, in both directions, with the distances among the points already
    mapped; None when there is none or budget[0] runs out first.

    Backtracking over point images in point order. A point only maps to a
    point with the same signature (sorted row and column of D), and each
    image tried costs one step of the budget.
    """
    rest = [x for x in pts if x != a]
    g = {a: b}
    used = {b}
    tries = [iter(pts)]
    while len(g) <= len(rest):
        x = rest[len(g) - 1]
        for y in tries[-1]:
            if y in used or sig[y] != sig[x]:
                continue
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            if all(D[x, u] == D[y, v] and D[u, x] == D[v, y] for u, v in g.items()):
                g[x] = y
                used.add(y)
                tries.append(iter(pts))
                break
        else:
            tries.pop()
            if len(g) == 1:
                return None
            used.discard(g.pop(rest[len(g) - 2]))
    return g


def _is_isometry(D: dict, pts: tuple, g: dict) -> bool:
    """g is a permutation of pts that keeps the whole distance table."""
    return (set(g) == set(pts) == set(g.values())
            and all(D[x, y] == D[g[x], g[y]] for x in pts for y in pts))


def point_orbits(X: GenMetricSpace) -> list[tuple]:
    """Classes of points that isometries of X carry onto each other.

    Each class is listed from its representative, the first of its points
    in X.points, then in point order. A point joins a class only through
    an isometry that _is_isometry has checked against the whole table of
    _scaled_distances. The searches of one call share _ORBIT_BUDGET steps;
    when they run out, the remaining points stay in their own classes, so
    the classes are the orbits of Isom(X) or a refinement of them.
    """
    D, _ = _scaled_distances(X)
    pts = tuple(X.points)

    def line(values):
        return tuple(sorted(-1 if v is None else v for v in values))

    sig = {x: (line(D[x, y] for y in pts), line(D[y, x] for y in pts)) for x in pts}
    budget = [_ORBIT_BUDGET]
    placed: set = set()
    orbits = []
    for a in pts:
        if a in placed:
            continue
        placed.add(a)
        orbit = [a]
        for b in pts:
            if b in placed or sig[b] != sig[a]:
                continue
            g = _find_isometry(D, pts, sig, a, b, budget)
            if g is not None and _is_isometry(D, pts, g):
                orbit.append(b)
                placed.add(b)
        orbits.append(tuple(orbit))
    return orbits


def metric_homology(
    X: GenMetricSpace, max_degree: int, gradings: GradingSpec = "all-reachable"
) -> HomologyTable:
    """Magnitude homology of X in degrees 0..max_degree, one row per
    (degree, wanted grading), zero rows included.

    Inner faces keep the start point, so each grading's complex is the
    direct sum of the blocks MC(a, .), and an isometry carries MC(a, .)
    isomorphically onto MC(g a, .). Every point of a class of point_orbits
    is joined to the class's representative by a checked isometry, so the
    class contributes |class| copies of the homology of the
    representative's block. The representatives of the classes of one
    size k are built and reduced together, as one complex with those
    start points, whose homology counts k times; with no isometry besides
    the identity that is the whole complex, as before the split. The
    wanted gradings are resolved once on the whole space, so every complex
    has a piece for each.

    Each complex is tabulated through max_degree by
    magnitude_complex_metric, and degree max_degree + 1 goes on top as a
    ColumnStream from the codes of _TupleCodes, so no table, IntMatrix or
    product is built for it. d*d is checked once per complex when its
    homology is read: on the tabulated degrees by matrix products, and on
    the streamed top column by column, the columns the reduction reads
    through the basis it returns and the rest as they are drawn after its
    early exit (see exact_linalg.ColumnStream.reduce).
    """
    wanted = _resolve_gradings(X, max_degree + 1, gradings)
    _check_max_degree(max_degree)
    reps_by_size: dict[int, list] = {}
    for orbit in point_orbits(X):
        reps_by_size.setdefault(len(orbit), []).append(orbit[0])
    table: dict = {}
    for size, reps in reps_by_size.items():
        G = magnitude_complex_metric(X, max_degree, wanted, starts=reps)
        codes = _TupleCodes(X, max_degree, reps)
        G = GradedChainComplex({ell: codes.extend(C, ell) for ell, C in G.pieces.items()})
        for key, grp in graded_homology_table(G, max_degree).items():
            if size > 1:
                grp = FgAbelianGroup.from_parts(size * grp.free_rank, grp.torsion * size)
            table[key] = table[key].direct_sum(grp) if key in table else grp
    # the empty space has no orbit and still gets its zero rows
    for ell in wanted:
        for k in range(max_degree + 1):
            table.setdefault((k, ell), FgAbelianGroup())
    return HomologyTable(table)
