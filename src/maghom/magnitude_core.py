"""First-order magnitude nerves and complexes.

Categories get the simplicial object freely generated by their nerve.
Generalized metric spaces get the length-graded theory: a generator in
degree n is a tuple of points, its grading is the sum of its consecutive
distances, and faces drop a point exactly when it sits between its
neighbours. Tuples through an infinite distance are never generated.
Every tuple comes from one walk in integer codes, _enumerate_tuples, and
every metric nerve and complex decodes its bases from it.

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
streams degree D + 1 from the walk's codes (_TupleCodes), whose one face
rule also gives magnitude_complex_metric its columns; extend joins that
degree to the complex below (complexes.stream_top).
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
    homology_table,
    resolve_gradings,
    stream_top,
)
from .enriched_data import INF, FinCategory, GenMetricSpace, d_add
from .errors import ValidationError
from .exact_linalg import FgAbelianGroup, IntMatrix
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


class _TupleWalk:
    """What _enumerate_tuples lists, in integer codes, degree by degree.

    A tuple's code is its index in its degree. Degree n lists the children
    of each code of degree n - 1 in turn, one per finite step out of its
    last point (ends, dists), in point order, so every degree and every
    length bucket in it is in lexicographic point order, and the children
    of code c are first[n - 1][c] + k, k the rank of the step. Code c of
    degree n ends at points[last[n][c]], drops that point to parent[n][c]
    (degree 0 drops to the empty tuple, code 0), and has length[n][c], an
    int over the common denominator L. buckets[n] maps a length to its
    codes; pos[n][c] is the code's place in its bucket, its row or column
    in that grading's complex. Labels are decoded a whole degree at a time
    from the one below (labels).
    """

    def __init__(self, points: tuple, L: int, ends: list, dists: list):
        self.points, self.L, self.ends, self.dists = points, L, ends, dists
        self.last, self.parent, self.length, self.first = [], [], [], []
        self.buckets, self.pos, self._labels = [], [], []

    def labels(self, n: int) -> list:
        """The tuples of degree n, in code order."""
        labels, pts = self._labels, self.points
        while len(labels) <= n:
            m = len(labels)
            below = labels[m - 1] if m else [()]
            labels.append([below[s] + (pts[x],) for s, x in zip(self.parent[m], self.last[m])])
        return labels[n]

    def bucket(self, n: int, ell) -> tuple:
        """The tuples of degree n in grading ell, in code order."""
        return tuple(map(self.labels(n).__getitem__, self.buckets[n].get(ell * self.L, ())))

    def by_grading(self) -> dict:
        """{(degree, Fraction grading): [tuples]}, keys sorted."""
        return {(n, ell): list(self.bucket(n, ell)) for n, buckets in enumerate(self.buckets)
                for ell in [Fraction(k, self.L) for k in sorted(buckets)]}


def _enumerate_tuples(X: GenMetricSpace, max_degree: int, distinct: bool, *,
                      starts: Optional[Iterable] = None) -> _TupleWalk:
    """The one walk over the finite-length tuples of X through max_degree.

    distinct=True skips tuples with equal adjacent entries (the
    nondegenerate generators). Only the tuples that begin at one of the
    points in starts are listed; the default, None, starts at every point.
    """
    _check_max_degree(max_degree)
    if starts is not None:
        starts = set(starts)
        for a in starts - set(X.points):
            raise ValidationError(f"start {a!r} is not a point of the space")
    dist, L = _scaled_distances(X)
    pts = tuple(X.points)
    ends = [[j for j, p in enumerate(pts)
             if dist[x, p] is not None and not (distinct and p == x)] for x in pts]
    walk = _TupleWalk(pts, L, ends, [[dist[x, pts[p]] for p in e] for x, e in zip(pts, ends)])
    last = [i for i, p in enumerate(pts) if starts is None or p in starts]
    parent, length = [0] * len(last), [0] * len(last)
    for n in range(max_degree + 1):
        if n:
            last, parent, length, first = [], [], [], []
            for s, (x, used) in enumerate(zip(walk.last[-1], walk.length[-1])):
                first.append(len(last))
                last += ends[x]
                parent += [s] * len(ends[x])
                length += map(used.__add__, walk.dists[x])
            walk.first.append(first)
        pos, buckets = [], {}
        for c, used in enumerate(length):
            bucket = buckets.setdefault(used, [])
            pos.append(len(bucket))
            bucket.append(c)
        walk.last.append(last)
        walk.parent.append(parent)
        walk.length.append(length)
        walk.buckets.append(buckets)
        walk.pos.append(pos)
    return walk


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
    """The inner faces of the nondegenerate tuples of X through degree D
    that begin at the start points, on the codes of their walk (walk).

    One rule gives every column (_plans, _columns): faces 1..n-1 of
    t = s + (p,) are the faces of s with p appended, so each moves through
    the walk's child table from the column of s, and face n drops the last
    point of s when it lies between its neighbours, one lookup in the
    betweenness table (after). What a column reads from s is worked out
    once per s. The columns of degrees 1..D are tabulated (cols), in
    codes; degree D + 1 is streamed from them (extend) and never listed.
    """

    def __init__(self, X: GenMetricSpace, D: int, starts: Optional[Iterable] = None):
        w = self.walk = _enumerate_tuples(X, D, True, starts=starts)
        self.D = D
        self.rank = [{p: k for k, p in enumerate(ends)} for ends in w.ends]
        index = {p: i for i, p in enumerate(w.points)}
        # after[x][z]: the y with z strictly between x and y
        self.after = [{} for _ in w.points]
        for z, x, y in _betweenness(X):
            if z != x and z != y:
                assert x != y, "face produced equal neighbours"
                self.after[index[x]].setdefault(index[z], set()).add(index[y])
        self.cols = [[{}] * len(w.last[0])]
        for n in range(1, D + 1):
            codes = range(len(w.last[n - 1]))
            prefixes = zip(codes, map(w.ends.__getitem__, w.last[n - 1]))
            self.cols.append(list(self._columns(self._plans(n - 1), prefixes, codes)))

    def _plans(self, n: int) -> list:
        """What every column of a tuple s + (p,) reads from code s of degree
        n, for each s: (inner, rank_z, rank_x, after, base, sign). Face
        i < n of s + (p,) is the child at rank_z[p] of face i of s, whose
        first child is b in inner's pair (b, v); face n, when p is in
        after, is the child at rank_x[p] of s's parent, whose first child
        is base, with sign (-1)^n."""
        w, rank = self.walk, self.rank
        if n == 0:  # a tuple of two points has no inner face
            return [((), rank[z], None, (), 0, 1) for z in w.last[0]]
        first, above, after = w.first[n - 1], w.last[n - 1], self.after
        sign = -1 if n % 2 else 1
        return [(tuple([(first[r], v) for r, v in col.items()]), rank[z], rank[above[a]],
                 after[above[a]].get(z, ()), first[a], sign)
                for z, a, col in zip(w.last[n], w.parent[n], self.cols[n])]

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

    def boundary(self, n: int, ell) -> IntMatrix:
        """The boundary out of degree n, 1 <= n <= D, in grading ell."""
        w, k = self.walk, ell * self.walk.L
        pos, cols, codes = w.pos[n - 1], self.cols[n], w.buckets[n].get(k, ())
        return IntMatrix(len(w.buckets[n - 1].get(k, ())), len(codes),
                         tuple({pos[r]: v for r, v in cols[c].items()} for c in codes))

    @cached_property
    def _top_plans(self) -> list:
        return self._plans(self.D)

    @cached_property
    def _tops(self) -> dict:
        """grading (int over L) -> the prefixes (s, ps) of its tuples of
        degree D + 1, in level order: code s of degree D, then the points p
        of the steps out of its last point that reach the grading."""
        w = self.walk
        by_step = [{} for _ in w.points]
        for x, (ends, dists) in enumerate(zip(w.ends, w.dists)):
            for p, d in zip(ends, dists):
                by_step[x].setdefault(d, []).append(p)
        tops: dict[int, list] = {}
        for s, (x, used) in enumerate(zip(w.last[self.D], w.length[self.D])):
            for d, ps in by_step[x].items():
                tops.setdefault(used + d, []).append((s, ps))
        return tops

    def _top_labels(self, prefixes):
        """The tuples s + (p,) of prefixes, decoded from degree D's labels."""
        below, points = self.walk.labels(self.D), self.walk.points
        for s, ps in prefixes:
            for p in ps:
                yield below[s] + (points[p],)

    def extend(self, C: BasedChainComplex, ell) -> BasedChainComplex:
        """C, the complex of grading ell through degree D, with degree
        D + 1 streamed on top (complexes.stream_top). C's generators must
        be the ones these codes list, in their order."""
        w, k = self.walk, ell * self.walk.L
        prefixes = self._tops.get(k, ())
        return stream_top(C, self.D + 1, len(w.buckets[self.D].get(k, ())),
                          sum(len(ps) for _, ps in prefixes),
                          partial(self._columns, self._top_plans, prefixes, w.pos[self.D]),
                          partial(self._top_labels, prefixes))


def magnitude_complex_metric(
    X: GenMetricSpace, max_degree: int, gradings: GradingSpec = "all-reachable",
    *, starts: Optional[Iterable] = None,
) -> GradedChainComplex:
    """Normalized length-graded chain complex of a metric space.

    In each grading, degree n is spanned by tuples with distinct
    neighbours summing to that length; the differential only uses the
    inner faces (the outer ones change the grading and die). Two inner
    faces of a tuple with distinct neighbours never land on the same
    tuple, so each column entry is set once, never summed. The bases are
    decoded from the walk of one _TupleCodes and the columns come from its
    coded face rule, in the walk's order.

    With start points S, the complex is the direct summand, the sum of
    the blocks MC(a, .) over a in S, of the tuples that begin in S (inner
    faces keep the first point); the default, None, is the whole complex.
    """
    reachable = partial(reachable_gradings, X, max_degree)
    wanted = resolve_gradings(gradings, {"all-reachable": reachable})
    codes = _TupleCodes(X, max_degree, starts)
    pieces = {}
    for ell in wanted:
        basis = tuple(codes.walk.bucket(n, ell) for n in range(max_degree + 1))
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
    reachable = partial(reachable_gradings, X, max_degree)
    wanted = resolve_gradings(gradings, {"all-reachable": reachable})
    walk = _enumerate_tuples(X, max_degree, distinct=False)
    face = partial(_metric_face, _betweenness(X))
    out = {}
    for ell in wanted:
        basis = [walk.bucket(n, ell) for n in range(max_degree + 1)]
        out[ell] = assemble_simplicial(basis, face, _metric_degen)
    return out


def category_homology(X: FinCategory, max_degree: int) -> HomologyTable:
    """Homology of the normalized nerve chains through max_degree."""
    from .simplicial import normalized_chains

    _check_max_degree(max_degree)
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
    _check_max_degree(max_degree)
    reachable = partial(reachable_gradings, X, max_degree + 1)
    wanted = resolve_gradings(gradings, {"all-reachable": reachable})
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
