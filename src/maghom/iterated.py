"""Double and iterated magnitude nerves.

A second-order enrichment hands every hom a simplicial object of its own;
the nerve construction then runs again on top, producing a bisimplicial
object. Its homology can be reached two ways: restrict to the diagonal
and take chains, or take the total complex of the double chains. The two
routes agree, and the test suite leans on that agreement hard.

Horizontal structure composes along the outer tuple (1-cells), vertical
structure runs inside each hom (2-cells). Groups with a conjugation-
invariant norm get a grading-by-grading version: one object whose hom is
the metric nerve of the group, every leg of integer length, and a face
zero unless it preserves total length. That hom's columns are the tuples
magnitude_core._enumerate_tuples lists for the group's metric, and its
reachable gradings are the metric's reachable_gradings. Both kinds share
one route body, _route_chains. Every builder here supplies only
its generators and generator-level faces and degeneracies;
simplicial.assemble_simplicial and assemble_bisimplicial tabulate them.
The diagonal builders skip the bisimplicial maps: _diagonal_maps fuses
each diagonal face into one pass over the legs, with every inner merge
composed once per builder call.

Homology through degree D - 1 reads the diagonal's boundary out of degree
D, by far its largest, and usually only part of it before the column
reduction's early exit. So iterated_homology and normed_group_homology
tabulate the diagonal only through D - 1 and never build degree D: its
boundary is streamed from integer codes of its generators (_CodedTop, a
second copy of _diagonal_maps' face for that degree alone), one column
at a time, each checked for d*d = 0 as it is emitted
(exact_linalg.ColumnStream), read by the reduction until it stops, then
drawn and checked to the end. iterated_complex, mb_n and the nerve
builders stay fully tabulated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from typing import Optional, Union

from .complexes import (
    BasedChainComplex,
    HomologyTable,
    _check_max_degree,
    homology_table,
    total_complex,
)
from .enriched_data import (
    CatGroup,
    Explicit2Cat,
    NCatSuspension,
    NormedGroup,
    StrictNCat,
    as_category,
    metric_of_normed_group,
    two_cat_of_cat_group,
)
from .errors import ValidationError
from .exact_linalg import ColumnStream
from .magnitude_core import (
    _betweenness,
    _enumerate_tuples,
    _metric_degen,
    _metric_face,
    _scaled_distances,
    grading_values,
    nerve_category,
    reachable_gradings,
)
from .simplicial import (
    BasedBisimplicialObject,
    BasedSimplicialObject,
    assemble_bisimplicial,
    assemble_simplicial,
    double_chains,
    row_normalize,
    unnormalized_chains,
)


class _UnitLeg:
    __slots__ = ()

    def __repr__(self):
        return "UNIT"


UNIT = _UnitLeg()


class _HomNerves:
    """What the double nerve needs from a 2nd-order enrichment: the objects,
    a table homs[(x, y)] of hom simplicial objects (a missing pair is an
    empty hom), and composition and identities on their generators.

    lengths maps a leg to its integer length; a leg it omits has length 0.
    Each hom basis lists its legs by nondecreasing length. A path's
    grading is the sum of its legs' lengths, and a face that changes it
    is zero.
    """

    objects: tuple
    homs: dict
    lengths: dict = {}

    def compose(self, x, y, z, q, gen_xy, gen_yz):
        raise NotImplementedError

    def identity_gen(self, x, q):
        raise NotImplementedError


class _TwoCatNerves(_HomNerves):
    def __init__(self, X: Explicit2Cat, max_q: int):
        self.X = X
        self.objects = tuple(X.objects)
        self.homs = {
            (x, y): nerve_category(X.hom[(x, y)], max_q)
            for x in X.objects
            for y in X.objects
        }

    def compose(self, x, y, z, q, a, b):
        if q == 0:
            return self.X.compose_obj[(x, y, z)][(a, b)]
        cm = self.X.compose_mor[(x, y, z)]
        return tuple(cm[(p1, p2)] for p1, p2 in zip(a, b))

    def identity_gen(self, x, q):
        one = self.X.id_onecell[x]
        if q == 0:
            return one
        return (self.X.hom[(x, x)].identity[one],) * q


class _SuspensionNerves(_HomNerves):
    """hom(A, B) is a given simplicial object, hom(B, A) is empty, and the
    endo-homs are the unit; composition against the unit is absorption."""

    def __init__(self, inner: BasedSimplicialObject):
        unit = assemble_simplicial(
            [(UNIT,)] * (inner.max_degree + 1), lambda n, i, x: UNIT, lambda n, i, x: UNIT
        )
        self.objects = ("A", "B")
        self.homs = {("A", "A"): unit, ("A", "B"): inner, ("B", "B"): unit}

    def compose(self, x, y, z, q, a, b):
        if a is UNIT:
            return b
        if b is UNIT:
            return a
        raise AssertionError("no composable pair through the empty hom")

    def identity_gen(self, x, q):
        return UNIT


def _tuple_generators(H: _HomNerves, p: int, q: int, ell=0):
    """Generators at bidegree (p, q) in grading ell: object paths with a
    leg in each hom whose lengths sum to ell."""
    if p == 0:
        return tuple(((x,), ()) for x in H.objects) if ell == 0 else ()
    out: list = []
    for x in H.objects:
        _extend_paths(H, p, q, (x,), (), ell, out)
    return tuple(out)


def _extend_paths(H: _HomNerves, p: int, q: int, xs: tuple, legs: tuple,
                  budget: int, out: list) -> None:
    """Append to out every way of extending the path (xs, legs) to p legs
    of degree q whose lengths add up to budget. A module-level function
    rather than a recursive closure, whose reference cycle would keep out
    and H alive until the next cyclic garbage collection."""
    if len(legs) == p:
        if budget == 0:
            out.append((xs, legs))
        return
    lengths = H.lengths
    x = xs[-1]
    for y in H.objects:
        S = H.homs.get((x, y))
        for leg in () if S is None else S.basis[q]:
            n = lengths.get(leg, 0) if lengths else 0
            if n > budget:
                break
            _extend_paths(H, p, q, xs + (y,), legs + (leg,), budget - n, out)


def _h_face_gen(H: _HomNerves, p: int, q: int, i: int, gen):
    xs, legs = gen
    lengths = H.lengths
    if i == 0:
        return None if lengths and lengths.get(legs[0], 0) else (xs[1:], legs[1:])
    if i == p:
        return None if lengths and lengths.get(legs[-1], 0) else (xs[:-1], legs[:-1])
    merged = H.compose(xs[i - 1], xs[i], xs[i + 1], q, legs[i - 1], legs[i])
    if merged is None:
        return None
    return (xs[:i] + xs[i + 1:], legs[: i - 1] + (merged,) + legs[i + 1:])


def _v_face_gen(H: _HomNerves, p: int, q: int, j: int, gen):
    xs, legs = gen
    new = []
    for idx, leg in enumerate(legs):
        y = H.homs[xs[idx], xs[idx + 1]].face[q][j].get(leg)
        if y is None:
            return None
        new.append(y)
    return (xs, tuple(new))


def _h_degen_gen(H: _HomNerves, p: int, q: int, i: int, gen):
    xs, legs = gen
    ident = H.identity_gen(xs[i], q)
    return (xs[: i + 1] + xs[i:], legs[:i] + (ident,) + legs[i:])


def _v_degen_gen(H: _HomNerves, p: int, q: int, j: int, gen):
    xs, legs = gen
    return (xs, tuple(H.homs[xs[idx], xs[idx + 1]].degeneracy[q][j][leg]
                      for idx, leg in enumerate(legs)))


def _generator_maps(H: _HomNerves) -> tuple:
    """h-face, v-face, h-degeneracy and v-degeneracy of the double nerve."""
    return tuple(partial(f, H) for f in (_h_face_gen, _v_face_gen, _h_degen_gen, _v_degen_gen))


def _double_nerve(H: _HomNerves, P: int, Q: int,
                  total_bound: Optional[int] = None) -> BasedBisimplicialObject:
    return assemble_bisimplicial(
        P, Q, total_bound, partial(_tuple_generators, H), *_generator_maps(H)
    )


def _diagonal_maps(H: _HomNerves) -> tuple:
    """Face and degeneracy of the diagonal of H's double nerve.

    Face i in degree n is v-face i out of (n, n) followed by h-face i out
    of (n, n - 1), fused: every leg's v-face is read from one table per
    (n, i), and an inner merge is composed once per distinct (x, y, z, q,
    a, b) for the life of the returned maps. The degeneracy is the plain
    composite of the generator-level ones.
    """
    lengths = H.lengths
    v_faces = {}
    merges = {}

    def face(n, i, gen):
        xs, legs = gen
        try:
            table = v_faces[n, i]
        except KeyError:
            table = v_faces[n, i] = {xy: S.face[n][i] for xy, S in H.homs.items()}
        new = []
        for idx, leg in enumerate(legs):
            y = table[xs[idx], xs[idx + 1]].get(leg)
            if y is None:
                return None
            new.append(y)
        if i == 0:
            return None if lengths and lengths.get(new[0], 0) else (xs[1:], tuple(new[1:]))
        if i == n:
            return None if lengths and lengths.get(new[-1], 0) else (xs[:-1], tuple(new[:-1]))
        key = (xs[i - 1], xs[i], xs[i + 1], n - 1, new[i - 1], new[i])
        try:
            merged = merges[key]
        except KeyError:
            merged = merges[key] = H.compose(*key)
        if merged is None:
            return None
        new[i - 1 : i + 1] = (merged,)
        return (xs[:i] + xs[i + 1:], tuple(new))

    def degen(n, i, gen):
        return _h_degen_gen(H, n, n + 1, i, _v_degen_gen(H, n, n, i, gen))

    return face, degen


def _diagonal_nerve(H: _HomNerves, D: int) -> BasedSimplicialObject:
    """Only the (n, n) bidegrees, with the faces and degeneracies of
    _diagonal_maps.

    Equal to diagonal(_double_nerve(H, D, D)) but never materializes the
    off-diagonal bidegrees.
    """
    return assemble_simplicial(
        (_tuple_generators(H, n, n) for n in range(D + 1)), *_diagonal_maps(H)
    )


class _CodedTop:
    """Degree D of the diagonal of H's double nerve in integer codes, for
    streaming the boundary out of it (see extend).

    An object is its index in H.objects and a leg its index in
    homs[x, y].basis[q]. A degree-D generator is the pair (os, ls) of its
    D + 1 object codes and D leg codes, and a degree-(D - 1) one is the
    flat tuple os + ls, the key of its row. Face i is _diagonal_maps' face
    on codes: every leg's v-face i comes from one tuple per leg, an end leg
    whose face has nonzero length makes the face zero and otherwise drops,
    and an inner merge comes from a memo on (x, y, z, a, b). Generators
    are listed in _tuple_generators' order, as the D - 1 leg prefixes of
    that order, each followed by the range of last legs that complete it.
    Everything a face reads from the prefix alone is worked out once per
    prefix and last object (_plan). The tables do not depend on the
    grading, so one _CodedTop serves every slice.
    """

    def __init__(self, H: _HomNerves, D: int):
        self.H = H
        self.D = D
        objects = H.objects
        self.index = {x: k for k, x in enumerate(objects)}
        self.merges = {}  # (x, y, z, a) -> {b: code of the merge, -1 for zero}
        lengths = H.lengths
        homs = [[H.homs.get((x, y)) for y in objects] for x in objects]

        def table(f):
            return [[None if S is None else f(S) for S in row] for row in homs]

        def v_faces(S):
            codes = {leg: k for k, leg in enumerate(S.basis[D - 1])}
            faces = [S.face[D][i] for i in range(D + 1)]
            return [tuple(-1 if (f := face[leg]) is None else codes[f] for face in faces)
                    for leg in S.basis[D]]

        def spans(S):
            # the basis lists legs by nondecreasing length, so each length
            # is one range of codes, and the dict keeps lengths in order
            out = {}
            for k, leg in enumerate(S.basis[D]):
                n = lengths.get(leg, 0)
                out[n] = range(out[n].start if n in out else k, k + 1)
            return out

        # per pair of objects x, y (None without a hom): the legs at D and
        # at D - 1, the codes of the legs at D - 1 and their lengths, the
        # codes of the top legs by length, and every top leg's D + 1
        # v-faces as codes (-1 for zero)
        self.top_legs = table(lambda S: S.basis[D])
        self.low_legs = table(lambda S: S.basis[D - 1])
        self.low_codes = table(lambda S: {leg: k for k, leg in enumerate(S.basis[D - 1])})
        self.low_lengths = table(lambda S: [lengths.get(leg, 0) for leg in S.basis[D - 1]])
        self.spans = table(spans)
        self.v_faces = table(v_faces)

    def _prefixes(self, ell) -> list:
        """(os, ls, used): every path of D - 1 legs whose lengths sum to
        used <= ell, in _tuple_generators' order."""
        level = [((x,), (), 0) for x in range(len(self.index))]
        for _ in range(self.D - 1):
            nxt = []
            for os, ls, used in level:
                for y, spans in enumerate(self.spans[os[-1]]):
                    for n, legs in (spans or {}).items():
                        if used + n > ell:
                            break
                        nxt.extend((os + (y,), ls + (leg,), used + n) for leg in legs)
            level = nxt
        return level

    def _last_legs(self, ell):
        """(os, ls, y, legs): each prefix, an object y after it, and the
        range of last legs into y that complete it to grading ell."""
        for os, ls, used in self._prefixes(ell):
            for y, spans in enumerate(self.spans[os[-1]]):
                legs = spans.get(ell - used) if spans else None
                if legs:
                    yield os, ls, y, legs

    def count(self, ell) -> int:
        """How many degree-D generators grading ell has; none is built."""
        return sum(len(legs) for *_, legs in self._last_legs(ell))

    def codes(self, ell):
        """The codes (os, ls) of the degree-D generators of grading ell."""
        for os, ls, y, legs in self._last_legs(ell):
            for leg in legs:
                yield os + (y,), ls + (leg,)

    def label(self, code) -> tuple:
        """The (objects, legs) label that _tuple_generators gives a code."""
        os, ls = code
        objects, legs = self.H.objects, self.top_legs
        return (tuple(objects[o] for o in os),
                tuple(legs[os[k]][os[k + 1]][leg] for k, leg in enumerate(ls)))

    def _low_code(self, label) -> tuple:
        xs, legs = label
        os = tuple(self.index[x] for x in xs)
        return os + tuple(self.low_codes[os[k]][os[k + 1]][leg] for k, leg in enumerate(legs))

    def _merged(self, memo: dict, x, y, z, a, b) -> int:
        """Code of the composite of legs a: x -> y and b: y -> z at degree
        D - 1 (-1 for zero), through memo = self.merges[x, y, z, a]."""
        m = memo.get(b)
        if m is None:
            objects = self.H.objects
            merged = self.H.compose(objects[x], objects[y], objects[z], self.D - 1,
                                    self.low_legs[x][y][a], self.low_legs[y][z][b])
            if merged is None:
                m = -1
            elif merged in self.low_codes[x][z]:
                m = self.low_codes[x][z][merged]
            else:
                raise ValidationError(f"face in degree {self.D} leaves the basis: {merged!r}")
            memo[b] = m
        return m

    def _plan(self, os, pre, y, rows, by_prefix):
        """How each face of the codes (os + (y,), ls + (leg,)) finds its
        row, given the v-faces pre of the prefix's legs ls. Returns (subs,
        merge, ends), each in face order, faces zero on every leg left out:
          subs   (i, sign, rows by the last code) for the faces i < D - 1,
                 whose last leg is the v-face of the last leg;
          merge  (sign, merge memo, a, rows by the last code) for face
                 D - 1 when D >= 2, which merges the prefix's last leg's
                 v-face a with the last leg's, else None;
          ends   (i, sign, row or None) for the faces that drop the last leg
                 when its v-face i has length 0.
        """
        D = self.D
        x = os[-1]
        path = os + (y,)
        no_rows: dict = {}
        subs = []
        for i in range(D - 1):
            new = [leg[i] for leg in pre]
            if -1 in new:
                continue
            if i == 0:
                if self.low_lengths[os[0]][os[1]][new[0]]:
                    continue
                key = path[1:] + tuple(new[1:])
            else:
                memo = self.merges.setdefault((os[i - 1], os[i], os[i + 1], new[i - 1]), {})
                merged = self._merged(memo, os[i - 1], os[i], os[i + 1], new[i - 1], new[i])
                if merged < 0:
                    continue
                new[i - 1 : i + 1] = (merged,)
                key = path[:i] + path[i + 1:] + tuple(new)
            subs.append((i, -1 if i % 2 else 1, by_prefix.get(key, no_rows)))
        if D == 1:
            return subs, None, [(0, 1, rows.get((y,))), (1, -1, rows.get((x,)))]
        merge = None
        new = [leg[D - 1] for leg in pre]
        if -1 not in new:
            memo = self.merges.setdefault((os[-2], x, y, new[-1]), {})
            key = os[:-1] + (y,) + tuple(new[:-1])
            merge = (-1 if D % 2 == 0 else 1, memo, new[-1], by_prefix.get(key, no_rows))
        new = [leg[D] for leg in pre]
        ends = [] if -1 in new else [(D, -1 if D % 2 else 1, rows.get(os + tuple(new)))]
        return subs, merge, ends

    def _columns(self, rows: dict, ell):
        """The boundary columns of the codes of grading ell, entries in face
        order as _alternating_matrix makes them."""
        by_prefix: dict = {}  # rows by all but the last code, then by the last
        for key, r in rows.items():
            by_prefix.setdefault(key[:-1], {})[key[-1]] = r
        v_faces, low_lengths = self.v_faces, self.low_lengths
        for os, ls, y, legs in self._last_legs(ell):
            x = os[-1]
            pre = [v_faces[os[k]][os[k + 1]][leg] for k, leg in enumerate(ls)]
            subs, merge, ends = self._plan(os, pre, y, rows, by_prefix)
            if merge is not None:
                m_sign, memo, a, m_rows = merge
            faces, lens = v_faces[x][y], low_lengths[x][y]
            for leg in legs:
                last = faces[leg]
                col: dict[int, int] = {}
                try:
                    for i, sign, sub in subs:
                        f = last[i]
                        if f >= 0:
                            t = sub[f]
                            if t not in col:
                                col[t] = sign
                            elif col[t] == -sign:
                                del col[t]
                            else:
                                col[t] += sign
                    if merge is not None and (b := last[-2]) >= 0:
                        merged = memo.get(b)
                        if merged is None:
                            merged = self._merged(memo, os[-2], x, y, a, b)
                        if merged >= 0:
                            t = m_rows[merged]
                            if t not in col:
                                col[t] = m_sign
                            elif col[t] == -m_sign:
                                del col[t]
                            else:
                                col[t] += m_sign
                except KeyError:
                    raise ValidationError(
                        f"a face in degree {self.D} of {self.label((os + (y,), ls + (leg,)))!r} "
                        "leaves the basis"
                    ) from None
                for i, sign, t in ends:
                    f = last[i]
                    if f >= 0 and not lens[f]:
                        if t is None:
                            raise ValidationError(
                                f"face {i} in degree {self.D} of "
                                f"{self.label((os + (y,), ls + (leg,)))!r} leaves the basis"
                            )
                        if t not in col:
                            col[t] = sign
                        elif col[t] == -sign:
                            del col[t]
                        else:
                            col[t] += sign
                yield col

    def extend(self, C: BasedChainComplex, ell) -> BasedChainComplex:
        """C, the unnormalized chains of the diagonal through degree D - 1
        in grading ell, with degree D on top. Its generators are decoded
        from their codes whenever they are read, and its boundary is a
        ColumnStream over C's top boundary, so no degree-D table is built."""
        if len(C.basis) != self.D:
            raise ValueError(f"expected chains through degree {self.D - 1}")
        rows = {self._low_code(label): r for r, label in enumerate(C.basis[-1])}
        top = ColumnStream(C.boundary[-1], self.count(ell), partial(self._columns, rows, ell))
        return BasedChainComplex(
            C.basis + (_CodedLabels(self, ell, top.ncols),), C.boundary + (top,), self.D - 1
        )


class _CodedLabels:
    """The labels of the degree-D generators of one grading, decoded from
    their codes each time they are iterated."""

    __slots__ = ("top", "ell", "count")

    def __init__(self, top: _CodedTop, ell, count: int):
        self.top, self.ell, self.count = top, ell, count

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return map(self.top.label, self.top.codes(self.ell))


def _hom_nerves_for(X, max_q: int) -> _HomNerves:
    if isinstance(X, CatGroup):
        X = two_cat_of_cat_group(X)
    if isinstance(X, Explicit2Cat):
        return _TwoCatNerves(X, max_q)
    if isinstance(X, NCatSuspension) and X.level >= 2:
        return _SuspensionNerves(mb_n(X.inner, max_q))
    raise ValidationError(f"no second-order nerve for {type(X).__name__}")


def double_nerve_2cat(
    X: Union[CatGroup, Explicit2Cat], max_degree: int,
    total_bound: Optional[int] = None,
) -> BasedBisimplicialObject:
    """Bisimplicial object of a Cat-group or explicit 2-category.

    Bidegree (p, q): p-tuples of horizontally composable legs, each leg a
    q-simplex of a hom-nerve. The optional total_bound keeps only the
    bidegrees with p + q <= total_bound.
    """
    if not isinstance(X, (CatGroup, Explicit2Cat)):
        raise ValidationError("expected a Cat-group or an explicit 2-category")
    _check_max_degree(max_degree)
    return _double_nerve(_hom_nerves_for(X, max_degree), max_degree, max_degree,
                         total_bound)


def mb_n(X: StrictNCat, max_degree: int) -> BasedSimplicialObject:
    """Iterated magnitude nerve of a presentable strict n-category.

    Level 1 is the ordinary nerve; higher levels recurse through the homs
    and keep only the diagonal bidegrees of the resulting bisimplicial
    object.
    """
    if not isinstance(X, StrictNCat):
        raise ValidationError("expected a strict n-category")
    _check_max_degree(max_degree)
    if X.level == 0:
        raise ValidationError("a bare set has no nerve; wrap it to level >= 1")
    if X.level == 1:
        return nerve_category(as_category(X), max_degree)
    return _diagonal_nerve(_hom_nerves_for(X, max_degree), max_degree)


def _route_chains(route: str, normalize_rows: bool):
    """Check the route flags; return chains(diag, double_nerve), which
    builds only what its route reads (each argument builds it when
    called). diag() returns (nerve, top): the diagonal nerve, whose
    unnormalized chains are taken, and top, None when the nerve holds every
    degree, or else a function that puts the streamed top degree on those
    chains (_CodedTop.extend). double_nerve() returns the double nerve,
    whose double chains, rows normalized or not, give the total complex
    (tot)."""
    if route not in ("diag", "tot"):
        raise ValidationError(f"unknown route {route!r}")
    if route == "diag":
        if normalize_rows:
            raise ValidationError("row normalization belongs to the tot route")

        def chains(diag, double_nerve):
            nerve, top = diag()
            C = unnormalized_chains(nerve)
            return C if top is None else top(C)

        return chains
    double_complex = row_normalize if normalize_rows else double_chains
    return lambda diag, double_nerve: total_complex(double_complex(double_nerve()))


def _truncated_double_nerve(X, max_degree: int) -> BasedBisimplicialObject:
    """The double nerve on p + q <= max_degree. A leg sits at p >= 1, so no
    leg or degeneracy reads a hom above max_degree - 1."""
    return _double_nerve(_hom_nerves_for(X, max(max_degree - 1, 0)),
                         max_degree, max_degree, total_bound=max_degree)


def iterated_complex(
    X, max_degree: int, route: str = "diag", normalize_rows: bool = False
) -> BasedChainComplex:
    """Chain complex computing iterated magnitude homology, either via the
    diagonal or via the total complex of the double chains, with every
    degree tabulated.

    Both routes are faithful through max_degree - 1.
    """
    chains = _route_chains(route, normalize_rows)
    return chains(
        lambda: (_diagonal_nerve(_hom_nerves_for(X, max_degree), max_degree), None),
        lambda: _truncated_double_nerve(X, max_degree),
    )


def iterated_homology(
    X, max_degree: int, route: str = "diag", normalize_rows: bool = False
) -> HomologyTable:
    """Homology of iterated_complex(X, max_degree + 1, ...) in degrees
    0..max_degree. The diag route tabulates the diagonal nerve through
    max_degree only and streams the boundary out of degree max_degree + 1
    (_CodedTop)."""
    chains = _route_chains(route, normalize_rows)
    _check_max_degree(max_degree)
    D = max_degree + 1

    def diag():
        H = _hom_nerves_for(X, D)
        return _diagonal_nerve(H, max_degree), partial(_CodedTop(H, D).extend, ell=0)

    C = chains(diag, lambda: _truncated_double_nerve(X, D))
    return homology_table(C, max_degree)


# ---------------------------------------------------------------------------
# normed groups, grading by grading


class _NormedNerves(_HomNerves):
    """One object, "*", whose hom is the unnormalized metric nerve of the
    group: every column up to degree max_q, in _enumerate_tuples' buckets
    of increasing length (within one, lexicographic in element order).
    Lengths are integers over the common denominator scale of the
    metric's distances."""

    def __init__(self, N: NormedGroup, max_q: int):
        G = N.group
        X = metric_of_normed_group(N)
        self.scale = _scaled_distances(X)[1]
        self.between = _betweenness(X)
        self.mul = {(x, y): G.mul(x, y) for x in G.elements for y in G.elements}
        self.unit = G.identity
        self.lengths = {}
        columns = [[] for _ in range(max_q + 1)]
        for (q, ell), cols in _enumerate_tuples(X, max_q, distinct=False).items():
            columns[q] += cols
            self.lengths.update(dict.fromkeys(cols, int(ell * self.scale)))
        self.objects = ("*",)
        self.homs = {("*", "*"): assemble_simplicial(
            columns, partial(_metric_face, self.between), _metric_degen
        )}

    def units(self, ell: Fraction):
        """A grading in integer length units; a Fraction when it is not a
        whole number of them, which no path reaches."""
        ell *= self.scale
        return int(ell) if ell.denominator == 1 else ell

    def compose(self, x, y, z, q, a, b):
        """The entrywise product, or None when it changes the length.

        The norm is conjugation invariant, so the metric is bi-invariant:
        d(a_r b_r, a_r b_{r+1}) = d(b_r, b_{r+1}) and d(a_r b_{r+1},
        a_{r+1} b_{r+1}) = d(a_r, a_{r+1}). The merged step at row r keeps
        the sum of the two columns' steps exactly when a_r b_{r+1} lies
        between a_r b_r and a_{r+1} b_{r+1}.
        """
        mul = self.mul
        merged = tuple(mul[u, v] for u, v in zip(a, b))
        for r in range(q):
            if (mul[a[r], b[r + 1]], merged[r], merged[r + 1]) not in self.between:
                return None
        return merged

    def identity_gen(self, x, q):
        return (self.unit,) * (q + 1)


def _normed_slice(N: NormedGroup, grading, max_q: int) -> tuple:
    """The hom nerves of N, and the grading in their integer length units."""
    (ell,) = grading_values([grading])
    H = _NormedNerves(N, max_q)
    return H, H.units(ell)


def double_nerve_normed_group(
    N: NormedGroup, grading, max_total_degree: int
) -> BasedBisimplicialObject:
    """The grading slice of the double nerve of a normed group.

    Bidegree (p, q) is spanned by the paths (("*",) * (p + 1), columns):
    p columns, each q+1 group elements, whose lengths sum to the grading.
    The path with no columns spans (0, q) in grading 0 only. Bases cover
    p + q <= max_total_degree + 1, so a column has degree at most
    max_total_degree.
    """
    T = max_total_degree + 1
    H, ell = _normed_slice(N, grading, T - 1)
    return assemble_bisimplicial(
        T, T, T, lambda p, q: _tuple_generators(H, p, q, ell), *_generator_maps(H)
    )


def diag_nerve_normed_group(
    N: NormedGroup, grading, max_degree: int
) -> BasedSimplicialObject:
    """Diagonal slice: degree n is the paths of n columns of n+1 elements
    of total length equal to the grading, with composite faces and
    degeneracies."""
    H, ell = _normed_slice(N, grading, max_degree)
    return assemble_simplicial(
        (_tuple_generators(H, n, n, ell) for n in range(max_degree + 1)),
        *_diagonal_maps(H),
    )


def reachable_normed_gradings(N: NormedGroup, max_degree: int,
                              route: str = "tot") -> list[Fraction]:
    """Gradings realizable by paths inside the truncation: sums of at most
    max_steps norm values (the metric's reachable gradings, since every
    norm value is a step out of every point), where max_steps counts the
    d-steps of the largest p columns of q+1 elements the route enumerates."""
    _check_max_degree(max_degree)
    if route == "diag":
        D = max_degree + 1
        max_steps = D * D
    else:
        T = max_degree + 1
        max_steps = max(p * q for p in range(T + 1) for q in range(T + 1 - p))
    return reachable_gradings(metric_of_normed_group(N), max_steps)


def normed_group_homology(
    N: NormedGroup,
    gradings="norm-values",
    max_degree: int = 2,
    route: str = "tot",
    normalize_rows: bool = False,
) -> HomologyTable:
    """Iterated magnitude homology of a normed group, per grading.

    gradings may be an explicit list, "norm-values" (0 plus every norm a
    group element takes), or "all-reachable" (everything the truncation
    can see). The diag route tabulates each slice through max_degree and
    streams the boundary out of degree max_degree + 1 from one _CodedTop,
    built once per call.
    """
    chains = _route_chains(route, normalize_rows)
    _check_max_degree(max_degree)
    D = max_degree + 1
    top = cache(lambda: _CodedTop(_NormedNerves(N, D), D))
    if isinstance(gradings, str):
        if gradings == "norm-values":
            ells = sorted({Fraction(0), *N.norm.values()})
        elif gradings == "all-reachable":
            ells = reachable_normed_gradings(N, max_degree, route)
        else:
            raise ValidationError(f"unknown grading request {gradings!r}")
    else:
        ells = grading_values(gradings)
    entries = {}
    for ell in ells:
        C = chains(lambda: (diag_nerve_normed_group(N, ell, max_degree),
                            partial(top().extend, ell=top().H.units(ell))),
                   lambda: double_nerve_normed_group(N, ell, max_degree))
        table = homology_table(C, max_degree)
        for k in range(max_degree + 1):
            entries[(k, ell)] = table.group(k)
    return HomologyTable(entries)


# ---------------------------------------------------------------------------
# product comparison


class KunnethReport:
    """Side-by-side of directly computed homology of a product against the
    split assembly from the factors."""

    def __init__(self, rows):
        self.rows = rows  # (degree, grading or None, direct, predicted)

    @property
    def ok(self) -> bool:
        return all(direct == pred for (_, _, direct, pred) in self.rows)

    def mismatches(self):
        return [r for r in self.rows if r[2] != r[3]]

    def __repr__(self):
        status = "ok" if self.ok else f"{len(self.mismatches())} mismatches"
        return f"KunnethReport({len(self.rows)} entries, {status})"


def kunneth_check(X, Y, max_degree: int) -> KunnethReport:
    """Compare homology of a product computed directly with the tensor/Tor
    assembly of the factors' homology. Metric inputs are compared grading
    by grading; categories in their one grading, None."""
    from .enriched_data import FinCategory, GenMetricSpace, product_category, tensor_metric
    from .magnitude_core import category_homology, metric_homology
    from .oracles import oracle_kunneth

    if isinstance(X, FinCategory) and isinstance(Y, FinCategory):
        homology, product = category_homology, product_category
    elif isinstance(X, GenMetricSpace) and isinstance(Y, GenMetricSpace):
        homology, product = metric_homology, tensor_metric
    else:
        raise ValidationError("both inputs must be categories or both metric spaces")
    direct = homology(product(X, Y), max_degree)
    pred = oracle_kunneth(homology(X, max_degree), homology(Y, max_degree), max_degree)
    gradings = sorted(set(direct.gradings()) | set(pred.gradings()))
    return KunnethReport([
        (k, ell, direct.group(k, ell), pred.group(k, ell))
        for ell in gradings
        for k in range(max_degree + 1)
    ])
