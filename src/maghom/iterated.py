"""Double and iterated magnitude nerves.

A second-order enrichment hands every hom a simplicial object of its own.
The nerve construction then runs again on top, and gives a bisimplicial
object. Its homology is reached two ways: the chains of the diagonal, or
the total complex (Tot) of the double chains, with rows normalized or
not. The routes agree, and the tests lean on that hard.

Horizontal structure composes along the outer tuple (1-cells). Vertical
structure runs inside each hom (2-cells). A group with a conjugation-
invariant norm is graded: its one object's hom is the metric nerve of the
group, every leg has an integer length, and a face that changes the total
length is zero. That hom's columns are the tuples
magnitude_core._enumerate_tuples lists for the group's metric.

Every second-order enrichment is one _HomNerves. Its builders supply only
generators and generator-level faces and degeneracies;
simplicial.assemble_simplicial and assemble_bisimplicial tabulate them.
One enumerator on integer codes lists every second-order path
(_HomNerves.last_legs), from one span table of the legs (_Legs). The
diagonal fuses each face into one pass over the legs (_diagonal_maps).
One rule says which leg degree each route reads (_leg_degree).

Homology through degree D - 1 reads the boundary out of degree D, by far
the largest, and usually only part of it before the reduction's early
exit. So iterated_homology and normed_group_homology tabulate each route
only through degree D - 1. Degree D is streamed from integer codes
(_CodedTop): the diagonal's degree D, or Tot_D. Its rows, the generators
of degree D - 1, are indexed from the same codes, and its labels are
decoded by _tuple_generators. _CodedTop.extend joins it to the chains
below (complexes.stream_top). Its boundary is an exact_linalg.ColumnStream:
the reduction reads columns until it stops, and the rest are drawn to the
end. Row normalization is a span table too (_Legs.kept). Inner merges
are composed a length span at a time, as the walk first reads one.

d*d = 0 is checked by one column kernel. The columns drawn after the stop
are checked one by one. The columns read are checked through the basis
the reduction returns: its steps are unimodular, so the basis spans the
lattice of the columns read, and that lattice lies in the kernel below if
and only if each basis vector does. On the tot route the double complex
is checked (validate_double_complex) only where it is tabulated, which
loses no check (see complexes.validate_complex). iterated_complex, mb_n
and the nerve builders stay fully tabulated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from typing import Optional, Union

from .complexes import (
    BasedChainComplex,
    HomologyTable,
    _check_max_degree,
    grading_values,
    homology_table,
    resolve_gradings,
    stream_top,
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
from .magnitude_core import (
    _betweenness,
    _enumerate_tuples,
    _metric_degen,
    _metric_face,
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

    The same double nerve in integer codes, and the one enumerator of its
    paths (last_legs): _tuple_generators decodes what it lists, and
    _CodedTop streams from it. An object is its index in objects and a leg
    of degree q its index in homs[x, y].basis[q]. A path of p legs is the
    pair (os, ls) of its p + 1 object codes and p leg codes. The tables of
    each leg degree are built once, when first asked for (legs). The inner
    merges of a leg a: x -> y with the legs y -> z of one length are
    composed together, when the first of them is read, and each pair once
    (merged).
    """

    objects: tuple
    homs: dict
    lengths: dict = {}

    def compose(self, x, y, z, q, gen_xy, gen_yz):
        raise NotImplementedError

    def identity_gen(self, x, q):
        raise NotImplementedError

    @cached_property
    def _legs(self) -> dict:  # q -> _Legs
        return {}

    @cached_property
    def merges(self) -> dict:  # (q, x, y, z, a) -> {b: code of the merge, -1 for zero}
        return {}

    def legs(self, q: int) -> _Legs:
        T = self._legs.get(q)
        if T is None:
            T = self._legs[q] = _Legs(self, q)
        return T

    def merged(self, q: int, x: int, y: int, z: int, a: int, b: int) -> int:
        """Code of the composite of legs a: x -> y and b: y -> z of degree
        q (-1 for zero), read from merges[q, x, y, z, a]. A miss composes
        a with every leg y -> z of b's length, the span a walk reads b
        from, so a pair is composed once and the memo is filled a span at
        a time."""
        key = (q, x, y, z, a)
        memo = self.merges.get(key)
        if memo is None:
            memo = self.merges[key] = {}
        m = memo.get(b)
        if m is None:
            objects, T, compose = self.objects, self.legs(q), self.compose
            ox, oy, oz = objects[x], objects[y], objects[z]
            first, legs_yz, codes = T.legs[x][y][a], T.legs[y][z], T.codes[x][z]
            for c in T.spans[y][z][T.lengths[y][z][b]]:
                merged = compose(ox, oy, oz, q, first, legs_yz[c])
                if merged is None:
                    m = -1
                else:
                    m = codes.get(merged)
                    if m is None:
                        raise ValidationError(
                            f"an h-face in leg degree {q} leaves the basis: {merged!r}")
                memo[c] = m
            m = memo[b]
        return m

    def last_legs(self, spans: list, p: int, ell, start, step):
        """(os, ls, state, y, legs), for p >= 1: the paths of p legs taken
        from spans (a _Legs table of one leg degree: spans, or kept) in
        grading ell, as each path (os, ls) of p - 1 legs whose lengths sum
        to at most ell, an object y after it, and the legs into y that
        complete it to grading ell. The paths are walked depth first, in
        lexicographic order of their steps (next object, then leg), and
        state is start(x) on the path (x,), and step(state of (os, ls), os,
        y, leg) on the path one leg from os[-1] to y longer: each leg of a
        prefix is taken once for all the paths through it. A step that
        returns None leaves out its path and every path through it."""
        for x in range(len(self.objects)):
            yield from _walk(spans, p, ell, step, (x,), (), 0, start(x))


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
        return tuple(map(self.X.compose_mor[(x, y, z)].__getitem__, zip(a, b)))

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


def _tuple_generators(H: _HomNerves, p: int, q: int, ell=0, spans=None):
    """Generators at bidegree (p, q) in grading ell, made as they are
    read: object paths with a leg in each hom whose lengths sum to ell,
    the legs taken from spans, a span table of H.legs(q) (spans by
    default, or kept, where a span less an identity leg is a list of
    codes). H.last_legs lists them in codes; each leg of a prefix is
    decoded once, as the walk takes it, then each last leg."""
    if p == 0:
        yield from (((x,), ()) for x in H.objects if ell == 0)
        return
    T = H.legs(q)
    bases, objects = T.legs, H.objects

    def start(x):
        return (objects[x],), ()

    def step(label, os, y, leg):
        xs, legs = label
        return xs + (objects[y],), legs + (bases[os[-1]][y][leg],)

    for os, _, (xs, prefix), y, legs in H.last_legs(spans or T.spans, p, ell, start, step):
        xy, basis = xs + (objects[y],), bases[os[-1]][y]
        legs = basis[legs.start:legs.stop] if type(legs) is range else map(basis.__getitem__, legs)
        yield from [(xy, prefix + (leg,)) for leg in legs]


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
                  total_bound: Optional[int] = None, ell=0) -> BasedBisimplicialObject:
    """H's double nerve in grading ell (in H's integer length units)."""
    return assemble_bisimplicial(
        P, Q, total_bound, lambda p, q: _tuple_generators(H, p, q, ell), *_generator_maps(H)
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


def _assemble_diagonal(H: _HomNerves, D: int, ell=0) -> BasedSimplicialObject:
    """Only the (n, n) bidegrees in grading ell, with the faces and
    degeneracies of _diagonal_maps: diagonal(_double_nerve(H, D, D, ell=ell))
    without the off-diagonal bidegrees. Both diagonal builders call it, so
    neither nests in the other."""
    return assemble_simplicial(
        (_tuple_generators(H, n, n, ell) for n in range(D + 1)), *_diagonal_maps(H)
    )


def _diagonal_nerve(H: _HomNerves, D: int) -> BasedSimplicialObject:
    """The diagonal of H's double nerve in grading 0, through degree D."""
    return _assemble_diagonal(H, D)


class _Legs:
    """The legs of degree q of every hom of H in integer codes. Each table
    is indexed [x][y] by object codes, None where there is no hom, and each
    is built when first read:
      legs        the hom's basis in degree q; a leg's code is its index
                  here;
      codes       leg -> code;
      lengths     each code's length;
      spans       length -> the range of codes of that length (a hom basis
                  lists its legs by nondecreasing length, so each length
                  is one range, and the dict keeps the lengths in order);
      faces       per code, the codes of its v-faces 0..q in degree q - 1
                  (-1 for zero);
      kept        spans less each object's identity leg in its endo-hom:
                  the legs of the paths row normalization keeps, since a
                  path is h-degenerate exactly where leg k is the identity
                  of x_k = x_{k+1}.
    It keeps no reference to H, so H and its tables form no cycle.
    """

    def __init__(self, H: _HomNerves, q: int):
        self._q, self._lengths = q, H.lengths
        self._homs = [[H.homs.get((x, y)) for y in H.objects] for x in H.objects]
        self._units = [H.identity_gen(x, q) for x in H.objects]

    def _table(self, f) -> list:
        return [[None if S is None else f(S.basis[self._q], S) for S in row]
                for row in self._homs]

    @cached_property
    def legs(self) -> list:
        return self._table(lambda basis, S: basis)

    @cached_property
    def codes(self) -> list:
        return self._table(lambda basis, S: {leg: k for k, leg in enumerate(basis)})

    @cached_property
    def lengths(self) -> list:
        return self._table(lambda basis, S: [self._lengths.get(leg, 0) for leg in basis])

    @cached_property
    def spans(self) -> list:
        def spans(basis, S):
            out = {}
            for k, leg in enumerate(basis):
                n = self._lengths.get(leg, 0)
                out[n] = range(out[n].start if n in out else k, k + 1)
            return out

        return self._table(spans)

    @cached_property
    def faces(self) -> list:
        def faces(basis, S):
            low = {leg: k for k, leg in enumerate(S.basis[self._q - 1])} if self._q else {}
            maps = S.face[self._q]
            return [tuple(-1 if (f := m[leg]) is None else low[f] for m in maps)
                    for leg in basis]

        return self._table(faces)

    @cached_property
    def kept(self) -> list:
        kept = [list(row) for row in self.spans]
        for x, unit in enumerate(self._units):
            ident = (self.codes[x][x] or {}).get(unit)
            if ident is not None:
                kept[x][x] = {n: legs for n, span in kept[x][x].items()
                              if (legs := [c for c in span if c != ident])}
        return kept


def _walk(spans: list, p: int, ell, step, os: tuple, ls: tuple, used, state):
    """_HomNerves.last_legs through the path (os, ls) of length used, with
    its state, on the span table spans. A prefix of p - 1 legs is
    completed where its last leg is taken, in the loop below, unless it
    has no legs."""
    if len(ls) == p - 1:
        for y, last in enumerate(spans[os[-1]]):
            last = last.get(ell - used) if last else None
            if last:
                yield os, ls, state, y, last
        return
    deeper = len(ls) < p - 2
    for y, by_length in enumerate(spans[os[-1]]):
        if by_length:
            for n, legs in by_length.items():
                if used + n > ell:
                    break
                for leg in legs:
                    after = step(state, os, y, leg)
                    if after is None:
                        continue
                    if deeper:
                        yield from _walk(spans, p, ell, step, os + (y,), ls + (leg,),
                                         used + n, after)
                        continue
                    rest = ell - used - n
                    for z, last in enumerate(spans[y]):
                        last = last.get(rest) if last else None
                        if last:
                            yield os + (y,), ls + (leg,), after, z, last


_SUB, _MERGE, _END = range(3)  # how a face term finds its row from the last leg
_DOWN, _HOLD, _JOIN, _HEAD = range(4)  # how a face term takes a leg of the prefix
_NO_ROWS: dict = {}


def _tot_terms(p: int, q: int) -> tuple:
    """The face terms of Tot out of bidegree (p, q): h-faces into
    (p - 1, q), then v-faces into (p, q - 1) with the sign (-1)^p."""
    h = [(-1, i, (-1) ** i) for i in range(p + 1)] if p else []
    v = [(j, None, (-1) ** (p + j)) for j in range(q + 1)] if q else []
    return tuple(h + v)


def _no_state(*args) -> tuple:
    return ()


class _CodedTop:
    """The top degree D of a route's chains in integer codes, for streaming
    the boundary out of it (see extend).

    Its generators come in blocks (p, q) of paths with p legs of degree q,
    each block as H.last_legs lists it from one span table of the legs
    (_spans). A face term (j, i, sign) of a block is v-face j of every leg
    (j < 0: none), then h-face i (None: none), as _v_face_gen and
    _h_face_gen make them:
      diag  degree D of the diagonal: one block (D, D) whose face i is
            v-face i then h-face i, with sign (-1)^i, as in _diagonal_maps;
      tot   Tot_D: blocks (p, D - p), p = 0..D, in total_complex's order,
            whose terms are h-faces i = 0..p with sign (-1)^i, then v-faces
            j = 0..q with sign (-1)^(p + j).
    With normalize_rows, as in row_normalize, the paths take their legs
    from _Legs.kept, so the generators in the image of an h-degeneracy are
    left out, and so is a face term whose row the chains below leave out.
    The rows, the generators of degree D - 1, are the same blocks one
    degree down, listed by the same enumerator under the same rule (_rows),
    so they come in the order the tabulated chains give them.
    Each face term follows the walk of H.last_legs down a path's first
    p - 1 legs, one leg at a time (_columns), so what a face reads from a
    prefix is worked out once for every path through it. The tables do not
    depend on the grading, so one _CodedTop serves every slice.
    """

    def __init__(self, H: _HomNerves, D: int, route: str = "diag",
                 normalize_rows: bool = False):
        self.H, self.D = H, D
        self.tagged = route == "tot"  # labels (p, q, path), as total_complex's
        self.drop = normalize_rows
        if self.tagged:
            self.blocks = tuple((p, q, _tot_terms(p, q)) for p, q in self._bidegrees(D))
        else:
            self.blocks = ((D, D, tuple((i, i, (-1) ** i) for i in range(D + 1))),)

    def _bidegrees(self, n: int) -> tuple:
        """The blocks (p, q) of degree n, in the order of the route's chains."""
        return tuple((p, n - p) for p in range(n + 1)) if self.tagged else ((n, n),)

    def _objects(self, ell) -> range:
        """The object codes, the paths with no legs, which grading 0 alone has."""
        return range(len(self.H.objects) if ell == 0 else 0)

    def _spans(self, q: int) -> list:
        """The span table of the legs of degree q that the route's
        generators take: all of them, or kept when rows are normalized."""
        T = self.H.legs(q)
        return T.kept if self.drop else T.spans

    def _gens(self, p: int, q: int, ell, start=_no_state, step=_no_state):
        """(os, ls, state, y, legs) of block (p, q), p >= 1, as
        H.last_legs lists them from _spans(q)."""
        return self.H.last_legs(self._spans(q), p, ell, start, step)

    def count(self, ell) -> int:
        """How many degree-D generators grading ell has, counted from the
        number of legs of each length in each hom; no path is listed."""
        total = 0
        for p, q, _ in self.blocks:
            if p == 0:
                total += len(self._objects(ell))
                continue
            spans = self._spans(q)
            ends = {(x, 0): 1 for x in range(len(self.H.objects))}  # (last object, used) -> paths
            for _ in range(p):
                longer: dict = {}
                for (x, used), n_paths in ends.items():
                    for y, by_length in enumerate(spans[x]):
                        for n, legs in by_length.items() if by_length else ():
                            if used + n > ell:
                                break
                            key = y, used + n
                            longer[key] = longer.get(key, 0) + n_paths * len(legs)
                ends = longer
            total += sum(n_paths for (_, used), n_paths in ends.items() if used == ell)
        return total

    def _labels(self, ell):
        """The labels the route's tabulated chains give the degree-D
        generators of grading ell: _tuple_generators', from _spans, tagged
        (p, q, label) on the tot route."""
        for p, q, _ in self.blocks:
            gens = _tuple_generators(self.H, p, q, ell, self._spans(q) if p else None)
            yield from ((p, q, gen) for gen in gens) if self.tagged else gens

    def label(self, code) -> tuple:
        """The label _labels gives the code (os, ls) of a path."""
        os, ls = code
        q = self.D - len(ls) if self.tagged else self.D
        legs = ()
        if ls:  # a path with no legs may sit at a leg degree H lacks
            T = self.H.legs(q).legs
            legs = tuple([T[x][y][leg] for x, y, leg in zip(os, os[1:], ls)])
        label = tuple(map(self.H.objects.__getitem__, os)), legs
        return (len(ls), q, label) if self.tagged else label

    def _terms(self, p: int, q: int, terms, rows: dict) -> list:
        """The face terms of block (p, q) as the walk of _columns reads
        them: per term, (spec, at_root), where spec = (j, steps, qq,
        lengths, sign, kind, at_y, block) and
          steps    how the term takes leg k of the prefix (k < p - 1), whose
                   v-face j is f:
                   _DOWN   the face takes f and the leg's end;
                   _HOLD   holds f, the first leg of the inner merge of
                           h-face k + 1, and drops the leg's end;
                   _JOIN   the face takes the merge of the held leg and f,
                           and the leg's end;
                   _HEAD   h-face 0: zero unless f has length 0, else the
                           face starts at the leg's end;
          qq       the degree of the face's legs, lengths their lengths;
          kind     how the last leg finds its row (_columns);
          at_y     whether the face takes the last object (all but the
                   h-face that drops the last leg);
          block    the rows of the face's block (_rows).
        A term's key is what the face has taken so far, in _rows's order;
        it starts as the path's first object unless at_root (h-face 0
        drops it)."""
        out = []
        for j, i, sign in terms:
            qq = q if j < 0 else q - 1
            if i is None:
                steps, kind = (_DOWN,) * (p - 1), _SUB
            elif i == 0:
                steps, kind = (_HEAD,) + (_DOWN,) * (p - 2), _SUB if p > 1 else _END
            else:
                steps = tuple(_HOLD if k == i - 1 else _JOIN if k == i else _DOWN
                              for k in range(p - 1))
                kind = _END if i == p else _MERGE if i == p - 1 else _SUB
            spec = (j, steps, qq, self.H.legs(qq).lengths, sign, kind, i != p,
                    rows[p if i is None else p - 1, qq])
            out.append((spec, i == 0))
        return out

    def _columns(self, rows: dict, ell):
        """The boundary columns of the codes of grading ell, each with its
        entries in the order the tabulated column has them
        (_alternating_matrix, then total_complex). rows is _rows's index
        of the rows of degree D - 1."""
        drop, H = self.drop, self.H
        merged, merges = H.merged, H.merges
        for p, q, terms in self.blocks:
            if p == 0:
                for x in self._objects(ell):
                    yield self._object_column(x, terms, rows[0, q - 1][()])
                continue
            faces = H.legs(q).faces
            heads = self._terms(p, q, terms, rows)

            def start(x):
                return [(spec, () if at_root else (x,), None) for spec, at_root in heads]

            def step(states, os, y, leg):
                k = len(os) - 1
                x = os[-1]
                v_faces = faces[x][y][leg]
                out = []
                for spec, key, held in states:
                    j = spec[0]
                    f = leg if j < 0 else v_faces[j]
                    if f < 0:
                        continue
                    act = spec[1][k]
                    if act == _DOWN:
                        key += (y, f)
                    elif act == _HOLD:
                        held = f
                    elif act == _JOIN:
                        m = merged(spec[2], os[-2], x, y, held, f)
                        if m < 0:
                            continue
                        key += (y, m)
                    elif spec[3][x][y][f]:
                        continue
                    else:
                        key = (y,)
                    out.append((spec, key, held))
                return out

            for os, ls, states, y, legs in self._gens(p, q, ell, start, step):
                x = os[-1]
                plan = []
                for (j, _, qq, lengths, sign, kind, at_y, block), key, held in states:
                    if at_y:
                        key += (y,)
                    if kind == _SUB:
                        target, aux = block.get(key, _NO_ROWS), None
                    elif kind == _MERGE:
                        target = block.get(key, _NO_ROWS)
                        memo_key = (qq, os[-2], x, y, held)
                        memo = merges.get(memo_key)
                        if memo is None:
                            memo = merges[memo_key] = {}
                        aux = (memo, memo_key)
                    else:
                        target = block.get(key[:-1], _NO_ROWS).get(key[-1])
                        aux = lengths[x][y]
                    plan.append((kind, j, sign, target, aux))
                last_faces = faces[x][y]
                for leg in legs:
                    steps = last_faces[leg]
                    col: dict[int, int] = {}
                    for kind, j, sign, target, aux in plan:
                        f = leg if j < 0 else steps[j]
                        if f < 0:
                            continue
                        if kind == _SUB:
                            t = target.get(f)
                        elif kind == _MERGE:
                            m = aux[0].get(f)
                            if m is None:
                                m = merged(*aux[1], f)
                            if m < 0:
                                continue
                            t = target.get(m)
                        elif aux[f]:
                            continue
                        else:
                            t = target
                        if t is None:
                            if drop:
                                continue
                            raise ValidationError(
                                f"a face in degree {self.D} of "
                                f"{self.label((os + (y,), ls + (leg,)))!r} leaves the basis"
                            )
                        if t not in col:
                            col[t] = sign
                        elif col[t] == -sign:
                            del col[t]
                        else:
                            col[t] += sign
                    yield col

    @staticmethod
    def _object_column(x: int, terms, rows: dict) -> dict:
        """The column of the path with no legs at object x: each v-face is
        that path again, one degree down, whose row rows[x] holds."""
        total = sum(sign for *_, sign in terms)
        return {rows[x]: total} if total else {}

    def _rows(self, ell) -> tuple:
        """(rows, count): the row of each generator of degree D - 1 of
        grading ell, and how many there are. A path's codes, in the order
        the walk takes them, are x_0, then x_{k+1} and l_k for each leg k;
        rows[p, q][key][c] is the row of the path of block (p, q) whose
        codes are key + (c,). So the walk of _columns extends a face's key
        one leg at a time, and looks up each last leg's row by its code."""
        rows: dict = {}
        n = 0
        for p, q in self._bidegrees(self.D - 1):
            block = rows[p, q] = {}
            if p == 0:
                objects = self._objects(ell)
                block[()] = dict(zip(objects, range(n, n + len(objects))))
                n += len(objects)
                continue
            for _, _, key, y, legs in self._gens(p, q, ell, lambda x: (x,),
                                                 lambda key, os, y, leg: key + (y, leg)):
                block[key + (y,)] = dict(zip(legs, range(n, n + len(legs))))
                n += len(legs)
        return rows, n

    def extend(self, C: BasedChainComplex, ell) -> BasedChainComplex:
        """C, the route's chains through degree D - 1 in grading ell, with
        degree D streamed on top (complexes.stream_top). C's degree-D - 1
        generators must be the ones _rows lists, in its order."""
        rows, count = self._rows(ell)
        return stream_top(C, self.D, count, self.count(ell), partial(self._columns, rows, ell),
                          partial(self._labels, ell))


def _hom_nerves_for(X, max_q: int) -> _HomNerves:
    if isinstance(X, CatGroup):
        X = two_cat_of_cat_group(X)
    if isinstance(X, Explicit2Cat):
        return _TwoCatNerves(X, max_q)
    if isinstance(X, NCatSuspension) and X.level >= 2:
        return _SuspensionNerves(mb_n(X.inner, max_q))
    raise ValidationError(f"no second-order nerve for {type(X).__name__}")


def double_nerve_2cat(
    X: Union[CatGroup, Explicit2Cat], max_degree: int
) -> BasedBisimplicialObject:
    """Bisimplicial object of a Cat-group or explicit 2-category.

    Bidegree (p, q): p-tuples of horizontally composable legs, each leg a
    q-simplex of a hom-nerve.
    """
    if not isinstance(X, (CatGroup, Explicit2Cat)):
        raise ValidationError("expected a Cat-group or an explicit 2-category")
    _check_max_degree(max_degree)
    return _double_nerve(_hom_nerves_for(X, max_degree), max_degree, max_degree)


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


def _check_route(route: str, normalize_rows: bool) -> None:
    if route not in ("diag", "tot"):
        raise ValidationError(f"unknown route {route!r}")
    if route == "diag" and normalize_rows:
        raise ValidationError("row normalization belongs to the tot route")


def _tot_chains(H: _HomNerves, D: int, normalize_rows: bool, ell=0) -> BasedChainComplex:
    """The total complex of the double chains, rows normalized or not, of
    H's double nerve in grading ell on p + q <= D. Its double complex is
    checked only where it is tabulated; complexes.validate_complex says why
    a streamed top's per-column check covers the bidegrees above."""
    chains = row_normalize if normalize_rows else double_chains
    return total_complex(chains(_double_nerve(H, D, D, total_bound=D, ell=ell)))


def _leg_degree(route: str, n: int) -> int:
    """The highest leg degree the route's chains read through degree n.
    Degree n of the diagonal is paths of n legs of degree n. A generator of
    Tot_n at bidegree (p, n - p) has legs only when p >= 1, so its legs
    have degree at most n - 1, and no leg or degeneracy reads a hom above
    that."""
    return n if route == "diag" else max(n - 1, 0)


def iterated_complex(
    X, max_degree: int, route: str = "diag", normalize_rows: bool = False
) -> BasedChainComplex:
    """Chain complex computing iterated magnitude homology, either via the
    diagonal or via the total complex of the double chains, with every
    degree tabulated.

    Both routes are faithful through max_degree - 1.
    """
    _check_route(route, normalize_rows)
    H = _hom_nerves_for(X, _leg_degree(route, max_degree))
    if route == "diag":
        return unnormalized_chains(_diagonal_nerve(H, max_degree))
    return _tot_chains(H, max_degree, normalize_rows)


def iterated_homology(
    X, max_degree: int, route: str = "diag", normalize_rows: bool = False
) -> HomologyTable:
    """Homology of iterated_complex(X, max_degree + 1, ...) in degrees
    0..max_degree. Either route tabulates its nerve through total degree
    max_degree only and streams the boundary out of degree max_degree + 1
    (_CodedTop)."""
    _check_route(route, normalize_rows)
    _check_max_degree(max_degree)
    D = max_degree + 1
    H = _hom_nerves_for(X, _leg_degree(route, D))
    C = (unnormalized_chains(_diagonal_nerve(H, max_degree)) if route == "diag"
         else _tot_chains(H, max_degree, normalize_rows))
    return homology_table(_CodedTop(H, D, route, normalize_rows).extend(C, 0), max_degree)


# ---------------------------------------------------------------------------
# normed groups, grading by grading


class _NormedNerves(_HomNerves):
    """One object, "*", whose hom is the unnormalized metric nerve of the
    group: every column up to degree max_q, decoded from _enumerate_tuples'
    walk, by increasing length (within one, lexicographic in element
    order). Lengths are the walk's, integers over its common denominator
    scale."""

    def __init__(self, N: NormedGroup, max_q: int):
        G = N.group
        X = metric_of_normed_group(N)
        walk = _enumerate_tuples(X, max_q, distinct=False)
        self.scale = walk.L
        self.between = _betweenness(X)
        self.mul = G.table
        self.unit = G.identity
        self.lengths, columns = {}, []
        for q, length in enumerate(walk.length):
            self.lengths.update(zip(walk.labels(q), length))
            columns.append(sorted(walk.labels(q), key=self.lengths.__getitem__))
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
    p + q <= max_total_degree + 1.
    """
    _check_max_degree(max_total_degree)
    T = max_total_degree + 1
    H, ell = _normed_slice(N, grading, _leg_degree("tot", T))
    return _double_nerve(H, T, T, T, ell)


def diag_nerve_normed_group(
    N: NormedGroup, grading, max_degree: int
) -> BasedSimplicialObject:
    """Diagonal slice: degree n is the paths of n columns of n+1 elements
    of total length equal to the grading, with composite faces and
    degeneracies."""
    H, ell = _normed_slice(N, grading, max_degree)
    return _assemble_diagonal(H, max_degree, ell)


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
    can see). Either route tabulates each slice through total degree
    max_degree and streams the boundary out of degree max_degree + 1 from
    one _CodedTop, built once per call, whose hom nerves the tot route's
    slices share.
    """
    _check_route(route, normalize_rows)
    _check_max_degree(max_degree)
    ells = resolve_gradings(gradings, {
        "norm-values": lambda: sorted({Fraction(0), *N.norm.values()}),
        "all-reachable": partial(reachable_normed_gradings, N, max_degree, route)})
    D = max_degree + 1
    H = _NormedNerves(N, _leg_degree(route, D))
    top = _CodedTop(H, D, route, normalize_rows)
    entries = {}
    for ell in ells:
        units = H.units(ell)
        if route == "diag":
            C = unnormalized_chains(diag_nerve_normed_group(N, ell, max_degree))
        else:
            C = _tot_chains(H, max_degree, normalize_rows, units)
        table = homology_table(top.extend(C, units), max_degree)
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
