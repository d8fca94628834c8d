"""Based simplicial and bisimplicial objects in free abelian groups.

Face maps send each generator to a single generator or to zero; degeneracy
maps send generators to generators, injectively. This is the shape of every
nerve built in this package, and it makes normalization a basis filter:
the quotient by degenerate generators just drops them from the basis.
Every nerve builder supplies generator-level maps, and assemble_simplicial
or assemble_bisimplicial tabulates them into these objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Hashable, Mapping, Optional

from .complexes import (
    BasedChainComplex,
    BasedDoubleComplex,
    validate_double_complex,
)
from .errors import ValidationError
from .exact_linalg import IntMatrix

Label = Hashable


@dataclass(frozen=True)
class BasedSimplicialObject:
    """Degrees 0..D; face[n][i] and degeneracy[n][i] act on generators.

    face[n] is a tuple of n+1 maps (degree n -> n-1, present for n >= 1,
    value None means zero); degeneracy[n] is a tuple of n+1 maps
    (degree n -> n+1, present for n < D).
    """

    basis: tuple[tuple[Label, ...], ...]
    face: tuple[tuple[Mapping[Label, Optional[Label]], ...], ...]
    degeneracy: tuple[tuple[Mapping[Label, Label], ...], ...]

    @property
    def max_degree(self) -> int:
        return len(self.basis) - 1

    def dim(self, n: int) -> int:
        return len(self.basis[n]) if 0 <= n <= self.max_degree else 0


def _compose(f: Mapping, g: Mapping, x):
    """Apply g then f, propagating zero (None)."""
    y = g.get(x)
    return None if y is None else f.get(y)


def validate_simplicial(S: BasedSimplicialObject) -> None:
    D = S.max_degree
    if len(S.face) != D + 1 or len(S.degeneracy) != max(D, 0):
        raise ValidationError("face/degeneracy tables have the wrong length")
    for n in range(D + 1):
        seen = set(S.basis[n])
        if len(seen) != len(S.basis[n]):
            raise ValidationError(f"duplicate generator labels in degree {n}")
        if n >= 1:
            if len(S.face[n]) != n + 1:
                raise ValidationError(f"degree {n} needs {n + 1} face maps")
            lower = set(S.basis[n - 1])
            for i, fm in enumerate(S.face[n]):
                if set(fm) != seen:
                    raise ValidationError(f"face {i} in degree {n} not defined on the basis")
                for v in fm.values():
                    if v is not None and v not in lower:
                        raise ValidationError(
                            f"face {i} in degree {n} leaves the basis: {v!r}"
                        )
        if n < D:
            if len(S.degeneracy[n]) != n + 1:
                raise ValidationError(f"degree {n} needs {n + 1} degeneracy maps")
            upper = set(S.basis[n + 1])
            for i, sm in enumerate(S.degeneracy[n]):
                if set(sm) != seen:
                    raise ValidationError(
                        f"degeneracy {i} in degree {n} not defined on the basis"
                    )
                if any(v not in upper for v in sm.values()):
                    raise ValidationError(f"degeneracy {i} in degree {n} leaves the basis")
                if len(set(sm.values())) != len(sm):
                    raise ValidationError(f"degeneracy {i} in degree {n} is not injective")

    # simplicial identities, checked on every generator
    for n in range(2, D + 1):
        for j in range(n + 1):
            for i in range(j):
                fi, fj = S.face[n - 1][i], S.face[n][j]
                fjm, fi2 = S.face[n - 1][j - 1], S.face[n][i]
                for x in S.basis[n]:
                    if _compose(fi, fj, x) != _compose(fjm, fi2, x):
                        raise ValidationError(
                            f"face identity d{i} d{j} failed in degree {n} on {x!r}"
                        )
    for n in range(D - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                si, sj = S.degeneracy[n + 1][j + 1], S.degeneracy[n][i]
                sj2, si2 = S.degeneracy[n + 1][i], S.degeneracy[n][j]
                for x in S.basis[n]:
                    if si[sj[x]] != sj2[si2[x]]:
                        raise ValidationError(
                            f"degeneracy identity s{i} s{j} failed in degree {n} on {x!r}"
                        )
    for n in range(D):
        for j in range(n + 1):
            for i in range(n + 2):
                sj = S.degeneracy[n][j]
                di = S.face[n + 1][i]
                for x in S.basis[n]:
                    got = di.get(sj[x])
                    if i == j or i == j + 1:
                        want = x
                    elif i < j:
                        y = S.face[n][i].get(x) if n >= 1 else None
                        want = None if y is None else S.degeneracy[n - 1][j - 1][y]
                    else:
                        y = S.face[n][i - 1].get(x) if n >= 1 else None
                        want = None if y is None else S.degeneracy[n - 1][j][y]
                    if got != want:
                        raise ValidationError(
                            f"mixed identity d{i} s{j} failed in degree {n} on {x!r}"
                        )


def assemble_simplicial(basis, face, degen) -> BasedSimplicialObject:
    """Tabulate generator-level structure maps over a graded basis.

    face(n, i, x) is the i-th face of x in degree n >= 1 (None for zero)
    and degen(n, i, x) its i-th degeneracy, asked for below the top degree.
    Every value is stored as the basis label object it equals, so the
    tables hold no copies of labels; a value outside the basis raises.
    """
    basis = tuple(tuple(b) for b in basis)
    D = len(basis) - 1
    labels = [{x: x for x in level} for level in basis]

    def table(kind, f, n, i, target):
        out = {}
        for x in basis[n]:
            y = f(n, i, x)
            if y is not None:
                try:
                    y = target[y]
                except KeyError:
                    raise ValidationError(
                        f"{kind} {i} in degree {n} leaves the basis: {y!r}"
                    ) from None
            out[x] = y
        return out

    faces = ((),) + tuple(
        tuple(table("face", face, n, i, labels[n - 1]) for i in range(n + 1))
        for n in range(1, D + 1)
    )
    degens = tuple(
        tuple(table("degeneracy", degen, n, i, labels[n + 1]) for i in range(n + 1))
        for n in range(D)
    )
    return BasedSimplicialObject(basis, faces, degens)


def _alternating_matrix(
    source: tuple, target: tuple, maps: tuple, keep: Optional[set] = None
) -> IntMatrix:
    index = {lab: i for i, lab in enumerate(target)}
    cols = []
    for x in source:
        col: dict[int, int] = {}
        for i, fm in enumerate(maps):
            y = fm.get(x)
            if y is None or (keep is not None and y not in keep):
                continue
            t = index[y]
            nv = col.get(t, 0) + (-1 if i % 2 else 1)
            if nv:
                col[t] = nv
            else:
                col.pop(t, None)
        cols.append(col)
    return IntMatrix(len(target), len(cols), tuple(cols))


def unnormalized_chains(S: BasedSimplicialObject) -> BasedChainComplex:
    """Chains with differential the alternating sum of all face maps."""
    D = S.max_degree
    boundary = [IntMatrix.zero(0, S.dim(0))]
    for n in range(1, D + 1):
        boundary.append(_alternating_matrix(S.basis[n], S.basis[n - 1], S.face[n]))
    return BasedChainComplex(S.basis, tuple(boundary), D - 1)


def _images(degeneracies) -> set:
    """The generators in the image of some map among degeneracies."""
    return {y for sm in degeneracies for y in sm.values()}


def degenerate_labels(S: BasedSimplicialObject, n: int) -> set:
    """Generators of degree n in the image of some degeneracy."""
    return _images(S.degeneracy[n - 1]) if n else set()


def normalized_chains(S: BasedSimplicialObject) -> BasedChainComplex:
    """Quotient by the degenerate generators.

    The basis keeps only nondegenerate generators; face terms landing on a
    degenerate generator are sent to zero rather than rewritten.
    """
    D = S.max_degree
    nondeg = []
    for n in range(D + 1):
        degenerate = degenerate_labels(S, n)
        nondeg.append(tuple(lab for lab in S.basis[n] if lab not in degenerate))
    boundary = [IntMatrix.zero(0, len(nondeg[0]))]
    for n in range(1, D + 1):
        keep = set(nondeg[n - 1])
        boundary.append(
            _alternating_matrix(nondeg[n], nondeg[n - 1], S.face[n], keep=keep)
        )
    return BasedChainComplex(tuple(nondeg), tuple(boundary), D - 1)


@dataclass(frozen=True)
class BasedBisimplicialObject:
    """Bidegrees in [0,P]x[0,Q], optionally cut to p + q <= total_bound.

    h_face[(p,q)] is a tuple of p+1 maps to (p-1,q) (stored for p >= 1);
    v_face[(p,q)] has q+1 maps to (p,q-1). Degeneracies are stored only
    where the target bidegree lies in the region.
    """

    P: int
    Q: int
    basis: Mapping[tuple[int, int], tuple[Label, ...]]
    h_face: Mapping[tuple[int, int], tuple[Mapping, ...]]
    v_face: Mapping[tuple[int, int], tuple[Mapping, ...]]
    h_degen: Mapping[tuple[int, int], tuple[Mapping, ...]]
    v_degen: Mapping[tuple[int, int], tuple[Mapping, ...]]
    total_bound: Optional[int] = None

    def present(self, p: int, q: int) -> bool:
        if not (0 <= p <= self.P and 0 <= q <= self.Q):
            return False
        return self.total_bound is None or p + q <= self.total_bound

    def dim(self, p: int, q: int) -> int:
        return len(self.basis.get((p, q), ()))

    def h_faces(self, p: int, q: int) -> tuple:
        got = self.h_face.get((p, q))
        return got if got is not None else tuple({} for _ in range(p + 1))

    def v_faces(self, p: int, q: int) -> tuple:
        got = self.v_face.get((p, q))
        return got if got is not None else tuple({} for _ in range(q + 1))

    def h_degens(self, p: int, q: int) -> tuple:
        got = self.h_degen.get((p, q))
        return got if got is not None else tuple({} for _ in range(p + 1))

    def v_degens(self, p: int, q: int) -> tuple:
        got = self.v_degen.get((p, q))
        return got if got is not None else tuple({} for _ in range(q + 1))


def _identity_check_1d(basis_at, face_at, degen_at, D, tag: str):
    """Check one row or column of a bisimplicial object as a simplicial
    object: table lengths, domains, targets, injective degeneracies and
    the simplicial identities.

    basis_at/face_at/degen_at map a 1d degree to data, for one frozen value
    of the other degree.
    """
    fake = BasedSimplicialObject(
        tuple(tuple(basis_at(n)) for n in range(D + 1)),
        tuple(tuple(face_at(n)) if n >= 1 else () for n in range(D + 1)),
        tuple(tuple(degen_at(n)) for n in range(D)),
    )
    try:
        validate_simplicial(fake)
    except ValidationError as e:
        raise ValidationError(f"{tag}: {e}") from None


def validate_bisimplicial(B: BasedBisimplicialObject) -> None:
    """Check the laws of a bisimplicial object: every basis lies in the
    region; every row (fixed q) and column (fixed p) is a simplicial
    object, checked by validate_simplicial; and every horizontal face or
    degeneracy commutes with every vertical one on each generator where
    both maps, their corner and both composites lie in the region."""
    for (p, q) in B.basis:
        if not B.present(p, q):
            raise ValidationError(f"basis stored outside the region at {(p, q)}")

    # each row and column is simplicial
    for q in range(B.Q + 1):
        pmax = B.P if B.total_bound is None else min(B.P, B.total_bound - q)
        if pmax < 0:
            continue
        _identity_check_1d(
            lambda p, q=q: B.basis.get((p, q), ()),
            lambda p, q=q: B.h_faces(p, q),
            lambda p, q=q: B.h_degens(p, q),
            pmax,
            f"row q={q}",
        )
    for p in range(B.P + 1):
        qmax = B.Q if B.total_bound is None else min(B.Q, B.total_bound - p)
        if qmax < 0:
            continue
        _identity_check_1d(
            lambda q, p=p: B.basis.get((p, q), ()),
            lambda q, p=p: B.v_faces(p, q),
            lambda q, p=p: B.v_degens(p, q),
            qmax,
            f"column p={p}",
        )

    # the two directions commute: a horizontal map (face or degeneracy,
    # moving p by dp) and a vertical one (moving q by dq) give the same
    # composite both ways round, wherever both ways stay in the region
    h_maps = (("face", -1, B.h_faces), ("degeneracy", 1, B.h_degens))
    v_maps = (("face", -1, B.v_faces), ("degeneracy", 1, B.v_degens))
    for (p, q), labels in B.basis.items():
        for (h_kind, dp, h), (v_kind, dq, v) in product(h_maps, v_maps):
            if not (B.present(p + dp, q) and B.present(p, q + dq)
                    and B.present(p + dp, q + dq)):
                continue
            for i, a in enumerate(h(p, q)):
                a_up = h(p, q + dq)[i]
                for j, b in enumerate(v(p, q)):
                    b_over = v(p + dp, q)[j]
                    for x in labels:
                        if _compose(b_over, a, x) != _compose(a_up, b, x):
                            raise ValidationError(
                                f"h-{h_kind} {i} and v-{v_kind} {j} do not "
                                f"commute at {(p, q)}"
                            )


def assemble_bisimplicial(
    P, Q, total_bound, basis, h_face, v_face, h_degen, v_degen
) -> BasedBisimplicialObject:
    """Tabulate generator-level structure maps over every present bidegree.

    basis(p, q) lists the generators; h_face(p, q, i, x) and v_face(p, q, j, x)
    give faces out of (p, q) (None for zero), h_degen and v_degen the
    degeneracies, which are only asked for when their target is present.
    """
    B = BasedBisimplicialObject(P, Q, {}, {}, {}, {}, {}, total_bound)
    for p in range(P + 1):
        for q in range(Q + 1):
            if not B.present(p, q):
                continue
            gens = B.basis[(p, q)] = tuple(basis(p, q))
            if p >= 1:
                B.h_face[(p, q)] = tuple(
                    {x: h_face(p, q, i, x) for x in gens} for i in range(p + 1)
                )
            if q >= 1:
                B.v_face[(p, q)] = tuple(
                    {x: v_face(p, q, j, x) for x in gens} for j in range(q + 1)
                )
            if B.present(p + 1, q):
                B.h_degen[(p, q)] = tuple(
                    {x: h_degen(p, q, i, x) for x in gens} for i in range(p + 1)
                )
            if B.present(p, q + 1):
                B.v_degen[(p, q)] = tuple(
                    {x: v_degen(p, q, j, x) for x in gens} for j in range(q + 1)
                )
    return B


def diagonal_maps(h_face, v_face, h_degen, v_degen):
    """Face and degeneracy of the diagonal, from generator-level
    bisimplicial maps in the signature of assemble_bisimplicial.

    In degree n, the i-th face is the i-th vertical face out of (n, n)
    followed by the i-th horizontal face out of (n, n-1); degeneracies
    compose the same way upwards.
    """

    def face(n, i, x):
        y = v_face(n, n, i, x)
        return None if y is None else h_face(n, n - 1, i, y)

    def degen(n, i, x):
        return h_degen(n, n + 1, i, v_degen(n, n, i, x))

    return face, degen


def diagonal(B: BasedBisimplicialObject) -> BasedSimplicialObject:
    """Restrict to bidegrees (n,n); faces and degeneracies compose both ways."""
    if B.P != B.Q or B.total_bound is not None:
        raise ValidationError("diagonal requires a square truncation")
    return assemble_simplicial(
        (B.basis.get((n, n), ()) for n in range(B.P + 1)),
        *diagonal_maps(
            lambda p, q, i, x: B.h_faces(p, q)[i].get(x),
            lambda p, q, j, x: B.v_faces(p, q)[j].get(x),
            lambda p, q, i, x: B.h_degens(p, q)[i][x],
            lambda p, q, j, x: B.v_degens(p, q)[j][x],
        ),
    )


def _double_complex(B: BasedBisimplicialObject, basis: dict, drop: bool) -> BasedDoubleComplex:
    """Alternating-sum boundaries of B on a sub-basis. With drop, face terms
    that leave the sub-basis are sent to zero rather than rewritten."""

    def matrix(labels, target, maps):
        return _alternating_matrix(labels, target, maps, keep=set(target) if drop else None)

    horizontal = {}
    vertical = {}
    for (p, q), labels in basis.items():
        if p >= 1:
            horizontal[(p, q)] = matrix(labels, basis.get((p - 1, q), ()), B.h_faces(p, q))
        if q >= 1:
            vertical[(p, q)] = matrix(labels, basis.get((p, q - 1), ()), B.v_faces(p, q))
    C = BasedDoubleComplex(B.P, B.Q, basis, horizontal, vertical, B.total_bound)
    validate_double_complex(C)
    return C


def double_chains(B: BasedBisimplicialObject) -> BasedDoubleComplex:
    """Alternating-sum boundaries in both directions, no normalization."""
    return _double_complex(B, dict(B.basis), drop=False)


def row_normalize(B: BasedBisimplicialObject) -> BasedDoubleComplex:
    """Normalize every row (horizontal direction), keep columns unnormalized.

    Total homology is unchanged; the rows often collapse dramatically.
    """
    nondeg = {}
    for (p, q), labels in B.basis.items():
        degenerate = _images(B.h_degen.get((p - 1, q), ()))
        nondeg[(p, q)] = tuple(lab for lab in labels if lab not in degenerate)
    return _double_complex(B, nondeg, drop=True)


def external_product(
    A: BasedSimplicialObject, Bs: BasedSimplicialObject
) -> BasedBisimplicialObject:
    """Bisimplicial object with (p,q) part A_p x B_q.

    Horizontal structure acts on the first factor, vertical on the second,
    so the total complex of its chains is the tensor of the two chain
    complexes and the diagonal is the degreewise tensor.
    """

    def h_face(p, q, i, x):
        a = A.face[p][i].get(x[0])
        return None if a is None else (a, x[1])

    def v_face(p, q, j, x):
        b = Bs.face[q][j].get(x[1])
        return None if b is None else (x[0], b)

    return assemble_bisimplicial(
        A.max_degree, Bs.max_degree, None,
        lambda p, q: ((a, b) for a in A.basis[p] for b in Bs.basis[q]),
        h_face,
        v_face,
        lambda p, q, i, x: (A.degeneracy[p][i][x[0]], x[1]),
        lambda p, q, j, x: (x[0], Bs.degeneracy[q][j][x[1]]),
    )
