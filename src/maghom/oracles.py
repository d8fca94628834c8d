"""Closed-form predictions, implemented independently of the chain pipeline.

Each function here computes what a structural theorem says the answer must
be, using only counting, scanning, and the shared exact linear algebra.
The test suite and the CLI `verify` command hold the pipeline to these.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import HomologyTable, _check_max_degree, grading_values
from .enriched_data import (
    CatGroup,
    GenMetricSpace,
    NormedGroup,
    category_from_group,
    component_group,
    indecomposables,
)
from .errors import ValidationError
from .exact_linalg import FgAbelianGroup, IntMatrix, homology_between, tensor_fg, tor_fg
from .groups import FinGroup


def oracle_mh1_metric(X: GenMetricSpace, ell) -> FgAbelianGroup:
    """Degree-1 homology at a grading: free on the ordered adjacent pairs
    of distinct points at that distance."""
    from .enriched_data import d_add

    (ell,) = grading_values([ell])
    count = 0
    for x in X.points:
        for y in X.points:
            if x == y or X.d(x, y) != ell:
                continue
            witness = any(
                z != x and z != y and X.d(x, y) == d_add(X.d(x, z), X.d(z, y))
                for z in X.points
            )
            if not witness:
                count += 1
    return FgAbelianGroup(count)


def abelianization(G: FinGroup) -> FgAbelianGroup:
    """G made abelian, presented by one generator per element and the
    relations a + b = ab, then read off a Smith normal form."""
    idx = {g: i for i, g in enumerate(G.elements)}
    cols = []
    for a in G.elements:
        for b in G.elements:
            col: dict[int, int] = {}
            for g, c in ((a, 1), (b, 1), (G.mul(a, b), -1)):
                i = idx[g]
                nv = col.get(i, 0) + c
                if nv:
                    col[i] = nv
                else:
                    col.pop(i, None)
            cols.append(col)
    rel = IntMatrix.from_columns(len(G.elements), cols)
    return homology_between(IntMatrix.zero(0, len(G.elements)), rel)


def oracle_mh01_catgroup(C: CatGroup) -> tuple[FgAbelianGroup, FgAbelianGroup]:
    """(Z, abelianized group of connected components)."""
    con = component_group(C)
    return FgAbelianGroup(1), abelianization(con)


def oracle_mh2_normed(N: NormedGroup, ell) -> FgAbelianGroup:
    """Free on the conjugacy classes of indecomposable elements of norm ell."""
    (ell,) = grading_values([ell])
    if ell <= 0:
        raise ValidationError("only positive gradings are covered by this count")
    G = N.group
    at_norm = [g for g in indecomposables(N) if N.norm[g] == ell]
    classes = set()
    for g in at_norm:
        classes.add(frozenset(G.conjugate(h, g) for h in G.elements))
    return FgAbelianGroup(len(classes))


def oracle_group_homology(G: FinGroup, max_degree: int) -> HomologyTable:
    """Group homology through the one-object nerve; this never touches the
    iterated construction, so it can sit on the other side of a check."""
    from .magnitude_core import category_homology

    return category_homology(category_from_group(G), max_degree)


def oracle_catgroup(C: CatGroup, max_degree: int) -> HomologyTable:
    """Iterated magnitude homology of a Cat-group whose unit has no
    automorphism but its identity, as two_group_from_normal_subgroup makes
    them: the homology of its classifying space, which is that of its group
    of components, so the group homology of that quotient. It touches no
    iterated code."""
    e = C.group.identity
    if len(C.cells.hom(e, e)) != 1:
        raise ValidationError("the unit has automorphisms other than its identity, "
                              "so the components alone do not give the homology")
    return oracle_group_homology(component_group(C), max_degree)


def oracle_suspension(table: HomologyTable, max_degree: int) -> HomologyTable:
    """Predicted homology of a suspension from the homology of the inside.

    Degree 0 is Z; degree k >= 2 copies degree k-1 of the input; degree 1
    is free of rank one less than the rank of the input's degree 0, which
    must be free and nonzero.
    """
    _check_max_degree(max_degree)
    h0 = table.group(0)
    if h0.torsion:
        raise ValidationError("degree-0 homology with torsion cannot feed the shift")
    if h0.free_rank == 0:
        raise ValidationError("empty inside; the suspension prediction needs a 0-cell")
    entries = {(0, None): FgAbelianGroup(1), (1, None): FgAbelianGroup(h0.free_rank - 1)}
    for k in range(2, max_degree + 1):
        entries[(k, None)] = table.group(k - 1)
    return HomologyTable(entries)


def _kunneth_at(HX: HomologyTable, HY: HomologyTable, n: int,
                rx, sy) -> FgAbelianGroup:
    out = FgAbelianGroup()
    for j in range(n + 1):
        out = out.direct_sum(tensor_fg(HX.group(j, rx), HY.group(n - j, sy)))
    for j in range(n + 1):
        out = out.direct_sum(tor_fg(HX.group(j, rx), HY.group(n - j - 1, sy)))
    return out


def oracle_kunneth(HX: HomologyTable, HY: HomologyTable, max_degree: int) -> HomologyTable:
    """The split form of the product formula: tensor terms in degree n plus
    Tor terms one degree down, summed over grading splittings when the
    inputs are graded."""
    _check_max_degree(max_degree)
    gx, gy = HX.gradings(), HY.gradings()
    entries = {}
    if gx == [None] or gy == [None]:
        if not (gx == [None] and gy == [None]):
            raise ValidationError("cannot mix graded and ungraded tables")
        for n in range(max_degree + 1):
            entries[(n, None)] = _kunneth_at(HX, HY, n, None, None)
        return HomologyTable(entries)
    for n in range(max_degree + 1):
        per_ell: dict[Fraction, FgAbelianGroup] = {}
        for r in gx:
            for s in gy:
                ell = r + s
                term = _kunneth_at(HX, HY, n, r, s)
                per_ell[ell] = per_ell.get(ell, FgAbelianGroup()).direct_sum(term)
        for ell, grp in per_ell.items():
            entries[(n, ell)] = grp
    return HomologyTable(entries)
