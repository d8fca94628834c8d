"""Validated finite presentations of enriched structures.

Ordinary categories, generalized metric spaces, groups with a
conjugation-invariant norm, Cat-groups (groups whose elements form a
category with multiplication acting functorially), preordered groups, and
a restricted family of strict n-categories closed under suspension.

Composition is written in diagram order throughout: the composite of
f: x -> y followed by g: y -> z is compose(g, f), and for a group viewed
as a one-object category that composite is mul(f, g).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Optional

from .complexes import _check_count
from .errors import ValidationError
from .groups import FinGroup

INF = float("inf")


def d_add(a, b):
    """Sum of two distances; infinity absorbs."""
    if a is INF or b is INF:
        return INF
    return a + b


def as_fraction(x) -> Fraction:
    """A Fraction, an int, or a string that parses as a rational, as a
    Fraction. A bool is refused, not read as 0 or 1."""
    if isinstance(x, (Fraction, int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"not an exact rational: {x!r}")


# ---------------------------------------------------------------------------
# ordinary categories


class StrictNCat:
    """Base for the presentable n-category families: a set (level 0), a
    category (FinCategory, level 1), a suspension, and an explicit
    2-category."""

    level: int


@dataclass(frozen=True)
class FinCategory(StrictNCat):
    """A finite category, the level-1 strict n-category: objects, morphism
    labels, identities, composites.

    Morphism labels are globally unique. compose maps (g, f) with
    f: x -> y, g: y -> z to the label of the composite x -> z.
    """

    objects: tuple
    morphisms: tuple
    source: Mapping
    target: Mapping
    identity: Mapping
    compose: Mapping

    level = 1

    def hom(self, x, y) -> tuple:
        return tuple(
            m for m in self.morphisms if self.source[m] == x and self.target[m] == y
        )

    def composable(self, g, f) -> bool:
        return self.target[f] == self.source[g]


def validate_category(X: FinCategory) -> None:
    """Check labels, endpoints and identities, then the composites and the
    unit and associativity laws. Composable pairs and triples are walked
    through an index of morphisms by target, so the cost is the number of
    composable triples, not the cube of the morphisms; a composite on a
    pair that is not composable is found among compose's keys."""
    objs = set(X.objects)
    if len(objs) != len(X.objects):
        raise ValidationError("duplicate object labels")
    mors = set(X.morphisms)
    if len(mors) != len(X.morphisms):
        raise ValidationError("duplicate morphism labels")
    for m in X.morphisms:
        if X.source.get(m) not in objs or X.target.get(m) not in objs:
            raise ValidationError(f"morphism {m!r} has a bad endpoint")
    for x in X.objects:
        i = X.identity.get(x)
        if i not in mors or X.source[i] != x or X.target[i] != x:
            raise ValidationError(f"identity of {x!r} is not an endomorphism")
    extra = set(X.identity) - objs
    if extra:
        raise ValidationError(f"identities given for non-objects {sorted(map(repr, extra))}")
    into: dict = {x: [] for x in X.objects}  # morphisms by target, in order
    for m in X.morphisms:
        into[X.target[m]].append(m)
    for g in X.morphisms:
        for f in into[X.source[g]]:
            h = X.compose.get((g, f))
            if h not in mors:
                raise ValidationError(f"composite of ({g!r}, {f!r}) missing")
            if X.source[h] != X.source[f] or X.target[h] != X.target[g]:
                raise ValidationError(f"composite of ({g!r}, {f!r}) has bad endpoints")
    for key in X.compose:
        if isinstance(key, tuple) and len(key) == 2:
            g, f = key
            if g in mors and f in mors and not X.composable(g, f):
                raise ValidationError(f"composite defined on non-composable ({g!r}, {f!r})")
    for f in X.morphisms:
        if X.compose[(f, X.identity[X.source[f]])] != f:
            raise ValidationError(f"right unit law fails at {f!r}")
        if X.compose[(X.identity[X.target[f]], f)] != f:
            raise ValidationError(f"left unit law fails at {f!r}")
    for h in X.morphisms:
        for g in into[X.source[h]]:
            hg = X.compose[(h, g)]
            for f in into[X.source[g]]:
                if X.compose[(hg, f)] != X.compose[(h, X.compose[(g, f)])]:
                    raise ValidationError(
                        f"associativity fails on ({h!r}, {g!r}, {f!r})"
                    )


def make_category(objects, morphisms, source, target, identity, compose) -> FinCategory:
    X = FinCategory(
        tuple(objects), tuple(morphisms), dict(source), dict(target),
        dict(identity), dict(compose),
    )
    validate_category(X)
    return X


def terminal_category() -> FinCategory:
    return make_category(
        ["*"], ["id"], {"id": "*"}, {"id": "*"}, {"*": "id"}, {("id", "id"): "id"}
    )


def discrete_category(objects: Iterable) -> FinCategory:
    objects = tuple(objects)
    ids = {x: ("id", x) for x in objects}
    return make_category(
        objects,
        [ids[x] for x in objects],
        {ids[x]: x for x in objects},
        {ids[x]: x for x in objects},
        ids,
        {(ids[x], ids[x]): ids[x] for x in objects},
    )


def parallel_arrows_category() -> FinCategory:
    """Two objects A, B and two parallel arrows f, g: A -> B."""
    source = {"idA": "A", "idB": "B", "f": "A", "g": "A"}
    target = {"idA": "A", "idB": "B", "f": "B", "g": "B"}
    compose = {
        ("idA", "idA"): "idA", ("idB", "idB"): "idB",
        ("f", "idA"): "f", ("g", "idA"): "g",
        ("idB", "f"): "f", ("idB", "g"): "g",
    }
    return make_category(["A", "B"], ["idA", "idB", "f", "g"], source, target,
                         {"A": "idA", "B": "idB"}, compose)


def category_from_group(G: FinGroup) -> FinCategory:
    """The one-object category with morphisms the elements of G.

    compose(g, f) = mul(f, g): the composite of 'f then g' multiplies in
    tuple order, matching every other nerve built in this package.
    """
    obj = "*"
    mors = G.elements
    return make_category(
        [obj], mors,
        {m: obj for m in mors}, {m: obj for m in mors},
        {obj: G.identity},
        {(g, f): G.mul(f, g) for g in mors for f in mors},
    )


def category_from_preorder(elements: Iterable, leq: Iterable[tuple]) -> FinCategory:
    """Category of a preorder; one morphism (x, y) whenever x <= y.

    The relation is closed transitively through one intermediate element
    at a time (Warshall), and each morphism g composes with the morphisms
    into its source, so both cost the cube of the elements at most.
    """
    elements = tuple(elements)
    above: dict = {x: {x} for x in elements}
    for a, b in leq:
        above.setdefault(a, set()).add(b)
    for k in above:
        for ups in above.values():
            if k in ups:
                ups |= above[k]
    mors = sorted((a, b) for a, ups in above.items() for b in ups)
    into: dict = {}
    for f in mors:
        into.setdefault(f[1], []).append(f)
    return make_category(
        elements, mors,
        {m: m[0] for m in mors}, {m: m[1] for m in mors},
        {x: (x, x) for x in elements},
        {(g, f): (f[0], g[1]) for g in mors for f in into.get(g[0], ())},
    )


def linear_order_category(n: int) -> FinCategory:
    _check_count(n, "number of elements")
    return category_from_preorder(range(n), [(i, i + 1) for i in range(n - 1)])


def product_category(X: FinCategory, Y: FinCategory) -> FinCategory:
    objects = tuple(product(X.objects, Y.objects))
    mors = tuple(product(X.morphisms, Y.morphisms))
    compose = {}
    for (g1, g2) in mors:
        for (f1, f2) in mors:
            if X.composable(g1, f1) and Y.composable(g2, f2):
                compose[((g1, g2), (f1, f2))] = (
                    X.compose[(g1, f1)], Y.compose[(g2, f2)]
                )
    return make_category(
        objects, mors,
        {(m1, m2): (X.source[m1], Y.source[m2]) for (m1, m2) in mors},
        {(m1, m2): (X.target[m1], Y.target[m2]) for (m1, m2) in mors},
        {(x, y): (X.identity[x], Y.identity[y]) for (x, y) in objects},
        compose,
    )


# ---------------------------------------------------------------------------
# generalized metric spaces


@dataclass(frozen=True)
class GenMetricSpace:
    """Finite point set with an exact, possibly asymmetric, metric.

    Distances are nonnegative Fractions or INF. Separatedness is required:
    d(x, y) = 0 only when x = y. Symmetry is not.
    """

    points: tuple
    dist: Mapping

    def d(self, x, y):
        return self.dist[(x, y)]


def validate_metric(X: GenMetricSpace) -> None:
    pts = set(X.points)
    if len(pts) != len(X.points):
        raise ValidationError("duplicate point labels")
    for x in X.points:
        for y in X.points:
            v = X.dist.get((x, y))
            if v is None:
                raise ValidationError(f"distance undefined on ({x!r}, {y!r})")
            if v is not INF and (not isinstance(v, Fraction) or v < 0):
                raise ValidationError(f"distance on ({x!r}, {y!r}) is not an exact nonnegative rational")
            if x == y and v != 0:
                raise ValidationError(f"d({x!r}, {x!r}) != 0")
            if x != y and v == 0:
                raise ValidationError(f"separatedness fails on ({x!r}, {y!r})")
    for x in X.points:
        for y in X.points:
            for z in X.points:
                if X.d(x, z) > d_add(X.d(x, y), X.d(y, z)):
                    raise ValidationError(
                        f"triangle inequality fails on ({x!r}, {y!r}, {z!r})"
                    )


def make_metric_space(points, dist) -> GenMetricSpace:
    norm = {}
    for k, v in dict(dist).items():
        norm[k] = INF if v is INF else as_fraction(v)
    X = GenMetricSpace(tuple(points), norm)
    validate_metric(X)
    return X


def metric_from_digraph(vertices: Iterable, edges: Iterable[tuple],
                        weights: Optional[Mapping] = None) -> GenMetricSpace:
    """Shortest directed path metric; unreachable pairs sit at infinity."""
    vs = tuple(vertices)
    dist = {(u, v): (Fraction(0) if u == v else INF) for u in vs for v in vs}
    for e in edges:
        u, v = e
        if u not in vs or v not in vs:
            raise ValidationError(f"edge ({u!r}, {v!r}) names an undeclared vertex")
        w = as_fraction(weights[e]) if weights is not None else Fraction(1)
        if w <= 0:
            raise ValidationError("edge weights must be positive")
        if w < dist[(u, v)]:
            dist[(u, v)] = w
    for k in vs:
        for i in vs:
            for j in vs:
                via = d_add(dist[(i, k)], dist[(k, j)])
                if via < dist[(i, j)]:
                    dist[(i, j)] = via
    return make_metric_space(vs, dist)


def cycle_digraph(n: int) -> GenMetricSpace:
    _check_count(n, "number of vertices")
    return metric_from_digraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def cycle_graph(n: int) -> GenMetricSpace:
    _check_count(n, "number of vertices")
    edges = [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    return metric_from_digraph(range(n), edges)


def complete_graph(n: int) -> GenMetricSpace:
    _check_count(n, "number of vertices")
    return metric_from_digraph(
        range(n), [(i, j) for i in range(n) for j in range(n) if i != j]
    )


def discrete_space(n: int, d) -> GenMetricSpace:
    """n points, every two distinct points at mutual distance d (or INF)."""
    _check_count(n, "number of points")
    val = INF if d is INF else as_fraction(d)
    if val is not INF and val <= 0:
        raise ValidationError("separation distance must be positive")
    pts = tuple(range(n))
    dist = {(x, y): (Fraction(0) if x == y else val) for x in pts for y in pts}
    return make_metric_space(pts, dist)


def one_point_space() -> GenMetricSpace:
    return discrete_space(1, 1)


def tensor_metric(X: GenMetricSpace, Y: GenMetricSpace) -> GenMetricSpace:
    """Product points with the l1 combination of the two metrics."""
    pts = tuple(product(X.points, Y.points))
    dist = {
        ((x, y), (x2, y2)): d_add(X.d(x, x2), Y.d(y, y2))
        for (x, y) in pts
        for (x2, y2) in pts
    }
    return make_metric_space(pts, dist)


# ---------------------------------------------------------------------------
# normed groups


@dataclass(frozen=True)
class NormedGroup:
    """A finite group with a conjugation-invariant norm.

    The induced (generally asymmetric) metric is d(g, h) = |g h^-1|.
    """

    group: FinGroup
    norm: Mapping

    def d(self, g, h) -> Fraction:
        return self.norm[self.group.mul(g, self.group.inv(h))]


def validate_normed_group(N: NormedGroup) -> None:
    G = N.group
    for g in G.elements:
        v = N.norm.get(g)
        if not isinstance(v, Fraction) or v < 0:
            raise ValidationError(f"norm of {g!r} is not an exact nonnegative rational")
    if N.norm[G.identity] != 0:
        raise ValidationError("the identity must have norm 0")
    for g in G.elements:
        if g != G.identity and N.norm[g] == 0:
            raise ValidationError(f"nonidentity element {g!r} has norm 0")
    for g in G.elements:
        for h in G.elements:
            if N.norm[G.mul(g, h)] > N.norm[g] + N.norm[h]:
                raise ValidationError(f"norm is not subadditive on ({g!r}, {h!r})")
            if N.norm[G.conjugate(g, h)] != N.norm[h]:
                raise ValidationError(
                    f"norm is not conjugation invariant on ({g!r}, {h!r})"
                )


def make_normed_group(G: FinGroup, norm: Mapping) -> NormedGroup:
    N = NormedGroup(G, {g: as_fraction(v) for g, v in dict(norm).items()})
    validate_normed_group(N)
    return N


def word_norm_group(G: FinGroup, S: Iterable) -> NormedGroup:
    """Shortest word length in conjugates of S, with S closed under inverses.

    Requires S to normally generate G; otherwise some element has no word
    at all and this raises.
    """
    gens = G.subset(S, "word norm generator")
    gens |= {G.inv(s) for s in gens}
    conjugates = {G.conjugate(g, s) for g in G.elements for s in gens}
    dist = {G.identity: 0}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for c in conjugates:
                y = G.mul(x, c)
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    missing = [g for g in G.elements if g not in dist]
    if missing:
        raise ValidationError(
            f"the set does not normally generate the group; unreached: {missing!r}"
        )
    return make_normed_group(G, {g: Fraction(dist[g]) for g in G.elements})


def metric_of_normed_group(N: NormedGroup) -> GenMetricSpace:
    G = N.group
    pts = G.elements
    dist = {(g, h): N.d(g, h) for g in pts for h in pts}
    return make_metric_space(pts, dist)


def indecomposables(N: NormedGroup) -> list:
    """Elements g != e admitting no splitting |h| + |h^-1 g| = |g|."""
    G = N.group
    out = []
    for g in G.elements:
        if g == G.identity:
            continue
        split = any(
            N.norm[h] + N.norm[G.mul(G.inv(h), g)] == N.norm[g]
            for h in G.elements
            if h != G.identity and h != g
        )
        if not split:
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# Cat-groups and preordered groups


@dataclass(frozen=True)
class CatGroup:
    """A group whose elements are the objects of a category, with a
    horizontal multiplication making multiplication functorial.

    hmul maps a pair of morphisms (p: g1 -> g2, q: h1 -> h2) to a morphism
    g1 h1 -> g2 h2, in tuple order.
    """

    cells: FinCategory
    group: FinGroup
    hmul: Mapping


def validate_cat_group(C: CatGroup) -> None:
    """Check a Cat-group as the one-object 2-category it is. The object set
    is checked first, since that 2-category multiplies the objects as
    group elements."""
    validate_category(C.cells)
    if set(C.cells.objects) != set(C.group.elements):
        raise ValidationError("object set and group element set differ")
    _validate_two_cat(two_cat_of_cat_group(C))


def two_group_from_normal_subgroup(G: FinGroup, N: Iterable) -> CatGroup:
    """Objects are the elements of G; an arrow g -> kg for every k in N.

    Arrows multiply in the semidirect product: the product of (k, g) and
    (k2, g2) is (k * g k2 g^-1, g g2).
    """
    Nset = G.subset(N, "normal subgroup member")
    if G.subgroup_closure(Nset) != Nset:
        raise ValidationError("not a subgroup")
    if not G.is_normal(Nset):
        raise ValidationError("subgroup is not normal")
    members = sorted(Nset, key=repr)
    arrows = [(k, g) for k in members for g in G.elements]
    source = {(k, g): g for (k, g) in arrows}
    target = {(k, g): G.mul(k, g) for (k, g) in arrows}
    identity = {g: (G.identity, g) for g in G.elements}
    compose = {}
    for (k, g) in arrows:
        kg = G.mul(k, g)  # the arrows out of kg are (k2, kg), k2 in N
        for k2 in members:
            compose[((k2, kg), (k, g))] = (G.mul(k2, k), g)
    cells = make_category(G.elements, arrows, source, target, identity, compose)
    conj = {(g, k2): G.conjugate(g, k2) for g in G.elements for k2 in members}
    mul = G.table
    hmul = {((k, g), (k2, g2)): (mul[k, conj[g, k2]], mul[g, g2])
            for (k, g) in arrows for (k2, g2) in arrows}
    return CatGroup(cells, G, hmul)


def discrete_cat_group(G: FinGroup) -> CatGroup:
    return two_group_from_normal_subgroup(G, [G.identity])


def codiscrete_cat_group(G: FinGroup) -> CatGroup:
    return two_group_from_normal_subgroup(G, G.elements)


@dataclass(frozen=True)
class PreorderedGroup:
    """A finite group with a translation-invariant preorder."""

    group: FinGroup
    leq: frozenset


def validate_preordered_group(P: PreorderedGroup) -> None:
    G = P.group
    for g in G.elements:
        if (g, g) not in P.leq:
            raise ValidationError(f"preorder is not reflexive at {g!r}")
    for (a, b) in P.leq:
        for (c, d) in P.leq:
            if b == c and (a, d) not in P.leq:
                raise ValidationError(f"preorder is not transitive via ({a!r}, {b!r}, {d!r})")
    for (a, b) in P.leq:
        for k in G.elements:
            if (G.mul(a, k), G.mul(b, k)) not in P.leq:
                raise ValidationError("preorder is not right translation invariant")
            if (G.mul(k, a), G.mul(k, b)) not in P.leq:
                raise ValidationError("preorder is not left translation invariant")


def preordered_group_from_cone(G: FinGroup, cone: Iterable) -> PreorderedGroup:
    """g <= h iff h g^-1 lies in the cone.

    The cone must contain the identity and be closed under multiplication
    and conjugation. In a finite group such a cone is a normal subgroup,
    so the resulting preorder is symmetric.
    """
    P = G.subset(cone, "cone member")
    if G.subgroup_closure(P) != P:
        raise ValidationError(
            "cone must contain the identity and be closed under multiplication")
    if not G.is_normal(P):
        raise ValidationError("cone is not closed under conjugation")
    leq = frozenset(
        (g, h) for g in G.elements for h in G.elements
        if G.mul(h, G.inv(g)) in P
    )
    out = PreorderedGroup(G, leq)
    validate_preordered_group(out)
    return out


def positive_cone(P: PreorderedGroup) -> frozenset:
    e = P.group.identity
    return frozenset(g for g in P.group.elements if (e, g) in P.leq)


def cat_group_from_preordered(P: PreorderedGroup) -> CatGroup:
    """View the preorder as the hom structure of a Cat-group.

    Translation invariance makes g <= h exactly when h g^-1 lies in the
    positive cone, and in a finite group that cone is a normal subgroup;
    so this is the thin Cat-group of the cone, with the arrow g -> h
    labelled (h g^-1, g).
    """
    return two_group_from_normal_subgroup(P.group, positive_cone(P))


# ---------------------------------------------------------------------------
# connected components


def _components(objects: Iterable, edges: Iterable[tuple]) -> list[frozenset]:
    """The classes of the equivalence relation on objects that the edges,
    pairs of objects, generate (union-find)."""
    parent = {x: x for x in objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
    classes: dict = {}
    for x in parent:
        classes.setdefault(find(x), set()).add(x)
    return sorted((frozenset(v) for v in classes.values()), key=repr)


def connected_components_category(X: FinCategory) -> list[frozenset]:
    return _components(X.objects, ((X.source[m], X.target[m]) for m in X.morphisms))


def component_of_identity(C: CatGroup) -> frozenset:
    for cls in connected_components_category(C.cells):
        if C.group.identity in cls:
            return cls
    raise AssertionError("identity not found among components")


def component_group(C: CatGroup) -> FinGroup:
    """Quotient of the underlying group by the component of the identity.

    The component of the identity is a normal subgroup, so the components
    form a group under the inherited multiplication.
    """
    G = C.group
    E = component_of_identity(C)
    if not G.is_normal(E):
        raise ValidationError("component of the identity is not normal")
    classes = connected_components_category(C.cells)
    rep = {}
    for cls in classes:
        r = sorted(cls, key=repr)[0]
        for x in cls:
            rep[x] = r
    reps = tuple(sorted({rep[x] for x in G.elements}, key=repr))
    mul = {(a, b): rep[G.mul(a, b)] for a in reps for b in reps}
    return FinGroup(reps, mul, name=f"{G.name}/E")


# ---------------------------------------------------------------------------
# strict n-categories, restricted to suspensions and explicit low levels


@dataclass(frozen=True)
class NCatSet(StrictNCat):
    """Level 0: a finite set."""

    elements: tuple

    level = 0


@dataclass(frozen=True)
class NCatSuspension(StrictNCat):
    """Two objects A and B; hom(A, B) is the inner object, hom(B, A) is
    empty, and both endo-homs are terminal."""

    inner: StrictNCat

    @property
    def level(self) -> int:  # type: ignore[override]
        return self.inner.level + 1


@dataclass(frozen=True)
class Explicit2Cat(StrictNCat):
    """Level 2, with hom-categories and composition tables spelled out.

    compose_obj[(x,y,z)] maps (a, b) with a in hom(x,y), b in hom(y,z) to
    a 1-cell of hom(x,z), in diagram order; compose_mor acts the same way
    on 2-cells.
    """

    objects: tuple
    hom: Mapping
    id_onecell: Mapping
    compose_obj: Mapping
    compose_mor: Mapping

    level = 2


def validate_ncat(X: StrictNCat) -> None:
    if isinstance(X, NCatSet):
        if len(set(X.elements)) != len(X.elements):
            raise ValidationError("duplicate elements")
        return
    if isinstance(X, FinCategory):
        validate_category(X)
        return
    if isinstance(X, NCatSuspension):
        validate_ncat(X.inner)
        return
    if isinstance(X, Explicit2Cat):
        _validate_two_cat(X)
        return
    raise ValidationError(f"not a presentable n-category: {X!r}")


def _validate_two_cat(X: Explicit2Cat) -> None:
    objs = set(X.objects)
    if len(objs) != len(X.objects):
        raise ValidationError("duplicate object labels")
    for x in X.objects:
        for y in X.objects:
            H = X.hom.get((x, y))
            if H is None:
                raise ValidationError(f"hom({x!r}, {y!r}) missing")
            validate_category(H)
    for x in X.objects:
        if X.id_onecell.get(x) not in set(X.hom[(x, x)].objects):
            raise ValidationError(f"identity 1-cell of {x!r} missing")
    for x in X.objects:
        for y in X.objects:
            for z in X.objects:
                A, B, C = X.hom[(x, y)], X.hom[(y, z)], X.hom[(x, z)]
                cobj = X.compose_obj.get((x, y, z))
                cmor = X.compose_mor.get((x, y, z))
                if cobj is None or cmor is None:
                    raise ValidationError(f"composition at ({x!r}, {y!r}, {z!r}) missing")
                cells, arrows = set(C.objects), set(C.morphisms)
                for a in A.objects:
                    for b in B.objects:
                        if cobj.get((a, b)) not in cells:
                            raise ValidationError("composition leaves the hom-category")
                for p in A.morphisms:
                    for q in B.morphisms:
                        r = cmor.get((p, q))
                        if r not in arrows:
                            raise ValidationError("2-cell composition missing")
                        if C.source[r] != cobj[(A.source[p], B.source[q])] or C.target[
                            r
                        ] != cobj[(A.target[p], B.target[q])]:
                            raise ValidationError("2-cell composition has bad endpoints")
                # functoriality
                for a in A.objects:
                    for b in B.objects:
                        if cmor[(A.identity[a], B.identity[b])] != C.identity[cobj[(a, b)]]:
                            raise ValidationError("composition does not preserve identity 2-cells")
                # validate_category keys compose by exactly the composable pairs
                for (p2, p1), p in A.compose.items():
                    for (q2, q1), q in B.compose.items():
                        if cmor[(p, q)] != C.compose[(cmor[(p2, q2)], cmor[(p1, q1)])]:
                            raise ValidationError("interchange law fails")
    # strict units and associativity on 1-cells and 2-cells
    for x in X.objects:
        for y in X.objects:
            A = X.hom[(x, y)]
            for a in A.objects:
                if X.compose_obj[(x, x, y)][(X.id_onecell[x], a)] != a:
                    raise ValidationError("left unit 1-cell law fails")
                if X.compose_obj[(x, y, y)][(a, X.id_onecell[y])] != a:
                    raise ValidationError("right unit 1-cell law fails")
            idx = X.hom[(x, x)].identity[X.id_onecell[x]]
            idy = X.hom[(y, y)].identity[X.id_onecell[y]]
            for p in A.morphisms:
                if X.compose_mor[(x, x, y)][(idx, p)] != p:
                    raise ValidationError("left unit 2-cell law fails")
                if X.compose_mor[(x, y, y)][(p, idy)] != p:
                    raise ValidationError("right unit 2-cell law fails")
    for w in X.objects:
        for x in X.objects:
            for y in X.objects:
                for z in X.objects:
                    A, B, C = X.hom[(w, x)], X.hom[(x, y)], X.hom[(y, z)]
                    for cells, word, table in (
                        ((A.objects, B.objects, C.objects), "1-cell", X.compose_obj),
                        ((A.morphisms, B.morphisms, C.morphisms), "2-cell", X.compose_mor),
                    ):
                        wxy, xyz = table[(w, x, y)], table[(x, y, z)]
                        wyz, wxz = table[(w, y, z)], table[(w, x, z)]
                        for a in cells[0]:
                            for b in cells[1]:
                                ab = wxy[(a, b)]
                                for c in cells[2]:
                                    if wyz[(ab, c)] != wxz[(a, xyz[(b, c)])]:
                                        raise ValidationError(f"{word} associativity fails")


def suspension(X: StrictNCat) -> NCatSuspension:
    if not isinstance(X, StrictNCat):
        raise ValidationError(f"not an n-category: {X!r}")
    return NCatSuspension(X)


def sphere_ncat(n: int) -> StrictNCat:
    """Two parallel cells in every dimension up to n."""
    _check_count(n, "sphere dimension")
    if n == 0:
        return NCatSet(("cell0", "cell1"))
    return suspension(sphere_ncat(n - 1))


def suspension_category(X: NCatSuspension) -> FinCategory:
    """Materialize a level-1 suspension as an ordinary category."""
    inner = X.inner
    if not isinstance(inner, NCatSet):
        raise ValidationError("only a suspension of a set is a category")
    arrows = [("arr", e) for e in inner.elements]
    source = {a: "A" for a in arrows}
    target = {a: "B" for a in arrows}
    source.update({("id", "A"): "A", ("id", "B"): "B"})
    target.update({("id", "A"): "A", ("id", "B"): "B"})
    compose = {(("id", "A"), ("id", "A")): ("id", "A"),
               (("id", "B"), ("id", "B")): ("id", "B")}
    for a in arrows:
        compose[(a, ("id", "A"))] = a
        compose[(("id", "B"), a)] = a
    return make_category(
        ["A", "B"], [("id", "A"), ("id", "B"), *arrows], source, target,
        {"A": ("id", "A"), "B": ("id", "B")}, compose,
    )


def as_category(X: StrictNCat) -> FinCategory:
    """Present a level <= 1 object as an ordinary category."""
    if isinstance(X, FinCategory):
        return X
    if isinstance(X, NCatSet):
        return discrete_category(X.elements)
    if isinstance(X, NCatSuspension) and X.level == 1:
        return suspension_category(X)
    raise ValidationError(f"cannot present level {getattr(X, 'level', '?')} as a category")


def count_cells(X: StrictNCat, k: int) -> int:
    """Number of k-cells, identities included."""
    if k == 0:
        if isinstance(X, NCatSet):
            return len(X.elements)
        if isinstance(X, NCatSuspension):
            return 2
        if isinstance(X, (FinCategory, Explicit2Cat)):
            return len(X.objects)
        raise ValidationError("not a presentable n-category")
    if isinstance(X, NCatSet):
        return 0
    if isinstance(X, FinCategory):
        return len(X.morphisms) if k == 1 else 0
    if isinstance(X, Explicit2Cat):
        if k == 1:
            return sum(len(H.objects) for H in X.hom.values())
        if k == 2:
            return sum(len(H.morphisms) for H in X.hom.values())
        return 0
    if isinstance(X, NCatSuspension):
        # two terminal endo-homs contribute one cell each in every dimension
        return 2 + count_cells(X.inner, k - 1) if k <= X.level else 0
    raise ValidationError("not a presentable n-category")


def connected_components(X: StrictNCat) -> list[frozenset]:
    """Partition of the objects under the zig-zag closure of hom-nonemptiness."""
    if isinstance(X, NCatSet):
        return [frozenset([e]) for e in X.elements]
    if isinstance(X, FinCategory):
        return connected_components_category(X)
    if isinstance(X, Explicit2Cat):
        return _components(X.objects, (xy for xy in product(X.objects, repeat=2)
                                       if X.hom[xy].objects))
    if isinstance(X, NCatSuspension):
        if count_cells(X.inner, 0):
            return [frozenset(["A", "B"])]
        return [frozenset(["A"]), frozenset(["B"])]
    raise ValidationError(f"no notion of components for {X!r}")


def two_cat_from_category(X: FinCategory) -> Explicit2Cat:
    """Embed a category as a 2-category with discrete hom-categories."""
    hom = {}
    for x in X.objects:
        for y in X.objects:
            hom[(x, y)] = discrete_category(X.hom(x, y))
    compose_obj = {}
    compose_mor = {}
    for x in X.objects:
        for y in X.objects:
            for z in X.objects:
                cobj = {}
                cmor = {}
                for a in X.hom(x, y):
                    for b in X.hom(y, z):
                        c = X.compose[(b, a)]
                        cobj[(a, b)] = c
                        cmor[(("id", a), ("id", b))] = ("id", c)
                compose_obj[(x, y, z)] = cobj
                compose_mor[(x, y, z)] = cmor
    return Explicit2Cat(
        tuple(X.objects), hom, {x: X.identity[x] for x in X.objects},
        compose_obj, compose_mor,
    )


def two_cat_of_cat_group(C: CatGroup) -> Explicit2Cat:
    """The one-object 2-category underlying a Cat-group."""
    obj = "*"
    return Explicit2Cat(
        (obj,),
        {(obj, obj): C.cells},
        {obj: C.group.identity},
        {(obj, obj, obj): C.group.table},
        {(obj, obj, obj): C.hmul},
    )
