"""Command-line front end.

Reads a JSON document describing a structure, validates it, and runs
homology computations or the oracle suite for that kind of input.

Subcommands:
  homology  compute a homology table (text or deterministic JSON)
  verify    run every applicable closed-form check; exit 0 iff all pass
  builders  print canned example documents
  info      parse, validate, and summarize a document
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import oracles
from .complexes import (
    GradedChainComplex,
    HomologyTable,
    as_fraction,
    graded_homology_table,
    graded_tensor,
    grading_values,
    homology_table,
    tensor_complex,
)
from .enriched_data import (
    INF,
    CatGroup,
    FinCategory,
    GenMetricSpace,
    NCatSuspension,
    NormedGroup,
    PreorderedGroup,
    StrictNCat,
    as_category,
    cat_group_from_preordered,
    connected_components,
    count_cells,
    make_category,
    make_metric_space,
    make_normed_group,
    metric_from_digraph,
    metric_of_normed_group,
    preordered_group_from_cone,
    product_category,
    sphere_ncat,
    suspension,
    tensor_metric,
    two_cat_from_category,
    two_group_from_normal_subgroup,
    validate_ncat,
    word_norm_group,
)
from .errors import MaghomError, SchemaError, ValidationError
from .exact_linalg import FgAbelianGroup
from .groups import FinGroup, cyclic_group, dihedral_group
from .iterated import (
    iterated_homology,
    kunneth_check,
    normed_group_homology,
)
from .magnitude_core import (
    adjacency,
    category_homology,
    magnitude_complex_metric,
    metric_homology,
    nerve_category,
    point_orbits,
)
from .simplicial import normalized_chains, unnormalized_chains

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2

KINDS = (
    "category", "metric", "digraph", "normed-group", "cat-group",
    "preordered-group", "ncat-suspension", "sphere", "product", "tensor",
)


# ---------------------------------------------------------------------------
# parsing


def _need(doc: dict, key: str, kind: str):
    if key not in doc:
        raise SchemaError(f"{kind}: missing field {key!r}")
    return doc[key]


def _labels(values, where: str) -> list:
    """A JSON list of labels; labels key dictionaries, so each must be a
    string or a number."""
    if not isinstance(values, list):
        raise SchemaError(f"{where} must be a list")
    for v in values:
        if isinstance(v, (list, dict)):
            raise SchemaError(f"{where}: {json.dumps(v)} is not a string or number")
    return values


def _need_labels(doc: dict, key: str, kind: str) -> list:
    return _labels(_need(doc, key, kind), f"{kind}: {key}")


def _need_rows(doc: dict, key: str, kind: str, shape: str, lengths, count=None) -> list:
    """A JSON list of label rows, count of them when count is given, each
    as long as one of lengths; shape describes them in the error."""
    rows = _need(doc, key, kind)
    if not isinstance(rows, list) or (count is not None and len(rows) != count) or any(
        not isinstance(row, list) or len(row) not in lengths for row in rows
    ):
        raise SchemaError(f"{kind}: {key} must be a list of {shape}")
    for row in rows:
        _labels(row, f"{kind}: {key} row")
    return rows


def _need_natural(doc: dict, key: str, kind: str) -> int:
    n = _need(doc, key, kind)
    # bool is a subclass of int, and JSON true is not a number
    if type(n) is not int or n < 0:
        raise SchemaError(f"{kind}: {key} must be a nonnegative integer")
    return n


def _reject_unknown(doc: dict, allowed: set, kind: str):
    extra = set(doc) - allowed - {"kind"}
    if extra:
        raise SchemaError(f"{kind}: unknown fields {sorted(extra)}")


def _exact_number(v, where: str):
    """"inf" is INF; anything else goes through as_fraction, so a
    non-integer must arrive as a string."""
    if v == "inf":
        return INF
    try:
        return as_fraction(v)
    except ValidationError:
        raise SchemaError(
            f"{where}: {v!r} is not an integer or a rational string; floats are not exact"
        ) from None


def _one_of(doc: dict, first: tuple, second: tuple, kind: str) -> None:
    """Refuse a document that gives fields of both alternatives."""
    if any(k in doc for k in first) and any(k in doc for k in second):
        raise SchemaError(
            f"{kind}: give either {' and '.join(first)} or {' and '.join(second)}, not both"
        )


_TABLE_FIELDS = ("elements", "table")
_PERMUTATION_FIELDS = ("permutation_degree", "permutation_generators")
_GROUP_FIELDS = {*_TABLE_FIELDS, *_PERMUTATION_FIELDS}


def _parse_group(doc: dict, kind: str) -> FinGroup:
    _one_of(doc, _TABLE_FIELDS, _PERMUTATION_FIELDS, kind)
    if "permutation_generators" in doc:
        degree = _need_natural(doc, "permutation_degree", kind)
        gens = [tuple(g) for g in _need_rows(
            doc, "permutation_generators", kind,
            f"permutations of 0..{degree - 1}", (degree,),
        )]
        for g in gens:
            if not all(type(i) is int for i in g) or sorted(g) != list(range(degree)):
                raise SchemaError(f"{kind}: {g} is not a permutation of 0..{degree - 1}")
        elems = {tuple(range(degree))}
        frontier = list(elems)
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in elems:
                    elems.add(q)
                    frontier.append(q)
        label = {p: "".join(map(str, p)) for p in elems}
        mul = {
            (label[p], label[q]): label[tuple(p[q[i]] for i in range(degree))]
            for p in elems
            for q in elems
        }
        return FinGroup(sorted(label.values()), mul, name=f"perm{degree}")
    elements = _need_labels(doc, "elements", kind)
    n = len(elements)
    table = _need_rows(doc, "table", kind, f"{n} rows of {n} elements", (n,), n)
    mul = {
        (elements[i], elements[j]): table[i][j] for i in range(n) for j in range(n)
    }
    return FinGroup(elements, mul)


def _parse_norm(doc: dict, G: FinGroup, kind: str) -> NormedGroup:
    _one_of(doc, ("norm",), ("word_norm_generators",), kind)
    if "word_norm_generators" in doc:
        return word_norm_group(G, _need_labels(doc, "word_norm_generators", kind))
    norm = _need(doc, "norm", kind)
    if not isinstance(norm, dict):
        raise SchemaError(f"{kind}: norm must map elements to numbers")
    # JSON object keys are strings even when the elements are numbers
    lookup = {str(e): e for e in G.elements}
    rekeyed = {}
    for key, v in norm.items():
        if key not in lookup:
            raise SchemaError(f"{kind}: norm key {key!r} is not a group element")
        rekeyed[lookup[key]] = _exact_number(v, f"norm of {key!r}")
    if set(rekeyed) != set(G.elements):
        raise SchemaError(f"{kind}: norm must cover exactly the elements")
    return make_normed_group(G, rekeyed)


def parse_input(doc):
    """Turn a JSON document (dict or text) into a validated structure."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise SchemaError(f"not valid JSON: line {e.lineno} column {e.colno}: {e.msg}")
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}; expected one of {KINDS}")

    if kind == "category":
        _reject_unknown(doc, {"objects", "morphisms", "identities", "compose"}, kind)
        objects = _need_labels(doc, "objects", kind)
        source = {}
        target = {}
        names = []
        for name, src, dst in _need_rows(doc, "morphisms", kind, "[name, src, dst]", (3,)):
            names.append(name)
            source[name] = src
            target[name] = dst
        identities = _need(doc, "identities", kind)
        if not isinstance(identities, dict):
            raise SchemaError("category: identities must map objects to morphisms")
        _labels(list(identities.values()), "category: identities")
        compose = {}
        for g, f, h in _need_rows(doc, "compose", kind, "[g, f, g_after_f]", (3,)):
            compose[(g, f)] = h
        for f in names:
            compose.setdefault((f, identities.get(source[f])), f)
            compose.setdefault((identities.get(target[f]), f), f)
        return make_category(objects, names, source, target, identities, compose)

    if kind == "metric":
        _reject_unknown(doc, {"points", "d"}, kind)
        points = _need_labels(doc, "points", kind)
        n = len(points)
        rows = _need_rows(doc, "d", kind, f"{n} rows of {n} distances", (n,), n)
        dist = {
            (points[i], points[j]): _exact_number(rows[i][j], f"d[{i}][{j}]")
            for i in range(n)
            for j in range(n)
        }
        return make_metric_space(points, dist)

    if kind == "digraph":
        _reject_unknown(doc, {"vertices", "edges"}, kind)
        vertices = _need_labels(doc, "vertices", kind)
        edges = []
        weights = {}
        for u, v, *w in _need_rows(doc, "edges", kind, "[u, v] or [u, v, w]", (2, 3)):
            w = w[0] if w else 1
            edges.append((u, v))
            weights[(u, v)] = _exact_number(w, f"weight of ({u!r}, {v!r})")
        return metric_from_digraph(vertices, edges, weights)

    if kind == "normed-group":
        _reject_unknown(doc, _GROUP_FIELDS | {"norm", "word_norm_generators"}, kind)
        G = _parse_group(doc, kind)
        return _parse_norm(doc, G, kind)

    if kind == "cat-group":
        _reject_unknown(doc, _GROUP_FIELDS | {"normal_subgroup"}, kind)
        G = _parse_group(doc, kind)
        N = _need_labels(doc, "normal_subgroup", kind)
        return two_group_from_normal_subgroup(G, N)

    if kind == "preordered-group":
        _reject_unknown(doc, _GROUP_FIELDS | {"cone"}, kind)
        G = _parse_group(doc, kind)
        return preordered_group_from_cone(G, _need_labels(doc, "cone", kind))

    if kind == "ncat-suspension":
        _reject_unknown(doc, {"inner"}, kind)
        inner = parse_input(_need(doc, "inner", kind))
        if isinstance(inner, StrictNCat):
            return suspension(inner)
        raise SchemaError("ncat-suspension: inner must be a category, sphere, or suspension")

    if kind == "sphere":
        _reject_unknown(doc, {"n"}, kind)
        X = sphere_ncat(_need_natural(doc, "n", kind))
        validate_ncat(X)
        return X

    if kind in ("product", "tensor"):
        _reject_unknown(doc, {"factors"}, kind)
        factors = _need(doc, "factors", kind)
        if not isinstance(factors, list) or len(factors) != 2:
            raise SchemaError(f"{kind}: exactly two factors")
        left, right = (parse_input(f) for f in factors)
        if kind == "product":
            if not (isinstance(left, FinCategory) and isinstance(right, FinCategory)):
                raise SchemaError("product: both factors must be categories")
            return ("product", left, right)
        if not (isinstance(left, GenMetricSpace) and isinstance(right, GenMetricSpace)):
            raise SchemaError("tensor: both factors must be metric")
        return ("tensor", left, right)

    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# rendering


def _grading_str(g) -> str:
    if g is INF:
        return "inf"
    f = Fraction(g)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _group_json(g: FgAbelianGroup) -> dict:
    return {"rank": g.free_rank, "torsion": list(g.torsion)}


def _table_json(table: HomologyTable) -> list:
    out = []
    for (k, g), grp in table.items():
        out.append(
            {
                "degree": k,
                "grading": None if g is None else _grading_str(g),
                "group": _group_json(grp),
                "text": str(grp),
            }
        )
    return out


def _table_text(table: HomologyTable) -> str:
    lines = []
    for (k, g), grp in table.items():
        name = f"MH_{k}" if g is None else f"MH_{k}^{_grading_str(g)}"
        lines.append(f"{name} = {grp}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# homology dispatch


def _structure_kind(obj) -> str:
    if isinstance(obj, FinCategory):
        return "category"
    if isinstance(obj, GenMetricSpace):
        return "metric"
    if isinstance(obj, NormedGroup):
        return "normed-group"
    if isinstance(obj, CatGroup):
        return "cat-group"
    if isinstance(obj, PreorderedGroup):
        return "preordered-group"
    if isinstance(obj, StrictNCat):
        return "ncat"
    if isinstance(obj, tuple) and obj and obj[0] in ("product", "tensor"):
        return obj[0]
    raise AssertionError(f"unclassified structure {obj!r}")


def _pieces(G: GradedChainComplex, keep) -> GradedChainComplex:
    return GradedChainComplex({ell: C for ell, C in G.pieces.items() if keep(ell)})


def compute_homology(obj, max_degree: int, route: str = "diag",
                     normalize_rows: bool = False, gradings=None) -> HomologyTable:
    """Homology table for any parsed structure."""
    if normalize_rows and route != "tot":
        raise ValidationError("--normalize-rows requires --route tot")
    kind = _structure_kind(obj)
    if gradings and kind not in ("metric", "normed-group", "tensor"):
        documents = "sphere and ncat-suspension" if kind == "ncat" else kind
        raise ValidationError(
            f"{documents} documents have no length gradings; --grading and "
            "--all-gradings apply only to metric, normed-group and tensor documents"
        )
    if kind == "ncat" and obj.level <= 1:
        obj, kind = as_category(obj), "category"

    if kind == "category":
        if route == "tot":
            return iterated_homology(
                two_cat_from_category(obj), max_degree, "tot", normalize_rows
            )
        return category_homology(obj, max_degree)

    if kind == "metric":
        if route == "tot":
            raise ValidationError(
                "a plain metric space has no second nerve direction; "
                "use --route diag (or the tensor kind for product routes)"
            )
        return metric_homology(obj, max_degree, gradings if gradings else "all-reachable")

    if kind == "normed-group":
        return normed_group_homology(
            obj, gradings if gradings else "norm-values", max_degree, route,
            normalize_rows,
        )

    if kind == "preordered-group":
        obj = cat_group_from_preordered(obj)
        kind = "cat-group"
    if kind in ("cat-group", "ncat"):
        return iterated_homology(obj, max_degree, route, normalize_rows)

    if kind in ("product", "tensor") and normalize_rows:
        raise ValidationError(
            f"--normalize-rows does not apply to {kind} documents: their tot "
            "route tensors the factors' chains and has no double nerve rows"
        )
    if kind == "product":
        _, left, right = obj
        if route == "tot":
            CL = normalized_chains(nerve_category(left, max_degree + 1))
            CR = normalized_chains(nerve_category(right, max_degree + 1))
            return homology_table(tensor_complex(CL, CR), max_degree)
        return category_homology(product_category(left, right), max_degree)

    if kind == "tensor":
        _, left, right = obj
        if route != "tot":
            return metric_homology(tensor_metric(left, right), max_degree,
                                   gradings if gradings else "all-reachable")
        GL = magnitude_complex_metric(left, max_degree + 1)
        GR = magnitude_complex_metric(right, max_degree + 1)
        if not gradings or isinstance(gradings, str):
            return graded_homology_table(graded_tensor(GL, GR), max_degree)
        # gradings add up under the tensor and none is negative, so a factor
        # piece above the largest wanted grading contributes nothing
        wanted = set(grading_values(gradings))
        top = max(wanted)
        T = graded_tensor(_pieces(GL, lambda ell: ell <= top),
                          _pieces(GR, lambda ell: ell <= top))
        table = dict(graded_homology_table(_pieces(T, wanted.__contains__), max_degree).items())
        # a wanted grading that no tensor piece reaches reads zero, as on diag
        for ell in wanted:
            for k in range(max_degree + 1):
                table.setdefault((k, ell), FgAbelianGroup())
        return HomologyTable(table)

    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# verify


class _Verifier:
    def __init__(self, out):
        self.out = out
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{name}: {status}{suffix}", file=self.out)
        if not ok:
            self.failures += 1


def _route_tables(obj, max_degree: int) -> list[HomologyTable]:
    """The diag, tot and (where the tot route has double nerve rows)
    tot-rows tables of compute_homology, in that order."""
    routes = [("diag", False), ("tot", False), ("tot", True)]
    if _structure_kind(obj) in ("product", "tensor"):
        routes.pop()
    return [compute_homology(obj, max_degree, r, rows) for r, rows in routes]


def _agree(tables: list[HomologyTable]) -> bool:
    """The tables list the same rows with the same groups; HomologyTable
    equality alone ignores zero rows."""
    return all(t.items() == tables[0].items() for t in tables[1:])


def _verify_metric(X: GenMetricSpace, max_degree: int, v: _Verifier):
    table = metric_homology(X, max(1, max_degree))
    h00 = table.group(0, 0)
    ok0 = h00 == FgAbelianGroup(len(X.points)) and all(
        table.group(0, g).is_trivial for g in table.gradings() if g and g > 0
    )
    v.check("degree-0-support", ok0, f"{len(X.points)} points at grading 0")
    ells = [g for g in table.gradings() if g is not None]
    ok1 = all(table.group(1, g) == oracles.oracle_mh1_metric(X, g) for g in ells)
    v.check("degree-1-adjacent-pairs", ok1, f"gradings {[_grading_str(g) for g in ells]}")


def _verify_category(X: FinCategory, max_degree: int, v: _Verifier):
    S = nerve_category(X, max_degree + 1)
    tn = homology_table(normalized_chains(S), max_degree)
    tu = homology_table(unnormalized_chains(S), max_degree)
    v.check("normalization-invariance", tn == tu, f"degrees 0..{max_degree}")
    routes = _route_tables(two_cat_from_category(X), max_degree)
    v.check("route-equivalence", _agree([tn, *routes]), "diag vs tot vs normalized rows")


def _verify_cat_group(C: CatGroup, max_degree: int, v: _Verifier):
    K = max(1, max_degree)
    h0, h1 = oracles.oracle_mh01_catgroup(C)
    routes = _route_tables(C, K)
    td = routes[0]
    v.check(
        "components-abelianization",
        td.group(0) == h0 and td.group(1) == h1,
        f"predicted MH_1 = {h1}",
    )
    v.check("quotient-group-homology", td == oracles.oracle_catgroup(C, K),
            f"degrees 0..{K}")
    v.check("route-equivalence", _agree(routes), f"degrees 0..{K}")


def _verify_normed(N: NormedGroup, max_degree: int, v: _Verifier):
    K = max(2, max_degree)
    table = normed_group_homology(N, "norm-values", K, route="tot")
    gh = oracles.oracle_group_homology(N.group, K)
    ok0 = all(table.group(k, 0) == gh.group(k) for k in range(K + 1))
    v.check("grading-zero-group-homology", ok0, f"degrees 0..{K}")
    pos = [g for g in sorted(set(N.norm.values())) if g > 0]
    okv = all(
        table.group(0, g).is_trivial and table.group(1, g).is_trivial for g in pos
    )
    v.check("positive-grading-vanishing", okv, "degrees 0 and 1")
    ok2 = all(table.group(2, g) == oracles.oracle_mh2_normed(N, g) for g in pos)
    v.check(
        "degree-2-indecomposables", ok2,
        "l in {" + ", ".join(_grading_str(g) for g in pos) + "}",
    )
    M = metric_of_normed_group(N)
    G = N.group
    okadj = True
    for g in G.elements:
        for h in G.elements:
            if g == h:
                continue
            separated = adjacency(M, g, h) is not None
            factored = any(
                M.d(g, h) == M.d(g0, h0) + M.d(G.mul(G.inv(g0), g), G.mul(G.inv(h0), h))
                and g0 != h0
                and G.mul(G.inv(g0), g) != G.mul(G.inv(h0), h)
                for g0 in G.elements
                for h0 in G.elements
            )
            if separated != factored:
                okadj = False
    v.check("adjacency-factorization", okadj, "all ordered pairs")
    v.check("route-equivalence", _agree(_route_tables(N, 1)), "degrees 0..1, all norm values")


def _verify_ncat(X: StrictNCat, max_degree: int, v: _Verifier):
    if X.level <= 1:
        _verify_category(as_category(X), max_degree, v)
        return
    inner = X.inner if isinstance(X, NCatSuspension) else None
    if inner is None:
        v.check("suspension-shift", True, "not a suspension; skipped")
    else:
        K = max(2, max_degree)
        if count_cells(inner, 0):
            pred = oracles.oracle_suspension(compute_homology(inner, K), K)
        else:  # two objects with nothing between them: S^0
            pred = HomologyTable({(0, None): FgAbelianGroup(2)})
        got = compute_homology(X, K)
        v.check("suspension-shift", got == pred, f"degrees 0..{K}")
    v.check("route-equivalence", _agree(_route_tables(X, max_degree)),
            f"degrees 0..{max_degree}")


def _verify_product(obj, max_degree: int, v: _Verifier):
    tag, left, right = obj
    rep = kunneth_check(left, right, max_degree)
    v.check("kunneth-split", rep.ok, f"{len(rep.rows)} comparisons")
    v.check("route-equivalence", _agree(_route_tables(obj, max_degree)),
            "direct vs tensor of factors")


def run_verify(obj, max_degree: int, out) -> int:
    v = _Verifier(out)
    kind = _structure_kind(obj)
    if kind == "metric":
        _verify_metric(obj, max_degree, v)
    elif kind == "category":
        _verify_category(obj, max_degree, v)
    elif kind == "normed-group":
        _verify_normed(obj, max_degree, v)
    elif kind == "cat-group":
        _verify_cat_group(obj, max_degree, v)
    elif kind == "preordered-group":
        _verify_cat_group(cat_group_from_preordered(obj), max_degree, v)
    elif kind == "ncat":
        _verify_ncat(obj, max_degree, v)
    elif kind in ("product", "tensor"):
        _verify_product(obj, max_degree, v)
    return EXIT_OK if v.failures == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# builders and info


def _s3_doc_base() -> dict:
    return {"permutation_degree": 3, "permutation_generators": [[1, 0, 2], [0, 2, 1]]}


def _table_doc(G: FinGroup, label=lambda g: g) -> dict:
    """The elements and multiplication table of G, each element labelled."""
    return {
        "elements": [label(g) for g in G.elements],
        "table": [[label(G.mul(a, b)) for b in G.elements] for a in G.elements],
    }


def builder_documents() -> dict:
    z4 = _table_doc(cyclic_group(4))
    d4 = _table_doc(dihedral_group(4), lambda g: f"{g[0]}{g[1]}")
    parallel_arrows = {
        "kind": "category",
        "objects": ["A", "B"],
        "morphisms": [["idA", "A", "A"], ["idB", "B", "B"],
                      ["f", "A", "B"], ["g", "A", "B"]],
        "identities": {"A": "idA", "B": "idB"},
        "compose": [],
    }
    two_point = {"kind": "metric", "points": ["a", "b"], "d": [[0, 1], [1, 0]]}
    docs = {
        "parallel-arrows": parallel_arrows,
        "two-point-metric": two_point,
        "three-point-line": {
            "kind": "metric", "points": ["a", "b", "c"],
            "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        },
        "cycle-digraph-3": {
            "kind": "digraph", "vertices": [0, 1, 2],
            "edges": [[0, 1], [1, 2], [2, 0]],
        },
        "cycle-graph-4": {
            "kind": "digraph", "vertices": [0, 1, 2, 3],
            "edges": [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2], [3, 0], [0, 3]],
        },
        "half-integer-metric": {
            "kind": "metric", "points": ["a", "b"],
            "d": [[0, "1/2"], ["3/2", 0]],
        },
        "z2-normed": {
            "kind": "normed-group", "elements": [0, 1],
            "table": [[0, 1], [1, 0]], "norm": {"0": 0, "1": 1},
        },
        "z4-word-norm": {
            "kind": "normed-group", **z4, "word_norm_generators": [1],
        },
        "s3-word-norm": {
            "kind": "normed-group", **_s3_doc_base(),
            "word_norm_generators": ["102"],
        },
        "d4-word-norm": {
            "kind": "normed-group", **d4, "word_norm_generators": ["r1", "s0"],
        },
        "catgroup-s3-a3": {
            "kind": "cat-group", **_s3_doc_base(),
            "normal_subgroup": ["012", "120", "201"],
        },
        "preordered-s3-a3": {
            "kind": "preordered-group", **_s3_doc_base(),
            "cone": ["012", "120", "201"],
        },
        "sphere-2": {"kind": "sphere", "n": 2},
        "suspension-two-discrete": {
            "kind": "ncat-suspension",
            "inner": {
                "kind": "category", "objects": ["x", "y"],
                "morphisms": [["idx", "x", "x"], ["idy", "y", "y"]],
                "identities": {"x": "idx", "y": "idy"}, "compose": [],
            },
        },
        "product-parallel-arrows": {"kind": "product", "factors": [parallel_arrows] * 2},
        "tensor-two-point": {"kind": "tensor", "factors": [two_point] * 2},
    }
    return docs


def _info_lines(obj) -> list[str]:
    kind = _structure_kind(obj)
    lines = [f"kind: {kind}", "valid: yes"]
    if kind == "category":
        lines.append(f"objects: {len(obj.objects)}")
        lines.append(f"morphisms: {len(obj.morphisms)}")
        lines.append(f"components: {len(connected_components(obj))}")
    elif kind == "metric":
        lines.append(f"points: {len(obj.points)}")
        infinite = sum(1 for v in obj.dist.values() if v is INF)
        lines.append(f"infinite-distances: {infinite}")
        sizes = sorted((len(o) for o in point_orbits(obj)), reverse=True)
        shown = f" (sizes {', '.join(map(str, sizes))})" if sizes else ""
        lines.append(f"point-orbits: {len(sizes)}{shown}")
    elif kind == "normed-group":
        lines.append(f"order: {len(obj.group)}")
        values = sorted({_grading_str(x) for x in obj.norm.values()})
        lines.append(f"norm-values: {values}")
    elif kind == "cat-group":
        lines.append(f"order: {len(obj.group)}")
        lines.append(f"arrows: {len(obj.cells.morphisms)}")
        lines.append(f"components: {len(connected_components(obj.cells))}")
    elif kind == "preordered-group":
        lines.append(f"order: {len(obj.group)}")
        lines.append(f"relation-pairs: {len(obj.leq)}")
    elif kind == "ncat":
        lines.append(f"level: {obj.level}")
        lines.append(f"components: {len(connected_components(obj))}")
    elif kind in ("product", "tensor"):
        lines.append("factors: 2")
    return lines


# ---------------------------------------------------------------------------
# entry point


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise SchemaError(f"{path} is not UTF-8 text") from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: building
    one leaves cyclic garbage behind (formatters, argument groups and
    actions that point at each other), and parsing with it leaves none."""
    parser = argparse.ArgumentParser(
        prog="maghom",
        description="magnitude and iterated magnitude homology of finite structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("homology", help="compute a homology table")
    ph.add_argument("input", help="JSON document path, or - for stdin")
    ph.add_argument("--max-degree", type=int, default=2)
    ph.add_argument("--grading", action="append", default=[],
                    help="length grading (repeatable; exact string like 3/2)")
    ph.add_argument("--all-gradings", action="store_true")
    ph.add_argument("--route", choices=("diag", "tot"), default="diag")
    ph.add_argument("--normalize-rows", action="store_true")
    ph.add_argument("--output", choices=("text", "json"), default="text")

    pv = sub.add_parser("verify", help="run the oracle suite for this input kind")
    pv.add_argument("input")
    pv.add_argument("--max-degree", type=int, default=2)

    pb = sub.add_parser("builders", help="print canned example documents")
    pb.add_argument("name", nargs="?", help="document name; omit to list")

    pi = sub.add_parser("info", help="validate and summarize a document")
    pi.add_argument("input")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "builders":
            docs = builder_documents()
            if args.name is None:
                for name in docs:
                    print(name)
                return EXIT_OK
            if args.name not in docs:
                print(f"unknown builder {args.name!r}; run 'maghom builders' to list",
                      file=sys.stderr)
                return EXIT_INVALID
            print(json.dumps(docs[args.name], indent=2))
            return EXIT_OK

        if getattr(args, "max_degree", 0) < 0:
            raise ValidationError("--max-degree must be nonnegative")
        obj = parse_input(_read_document(args.input))

        if args.command == "info":
            for line in _info_lines(obj):
                print(line)
            return EXIT_OK

        if args.command == "verify":
            return run_verify(obj, args.max_degree, sys.stdout)

        # homology
        gradings = None
        if args.grading and args.all_gradings:
            raise ValidationError("--grading and --all-gradings exclude each other")
        if args.grading:
            gradings = [_exact_number(g, "--grading") for g in args.grading]
        if args.all_gradings:
            gradings = "all-reachable"
        table = compute_homology(
            obj, args.max_degree, args.route, args.normalize_rows, gradings
        )
        if args.output == "json":
            payload = {
                "kind": _structure_kind(obj),
                "max_degree": args.max_degree,
                "route": args.route,
                "homology": _table_json(table),
            }
            print(json.dumps(payload, indent=2))
        else:
            print(_table_text(table))
        return EXIT_OK
    except (MaghomError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except RecursionError:
        print("error: the input nests too deeply to handle", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
