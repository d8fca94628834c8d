import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghom import FgAbelianGroup, GenMetricSpace, HomologyTable, NormedGroup, SchemaError
from maghom.cli import builder_documents, main, parse_input


def run_cli(args, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def doc_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(builder_documents()[name]))
    return str(path)


# --- parsing -----------------------------------------------------------------


def test_parse_metric_document():
    X = parse_input({"kind": "metric", "points": ["a", "b"], "d": [[0, 1], [1, 0]]})
    assert isinstance(X, GenMetricSpace)
    assert X.d("a", "b") == 1


def test_parse_exact_decimal_strings():
    X = parse_input(
        {"kind": "metric", "points": ["a", "b"], "d": [[0, "0.5"], ["1.5", 0]]}
    )
    from fractions import Fraction

    assert X.d("a", "b") == Fraction(1, 2)
    assert X.d("b", "a") == Fraction(3, 2)


def test_parse_rejects_floats():
    with pytest.raises(SchemaError, match="exact"):
        parse_input({"kind": "metric", "points": ["a", "b"], "d": [[0, 0.5], [0.5, 0]]})


def test_parse_rejects_unknown_kind_and_fields():
    with pytest.raises(SchemaError, match="unknown kind"):
        parse_input({"kind": "nonsense"})
    with pytest.raises(SchemaError, match="unknown fields"):
        parse_input({"kind": "sphere", "n": 2, "extra": 1})


def test_parse_normed_group_document():
    doc = builder_documents()["s3-word-norm"]
    N = parse_input(doc)
    assert isinstance(N, NormedGroup)
    assert sorted(set(N.norm.values())) == [0, 1, 2]


def test_parse_sphere():
    X = parse_input({"kind": "sphere", "n": 2})
    assert X.level == 2


def test_parse_reports_json_position():
    with pytest.raises(SchemaError, match="line"):
        parse_input("{not json")


def test_parse_validation_failure_names_law():
    with pytest.raises(Exception, match="triangle"):
        parse_input(
            {"kind": "metric", "points": ["a", "b", "c"],
             "d": [[0, 1, 9], [1, 0, 1], [9, 1, 0]]}
        )


# --- homology command --------------------------------------------------------


def test_homology_sphere_text(tmp_path):
    code, out, err = run_cli(
        ["homology", doc_file(tmp_path, "sphere-2"), "--max-degree", "2"]
    )
    assert code == 0
    assert out.splitlines() == ["MH_0 = Z", "MH_1 = 0", "MH_2 = Z"]


def test_homology_json_is_deterministic(tmp_path):
    path = doc_file(tmp_path, "two-point-metric")
    args = ["homology", path, "--max-degree", "2", "--output", "json"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["homology"][0]["group"] == {"rank": 2, "torsion": []}


def test_homology_routes_agree_via_cli(tmp_path):
    for name in ("catgroup-s3-a3", "sphere-2", "parallel-arrows"):
        path = doc_file(tmp_path, name)
        outs = []
        for route in ("diag", "tot"):
            code, out, _ = run_cli(
                ["homology", path, "--max-degree", "1", "--route", route,
                 "--output", "json"]
            )
            assert code == 0
            payload = json.loads(out)
            del payload["route"]
            outs.append(json.dumps(payload))
        assert outs[0] == outs[1]


def test_homology_grading_filter(tmp_path):
    path = doc_file(tmp_path, "two-point-metric")
    code, out, _ = run_cli(
        ["homology", path, "--max-degree", "2", "--grading", "1"]
    )
    assert code == 0
    assert "MH_1^1 = Z^2" in out
    assert all("MH_2^2" not in line for line in out.splitlines())
    assert not any(line.startswith("MH_0^0") for line in out.splitlines())


def test_grading_is_rejected_on_kinds_without_length_gradings(tmp_path):
    for name, kind in (("sphere-2", "ncat"), ("catgroup-s3-a3", "cat-group")):
        path = doc_file(tmp_path, name)
        for flags in (["--grading", "1"], ["--all-gradings"]):
            code, out, err = run_cli(
                ["homology", path, "--route", "tot", "--max-degree", "1", *flags]
            )
            _assert_one_line_error(code, out, err)
            assert kind in err, (name, flags)


@pytest.mark.parametrize("name", ["sphere-1", "sphere-2", "suspension-two-discrete"])
def test_the_grading_error_names_document_kinds(tmp_path, name):
    """A sphere or suspension document is parsed to an n-category (or, at
    level 1, a category); the error names the document kinds, and the
    JSON "kind" field keeps the structure's name."""
    doc = {"kind": "sphere", "n": 1} if name == "sphere-1" else builder_documents()[name]
    for flags in (["--grading", "1"], ["--all-gradings"]):
        code, out, err = _run_doc(tmp_path, doc, *flags)
        _assert_one_line_error(code, out, err)
        assert "sphere and ncat-suspension documents have no length gradings" in err
    if name != "sphere-1":
        code, out, _ = _run_doc(tmp_path, doc, "--output", "json")
        assert code == 0 and json.loads(out)["kind"] == "ncat"


def test_tensor_tot_grading_filter_keeps_the_unfiltered_rows(tmp_path):
    docs = builder_documents()
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(
        {"kind": "tensor", "factors": [docs["half-integer-metric"], docs["cycle-digraph-3"]]}
    ))
    base = ["homology", str(path), "--route", "tot", "--max-degree", "2", "--output", "json"]
    code, out, _ = run_cli(base)
    assert code == 0
    rows = json.loads(out)["homology"]
    for wanted in (["1"], ["3/2", "2"], ["1/2", "7"]):
        code, out, _ = run_cli(base + [arg for g in wanted for arg in ("--grading", g)])
        assert code == 0
        got = json.loads(out)["homology"]
        assert got == [row for row in rows if row["grading"] in wanted]
        assert got


def test_metric_has_no_tot_route(tmp_path):
    path = doc_file(tmp_path, "two-point-metric")
    code, _, err = run_cli(["homology", path, "--route", "tot"])
    assert code == 2
    assert "tensor" in err


def test_normalize_rows_needs_tot(tmp_path):
    path = doc_file(tmp_path, "catgroup-s3-a3")
    code, _, err = run_cli(["homology", path, "--normalize-rows"])
    assert code == 2


def test_grading_and_all_gradings_exclude_each_other(tmp_path):
    path = doc_file(tmp_path, "z4-word-norm")
    code, out, err = run_cli(["homology", path, "--grading", "1", "--all-gradings"])
    _assert_one_line_error(code, out, err)
    assert "--grading" in err and "--all-gradings" in err


@pytest.mark.parametrize("name", ["product-parallel-arrows", "tensor-two-point"])
def test_normalize_rows_is_rejected_without_double_nerve_rows(tmp_path, name):
    path = doc_file(tmp_path, name)
    code, out, err = run_cli(["homology", path, "--route", "tot", "--normalize-rows"])
    _assert_one_line_error(code, out, err)
    assert "--normalize-rows" in err


def test_half_integer_gradings_render_exactly(tmp_path):
    path = doc_file(tmp_path, "half-integer-metric")
    code, out, _ = run_cli(["homology", path, "--max-degree", "1"])
    assert code == 0
    assert "MH_1^1/2 = Z" in out


# --- verify ------------------------------------------------------------------


def test_verify_passes_on_all_builders(tmp_path):
    for name in builder_documents():
        code, out, err = run_cli(["verify", doc_file(tmp_path, name)])
        assert code == 0, (name, out, err)
        assert "FAIL" not in out


def test_verify_exit_status_is_nonzero_on_mismatch(tmp_path, monkeypatch):
    import maghom.cli as cli_module

    def broken(X, ell):
        return FgAbelianGroup(7)

    monkeypatch.setattr(cli_module.oracles, "oracle_mh1_metric", broken)
    code, out, _ = run_cli(["verify", doc_file(tmp_path, "two-point-metric")])
    assert code == 1
    assert "FAIL" in out


def test_verify_passes_on_the_suspension_of_nothing(tmp_path):
    """The suspension of a category with no objects is two objects with
    nothing between them, S^0: H_0 = Z^2 and nothing above, on every
    route. The suspension oracle needs a 0-cell inside, so verify checks
    this answer directly."""
    empty = {"kind": "category", "objects": [], "morphisms": [],
             "identities": {}, "compose": []}
    path = tmp_path / "s0.json"
    path.write_text(json.dumps({"kind": "ncat-suspension", "inner": empty}))
    code, out, err = run_cli(["verify", str(path)])
    assert code == 0, (out, err)
    assert "suspension-shift: PASS (degrees 0..2)" in out
    assert "route-equivalence: PASS" in out
    code, out, _ = run_cli(["homology", str(path), "--max-degree", "3"])
    assert code == 0
    assert out.splitlines() == ["MH_0 = Z^2", "MH_1 = 0", "MH_2 = 0", "MH_3 = 0"]


def _z4_doc(kind: str) -> dict:
    """Z/4 with the subgroup {0, 2}, as a Cat-group or as the cone of a
    preordered group (the same Cat-group)."""
    field = "normal_subgroup" if kind == "cat-group" else "cone"
    return {"kind": kind, "elements": ["0", "1", "2", "3"],
            "table": [[str((i + j) % 4) for j in range(4)] for i in range(4)],
            field: ["0", "2"]}


@pytest.mark.parametrize("kind", ["cat-group", "preordered-group"])
def test_verify_reads_cat_groups_through_max_degree(tmp_path, monkeypatch, kind):
    import maghom.cli as cli_module

    path = tmp_path / "z4.json"
    path.write_text(json.dumps(_z4_doc(kind)))
    args = ["verify", str(path), "--max-degree", "2"]
    code, out, _ = run_cli(args)
    assert code == 0, out
    assert "quotient-group-homology: PASS (degrees 0..2)" in out
    assert "route-equivalence: PASS (degrees 0..2)" in out

    original = cli_module.compute_homology

    def wrong_on_tot_at_2(obj, max_degree, route="diag", normalize_rows=False,
                          gradings=None):
        table = original(obj, max_degree, route, normalize_rows, gradings)
        if route != "tot" or max_degree < 2:
            return table
        return HomologyTable({**dict(table.items()), (2, None): FgAbelianGroup(7)})

    monkeypatch.setattr(cli_module, "compute_homology", wrong_on_tot_at_2)
    code, out, _ = run_cli(args)
    assert code == 1
    assert "route-equivalence: FAIL (degrees 0..2)" in out
    assert "quotient-group-homology: PASS" in out

    monkeypatch.setattr(cli_module.oracles, "oracle_catgroup",
                        lambda C, max_degree: HomologyTable({}))
    code, out, _ = run_cli(args)
    assert code == 1
    assert "quotient-group-homology: FAIL (degrees 0..2)" in out


# --- builders and info -------------------------------------------------------


def test_builders_roundtrip():
    for name, doc in builder_documents().items():
        parse_input(json.loads(json.dumps(doc)))


def test_builders_command(tmp_path):
    code, out, _ = run_cli(["builders"])
    assert code == 0 and "sphere-2" in out
    code, out, _ = run_cli(["builders", "sphere-2"])
    assert code == 0
    assert json.loads(out) == {"kind": "sphere", "n": 2}
    code, _, err = run_cli(["builders", "missing"])
    assert code == 2


def test_info(tmp_path):
    code, out, _ = run_cli(["info", doc_file(tmp_path, "catgroup-s3-a3")])
    assert code == 0
    assert "valid: yes" in out
    assert "components: 2" in out


def test_info_invalid_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"kind": "metric", "points": ["a", "b"], "d": [[0, 0], [0, 0]]}
    ))
    code, _, err = run_cli(["info", str(path)])
    assert code == 2
    assert "separat" in err


# --- exit-code contract ------------------------------------------------------


def _assert_one_line_error(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_digraph_edge_to_undeclared_vertex_is_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"kind": "digraph", "vertices": [0, 1], "edges": [[0, 1], [1, 2]]}
    ))
    _assert_one_line_error(*run_cli(["homology", str(path)]))
    assert "undeclared vertex" in run_cli(["info", str(path)])[2]


def test_negative_max_degree_is_rejected(tmp_path):
    path = doc_file(tmp_path, "two-point-metric")
    for command in ("homology", "verify"):
        _assert_one_line_error(*run_cli([command, path, "--max-degree", "-1"]))


def test_negative_normed_grading_is_rejected_on_both_routes(tmp_path):
    path = doc_file(tmp_path, "s3-word-norm")
    for route in ("diag", "tot"):
        code, out, err = run_cli(
            ["homology", path, "--route", route, "--max-degree", "1", "--grading", "-1"]
        )
        _assert_one_line_error(code, out, err)
        assert "nonnegative" in err


def test_unreadable_document_path_is_rejected(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        _assert_one_line_error(*run_cli(["homology", str(path)]))


def test_non_utf8_document_is_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(["homology", str(path)])
    _assert_one_line_error(code, out, err)
    assert "UTF-8" in err


def test_non_scalar_label_is_rejected(tmp_path):
    doc = {"kind": "digraph", "vertices": [[0]], "edges": []}
    with pytest.raises(SchemaError, match="vertices"):
        parse_input(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    _assert_one_line_error(*run_cli(["homology", str(path)]))


def test_deeply_nested_suspension_is_rejected(tmp_path):
    inner = json.dumps(builder_documents()["suspension-two-discrete"]["inner"])
    depth = 1500
    path = tmp_path / "deep.json"
    path.write_text('{"kind": "ncat-suspension", "inner": ' * depth + inner + "}" * depth)
    _assert_one_line_error(*run_cli(["homology", str(path)]))


def test_negative_metric_grading_is_rejected(tmp_path):
    path = doc_file(tmp_path, "two-point-metric")
    _assert_one_line_error(*run_cli(["homology", path, "--grading", "-1"]))


def test_negative_grading_is_rejected_on_tensor_tot_route(tmp_path):
    path = doc_file(tmp_path, "tensor-two-point")
    _assert_one_line_error(
        *run_cli(["homology", path, "--route", "tot", "--grading", "-1"])
    )


# --- document shapes ---------------------------------------------------------


def _with(name, key, value):
    doc = copy.deepcopy(builder_documents()[name])
    doc[key] = value
    return doc


def _word_norm_on_non_element():
    doc = _with("z2-normed", "word_norm_generators", [7])
    del doc["norm"]
    return doc


MALFORMED = {
    "permutation_degree-string": _with("s3-word-norm", "permutation_degree", "3"),
    "permutation_generators-number": _with("s3-word-norm", "permutation_generators", 5),
    "permutation_generators-row-number": _with("s3-word-norm", "permutation_generators", [5]),
    "table-number": _with("z4-word-norm", "table", 5),
    "table-row-numbers": _with("z2-normed", "table", [1, 2]),
    "norm-list": _with("z2-normed", "norm", [0, 1]),
    "d-number": _with("two-point-metric", "d", 5),
    "d-row-number": {"kind": "metric", "points": ["a"], "d": [5]},
    "edges-number": _with("cycle-digraph-3", "edges", 5),
    "morphisms-number": _with("parallel-arrows", "morphisms", 5),
    "morphisms-row-number": _with("parallel-arrows", "morphisms", [5]),
    "compose-number": _with("parallel-arrows", "compose", 5),
    "compose-row-number": _with("parallel-arrows", "compose", [5]),
    "factors-number": _with("product-parallel-arrows", "factors", 5),
    "sphere-n-true": _with("sphere-2", "n", True),
    "sphere-n-false": _with("sphere-2", "n", False),
    "word-norm-non-element": _word_norm_on_non_element(),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_document_exits_2_on_every_command(tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[name]))
    for command in ("homology", "info", "verify"):
        _assert_one_line_error(*run_cli([command, str(path)]))


def test_word_norm_error_names_the_element(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED["word-norm-non-element"]))
    assert "7" in run_cli(["homology", str(path)])[2]


def test_group_builders_keep_their_tables():
    docs = builder_documents()
    assert docs["z4-word-norm"] == {
        "kind": "normed-group",
        "elements": [0, 1, 2, 3],
        "table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
        "word_norm_generators": [1],
    }
    assert docs["d4-word-norm"] == {
        "kind": "normed-group",
        "elements": ["r0", "r1", "r2", "r3", "s0", "s1", "s2", "s3"],
        "table": [
            ["r0", "r1", "r2", "r3", "s0", "s1", "s2", "s3"],
            ["r1", "r2", "r3", "r0", "s1", "s2", "s3", "s0"],
            ["r2", "r3", "r0", "r1", "s2", "s3", "s0", "s1"],
            ["r3", "r0", "r1", "r2", "s3", "s0", "s1", "s2"],
            ["s0", "s3", "s2", "s1", "r0", "r3", "r2", "r1"],
            ["s1", "s0", "s3", "s2", "r1", "r0", "r3", "r2"],
            ["s2", "s1", "s0", "s3", "r2", "r1", "r0", "r3"],
            ["s3", "s2", "s1", "s0", "r3", "r2", "r1", "r0"],
        ],
        "word_norm_generators": ["r1", "s0"],
    }


# Every builder document with one field dropped, renamed or replaced by a
# value of the wrong type, at any depth. Numbers are never mutated: a
# valid document can ask for a computation that runs for minutes.
_BAD_VALUES = [None, True, "x", [], {}, [[]]]


def _locations(doc, at=()):
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield at + (key,)
        yield from _locations(value, at + (key,))


@st.composite
def _mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(list(builder_documents().values()))))
    location = draw(st.sampled_from(list(_locations(doc))))
    *path, key = location
    parent = doc
    for step in path:
        parent = parent[step]
    renames = ["rename"] if isinstance(parent, dict) else []
    mutation = draw(st.sampled_from(["drop", *renames, *range(len(_BAD_VALUES))]))
    if mutation == "drop":
        del parent[key]
    elif mutation == "rename":
        parent[f"{key}_renamed"] = parent.pop(key)
    else:
        parent[key] = copy.deepcopy(_BAD_VALUES[mutation])
    return doc


@settings(max_examples=500, deadline=None)
@given(_mutated_documents())
def test_mutated_documents_exit_0_or_2_with_one_error_line(doc):
    text = json.dumps(doc)
    for args in (["homology", "-", "--max-degree", "1"], ["info", "-"]):
        with mock.patch("sys.stdin", io.StringIO(text)):
            code, out, err = run_cli(args)
        assert code in (0, 2), (args, text, err)
        if code == 2:
            _assert_one_line_error(code, out, err)


@pytest.mark.parametrize("name,line", [
    ("cycle-graph-4", "point-orbits: 1 (sizes 4)"),
    ("three-point-line", "point-orbits: 2 (sizes 2, 1)"),
])
def test_info_prints_point_orbits(tmp_path, name, line):
    code, out, _ = run_cli(["info", doc_file(tmp_path, name)])
    assert code == 0
    assert line in out.splitlines()


def test_a_second_main_call_leaves_no_argparse_garbage(tmp_path):
    """The parser is built once; a later call only parses with it, which
    leaves no cyclic garbage from argparse behind."""
    import gc

    path = doc_file(tmp_path, "z2-normed")
    run_cli(["homology", path, "--max-degree", "1"])
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_cli(["homology", path, "--max-degree", "1", "--output", "json"])
        gc.collect()
        from_argparse = [o for o in gc.garbage
                         if type(o).__module__ == "argparse"
                         or getattr(o, "__module__", None) == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert from_argparse == []


def _run_doc(tmp_path, doc, *flags):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return run_cli(["homology", str(path), *flags])


def test_a_group_given_both_by_table_and_by_permutations_is_rejected(tmp_path):
    # a 2-element table and a 3-cycle: the group would be read as either
    doc = {
        "kind": "cat-group", "elements": [0, 1], "table": [[0, 1], [1, 0]],
        "permutation_degree": 3, "permutation_generators": [[1, 2, 0]],
        "normal_subgroup": ["012"],
    }
    code, out, err = _run_doc(tmp_path, doc, "--max-degree", "1")
    _assert_one_line_error(code, out, err)
    assert "either" in err
    del doc["elements"], doc["table"]
    assert _run_doc(tmp_path, doc, "--max-degree", "1")[0] == 0


def test_a_norm_given_both_by_values_and_by_word_generators_is_rejected(tmp_path):
    doc = {
        "kind": "normed-group", "elements": [0, 1], "table": [[0, 1], [1, 0]],
        "norm": {"0": 0, "1": 2}, "word_norm_generators": [1],
    }
    code, out, err = _run_doc(tmp_path, doc, "--max-degree", "1")
    _assert_one_line_error(code, out, err)
    assert "either" in err
    for field in ("norm", "word_norm_generators"):
        assert _run_doc(tmp_path, {k: v for k, v in doc.items() if k != field},
                        "--max-degree", "1")[0] == 0


def test_an_identity_keyed_by_a_non_object_is_rejected(tmp_path):
    doc = {
        "kind": "category", "objects": ["A"], "morphisms": [["idA", "A", "A"]],
        "identities": {"A": "idA", "Z": "q"}, "compose": [],
    }
    code, out, err = _run_doc(tmp_path, doc)
    _assert_one_line_error(code, out, err)
    assert "'Z'" in err
    doc["identities"] = {"A": "idA"}
    assert _run_doc(tmp_path, doc)[0] == 0


def test_tensor_tot_route_matches_diag_and_builds_no_degree_past_the_next(monkeypatch):
    """Homology through degree 3 reads no tensor degree above 4, so the tot
    route builds none; at degree 3 the tensor of two 5-cycles agrees with
    the diagonal route."""
    from maghom import complexes, cycle_graph
    from maghom.cli import compute_homology

    C5 = cycle_graph(5)
    want = compute_homology(("tensor", C5, C5), 3, "diag")
    built = []
    tensor = complexes.tensor_complex

    def recording(C, D):
        T = tensor(C, D)
        built.append(T.max_degree)
        assert T.max_degree <= 4
        return T

    monkeypatch.setattr(complexes, "tensor_complex", recording)
    assert compute_homology(("tensor", C5, C5), 3, "tot") == want
    assert max(built) == 4
