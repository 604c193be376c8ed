"""End-to-end checks of the command-line front end.

Commands run in-process through ``cli.run`` with captured streams; the
console-entry tests start the entry point in a subprocess, as the
installed script does.  Payload shapes are validated against
schemas/cli_payloads.json.
"""

import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
import oracles
from helpers import CONSOLE, child_env
from oracles import fans, unsatisfied_configurations, value_separated_blocks

from ramseybench import cli
from ramseybench.homogeneity import coloring_from_csv, coloring_from_json
from ramseybench.pointsets import (
    FiniteCondition,
    Point,
    classify_subsets,
    condition_to_json,
    extend_with_realizers,
)
from ramseybench.randomgraph import build_graph_covering, graph_to_json
from ramseybench.typecalc import enumerate_ntypes, list_form

REPO = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((REPO / "schemas" / "cli_payloads.json").read_text())


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    result = cli.run(argv, stdout=out, stderr=err)
    return result, out.getvalue(), err.getvalue()


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def payload_of(text):
    """A payload the CLI wrote, read as strict JSON: NaN and Infinity fail."""
    return json.loads(text, parse_constant=_not_json)


def conforms(def_name, payload):
    schema = dict(SCHEMA)
    schema["$ref"] = f"#/$defs/{def_name}"
    Draft202012Validator(schema).validate(payload)


def run_ok(argv, def_name=None):
    result, out, err = invoke(argv)
    assert result.exit_code == 0, err
    payload = payload_of(out)
    if def_name is not None:
        conforms(def_name, payload)
    return payload, err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input documents shared across the command tests."""
    d = tmp_path_factory.mktemp("cli")
    grown = extend_with_realizers(FiniteCondition(frozenset()), 2)
    paths = {"cond2": d / "cond2.json"}
    paths["cond2"].write_text(json.dumps(condition_to_json(grown)))

    paths["ntype"] = d / "ntype.json"
    paths["ntype"].write_text(json.dumps(
        {"n": 2, "classes": [["x1"], ["y1"], ["x2"], ["y2"]]}))

    pts = sorted((p.x, p.y) for p in grown)
    entries = [
        {"subset": [list(a), list(b)], "color": 0}
        for i, a in enumerate(pts) for b in pts[i + 1:]
    ]
    paths["coloring"] = d / "coloring.json"
    paths["coloring"].write_text(json.dumps({"n": 2, "entries": entries}))

    paths["rows"] = d / "rows.json"
    paths["rows"].write_text(json.dumps([[0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 1]]))

    paths["gridcond"] = d / "gridcond.json"
    paths["gridcond"].write_text(json.dumps(
        [[0, 4], [0, 5], [0, 8], [1, 3], [1, 6], [2, 10]]))
    paths["grid"] = d / "grid.json"
    paths["grid"].write_text(json.dumps(
        {"bounds": [3, 11, 3],
         "triples": [[0, 4, 0], [0, 5, 0], [0, 8, 0], [0, 4, 2]]}))

    paths["expr"] = d / "expr.json"
    paths["expr"].write_text(json.dumps(
        {"op": "union", "args": [
            {"rect": {"x": {"cofinite": []}, "y": {"cofinite": [0, 1]}}},
            {"points": [[0, 0], [2, 1]]},
        ]}))
    paths["frechet"] = d / "u.json"
    paths["frechet"].write_text(json.dumps({"frechet": True}))
    paths["seq"] = d / "seq.json"
    paths["seq"].write_text(json.dumps(
        {"default": {"frechet": True}, "exceptions": {"0": {"principal": 5}}}))
    paths["bset"] = d / "b.json"
    paths["bset"].write_text(json.dumps({"cofinite": [3]}))

    paths["prefix"] = d / "prefix.json"
    paths["prefix"].write_text(json.dumps(
        {"classes": [{"x": [1, 2]}, {"y": 1}, {"y": 2}]}))
    paths["za"] = d / "za.json"
    paths["za"].write_text(json.dumps(
        {"U": {"cofinite": []}, "V_0": {"cofinite": []}, "V_12": {"finite": [15]}}))

    paths["dir"] = d
    return paths


# ------------------------------------------------------------------ types

def test_types_count_exact_payload():
    payload, err = run_ok(["types", "count", "--n", "2"], "types.count")
    assert payload == {"t": 4}
    assert err == ""


def test_types_enum():
    payload, _ = run_ok(["types", "enum", "--n", "2"], "types.enum")
    assert payload["count"] == 4
    assert payload["types"] == [
        "x1=x2<y1<y2", "x1<x2<y1<y2", "x2<x1<y1<y2", "x1<y1<x2<y2",
    ]


def test_types_extend_and_insert_by_flag():
    payload, _ = run_ok(
        ["types", "extend", "--type", "x1=x2<y1<y2"], "types.extend")
    assert payload["output"] == "x1=x2<y1<y2<x3<y3"
    payload, _ = run_ok(
        ["types", "insert", "--type", "x1<x2<y1<y2"], "types.insert")
    assert payload == {
        "input": "x1<x2<y1<y2", "output": "x1=x2<x3<y1<y2<y3", "n": 3,
    }


def test_types_extend_from_file(files):
    payload, _ = run_ok(
        ["types", "extend", "--in", str(files["ntype"])], "types.extend")
    assert payload["input"] == "x1<y1<x2<y2"
    assert payload["n"] == 3


# ------------------------------------------------------------------ cond

def test_cond_check_ok(files):
    payload, _ = run_ok(["cond", "check", "--in", str(files["cond2"])], "cond.check")
    assert payload == {"ok": True, "violations": []}


def test_cond_check_reports_violations(files):
    bad = files["dir"] / "bad.json"
    bad.write_text(json.dumps([[0, 1], [0, 2], [1, 3]]))
    payload, _ = run_ok(["cond", "check", "--in", str(bad)], "cond.check")
    assert not payload["ok"]
    assert payload["violations"]


def test_cond_realize(files):
    payload, _ = run_ok(
        ["cond", "realize", "--in", str(files["cond2"]), "--type", "x1=x2<y1<y2"],
        "cond.realize")
    assert payload["found"] and len(payload["realizer"]) == 2
    payload, _ = run_ok(
        ["cond", "realize", "--in", str(files["cond2"]),
         "--type", "x1=x2=x3<y1<y2<y3"],
        "cond.realize")
    assert payload == {"type": "x1=x2=x3<y1<y2<y3", "found": False, "realizer": None}


def test_cond_classify(files):
    payload, _ = run_ok(
        ["cond", "classify", "--in", str(files["cond2"]), "--n", "2"],
        "cond.classify")
    assert payload["classes_met"] == payload["t_n"] == 4
    assert sum(payload["by_type"].values()) == payload["subsets"]


def test_cond_grow_out_persists_bare_condition(files):
    out = files["dir"] / "grown.json"
    payload, _ = run_ok(
        ["cond", "grow", "--n", "2", "--out", str(out)], "cond.grow")
    assert payload["before"] == 0 and payload["after"] == payload["added"]
    on_disk = payload_of(out.read_text())
    assert on_disk == payload["condition"]
    # the artifact must feed straight back in
    again, _ = run_ok(["cond", "classify", "--in", str(out), "--n", "2"])
    assert again["classes_met"] == 4


def realized_by_blocks(points, n):
    """List forms of the n-patterns a condition realizes: classify each
    value-separated block, then join the patterns of lower blocks with
    those of higher ones, renumbering the higher pattern's indices."""
    def joined(low, i, high):
        high = re.sub(r"\d+", lambda m: str(int(m.group()) + i), high)
        return f"{low}<{high}" if low else high

    realized = {0: {""}} | {k: set() for k in range(1, n + 1)}
    for block in value_separated_blocks(points):
        block = FiniteCondition(frozenset(block))
        own = {j: {list_form(t) for t in classify_subsets(block, j)}
               for j in range(1, min(n, len(block)) + 1)}
        for k in range(n, 0, -1):
            realized[k] |= {joined(low, k - j, high)
                            for j in own if j <= k
                            for low in realized[k - j] for high in own[j]}
    return realized[n]


def test_cond_grow_n4_meets_every_pattern(files):
    out = files["dir"] / "grown4.json"
    start = time.perf_counter()
    payload, _ = run_ok(["cond", "grow", "--n", "4", "--out", str(out)], "cond.grow")
    assert time.perf_counter() - start < 2.0
    assert payload["after"] == 716
    assert realized_by_blocks(payload["condition"], 4) == {
        list_form(t) for t in enumerate_ntypes(4)}


def test_cond_grow_past_its_bound_is_refused():
    start = time.perf_counter()
    result, out, err = invoke(["cond", "grow", "--n", "6"])
    assert time.perf_counter() - start < 2.0
    assert result.exit_code == 1 and out == ""
    doc = payload_of(err)
    conforms("error", doc)
    assert doc["kind"] == "LimitError"


def run_cli(argv):
    """Run the CLI in a fresh interpreter; (exit code, stdout, stderr,
    wall seconds including start-up)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ramseybench.cli", *argv],
                          capture_output=True, text=True, env=child_env())
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


@pytest.fixture(scope="module")
def grown4(files):
    path = files["dir"] / "grown4_for_classify.json"
    path.write_text(json.dumps(condition_to_json(
        extend_with_realizers(FiniteCondition(frozenset()), 4))))
    return path


@pytest.mark.parametrize("action, schema", [(["cond", "classify"], "cond.classify"),
                                            (["homog", "floor"], "homog.floor")])
def test_classify_and_floor_answer_the_n4_growth(grown4, action, schema):
    # the 716-point growth has 1.09 * 10**10 4-subsets in 179 blocks of at
    # most four points; counting by blocks answers at once
    code, out, err, wall = run_cli([*action, "--n", "4", "--cond", str(grown4)])
    assert code == 0 and err == ""
    assert wall < 2.0
    payload = payload_of(out)
    conforms(schema, payload)
    assert payload["classes_met"] == payload["t_n"] == 236
    if schema == "cond.classify":
        assert payload["subsets"] == comb(716, 4) == sum(payload["by_type"].values())
    else:
        assert payload["floor_holds"] is True


@pytest.mark.parametrize("action", [["cond", "classify"], ["homog", "floor"]])
def test_classify_past_its_bound_is_refused(files, action):
    # one block of 183 points: C(183, 3) = 1,004,731 in-block 3-subsets
    path = files["dir"] / "fan183.json"
    path.write_text(json.dumps(condition_to_json(fans(183))))
    code, out, err, wall = run_cli([*action, "--n", "3", "--cond", str(path)])
    assert wall < 2.0
    assert code == 1 and out == ""
    doc = payload_of(err)
    conforms("error", doc)
    assert doc["kind"] == "LimitError"
    assert "183 points have 1004731 in-block subsets" in doc["error"]


@pytest.mark.parametrize("action", [["cond", "classify"], ["homog", "floor"]])
def test_many_blocks_at_n6_are_refused_by_the_steps_bound(files, action):
    # 2,000 blocks of two points: few in-block subsets, but joining them for
    # n = 6 may take more steps than the bound
    path = files["dir"] / "fans2x2000.json"
    path.write_text(json.dumps(condition_to_json(fans(*[2] * 2000))))
    start = time.perf_counter()
    result, out, err = invoke([*action, "--n", "6", "--cond", str(path)])
    assert time.perf_counter() - start < 2.0
    assert result.exit_code == 1 and out == ""
    doc = payload_of(err)
    conforms("error", doc)
    assert doc["kind"] == "LimitError"
    assert "joining 2000 value-separated blocks for n=6" in doc["error"]


def test_floor_holds_on_the_n5_growth(files):
    # 10,915 points in 2,183 blocks, 1.29 * 10**18 5-subsets
    path = files["dir"] / "grown5.json"
    path.write_text(json.dumps(condition_to_json(
        extend_with_realizers(FiniteCondition(frozenset()), 5))))
    code, out, err, wall = run_cli(["homog", "floor", "--n", "5", "--cond", str(path)])
    assert code == 0 and err == ""
    assert payload_of(out) == {"classes_met": 2752, "t_n": 2752, "floor_holds": True}
    assert wall < 6.0


@pytest.mark.parametrize("doc, path", [
    ([[1, 2], [None, 3]], "[1][0]"),
    ([[True, 3]], "[0][0]"),
    ([[0, 2], [1.5, 3]], "[1][0]"),
    ([[0, "2"]], "[0][1]"),
    ([[-1, 2]], "[0][0]"),
    ([[0, 2], [1]], "[1]"),
    ([[0, 1, 2]], "[0]"),
    ([{"x": 0, "y": 1}], "[0]"),
    ([[0, 1], 5], "[1]"),
    ({"points": [[0, None]]}, "[0][1]"),
    ({"points": 3}, "condition document"),
    ("nope", "condition document"),
])
@pytest.mark.parametrize("action", [
    ["cond", "check"],
    ["cond", "classify", "--n", "2"],
    ["cond", "grow", "--n", "2"],
    ["cond", "realize", "--type", "x1<y1"],
    ["homog", "floor", "--n", "2"],
])
def test_malformed_condition_documents_are_domain_errors(files, doc, path, action):
    cpath = files["dir"] / "bad_condition.json"
    cpath.write_text(json.dumps(doc))
    result, out, err = invoke([*action, "--in", str(cpath)])
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload["kind"] == "ValueError"
    assert path in payload["error"]


# ------------------------------------------------------------------ homog

PAIR = [[0, 1], [0, 2]]


# (document, the start of the error message)
BAD_COLORING_DOCS = [
    ([], "coloring document"),
    ({"entries": []}, "coloring document"),
    ({"n": True, "entries": []}, "n:"),
    ({"n": "2", "entries": []}, "n:"),
    ({"n": 2, "entries": 5}, "entries:"),
    ({"n": 2, "entries": {"subset": PAIR, "color": 0}}, "entries:"),
    ({"n": 2, "entries": [5]}, "entries[0]:"),
    ({"n": 2, "entries": [[PAIR, 0]]}, "entries[0]:"),
    ({"n": 2, "entries": [{"subset": 5, "color": 0}]}, "entries[0].subset"),
    ({"n": 2, "entries": [{"subset": {"x": 0}, "color": 0}]}, "entries[0].subset"),
    ({"n": 2, "entries": [{"subset": [[0, True], [0, 2]], "color": 0}]},
     "entries[0].subset[0][1]:"),
    ({"n": 2, "entries": [{"subset": [[0, 1], [0.5, 2]], "color": 0}]},
     "entries[0].subset[1][0]:"),
    ({"n": 2, "entries": [{"subset": PAIR, "color": 0},
                          {"subset": [[0, 1], [-1, 3]], "color": 0}]},
     "entries[1].subset[1][0]:"),
    ({"n": 2, "entries": [{"subset": [[0, 1], [0]], "color": 0}]}, "entries[0].subset[1]:"),
    ({"n": 2, "entries": [{"subset": [[0, 1], 7], "color": 0}]}, "entries[0].subset[1]:"),
    ({"n": 2, "entries": [{"subset": [[0, 1], [0, 1]], "color": 0}]}, "entries[0].subset:"),
    ({"n": 2, "entries": [{"subset": PAIR, "color": [1]}]}, "entries[0].color:"),
    ({"n": 2, "entries": [{"subset": PAIR, "color": {"c": 1}}]}, "entries[0].color:"),
]
# (file text, the start of the error message)
BAD_COLORING_CSVS = [
    ("0,1,0,2,0\n-3,1,0,2,0\n", "row 2, column 1:"),
    ("0,1, 3,5,0\n", "row 1, column 3:"),
    ("0,1,0,2 ,0\n", "row 1, column 4:"),
    ("x,1,0,2,0\n", "row 1, column 1:"),
    ("0,1.5,0,2,0\n", "row 1, column 2:"),
    ("0,1,0,\u00b2,0\n", "row 1, column 4:"),
    ("0,1,0,,0\n", "row 1, column 4:"),
    ("0,1,0,2,0\n\n0,1,3,x,0\n", "row 3, column 4:"),
    ("0,1,0,2,0\n0,1,0,1,0\n", "row 2: not a 2-set"),
    ("0,1,0,2\n", "bad coloring row"),
    ("0,1\n", "bad coloring row"),
    ("0,1,0,2,0\n0,1,0,2,3,5,0\n", "coloring rows disagree on subset size"),
    ("0,1,0,2,0\n0,1,0,2,3,x,0\n", "row 2, column 6:"),
    # a bad pair after a known one, after a repeat, and repeated
    ("0,1,0,2,0\n0,2,1,x,0\n", "row 2, column 4:"),
    ("0,1,0,1,0,x,0\n", "row 1, column 6:"),
    ("0,x,0,x,0\n", "row 1, column 2:"),
    ("\n\n", "empty coloring file"),
]


@pytest.mark.parametrize("doc, path", BAD_COLORING_DOCS)
@pytest.mark.parametrize("action", [
    ["homog", "check", "--type", "x1=x2<y1<y2"],
    ["homog", "search", "--type", "x1=x2<y1<y2"],
    ["homog", "search", "--type", "x1=x2<y1<y2", "--mode", "greedy"],
])
def test_malformed_coloring_documents_are_domain_errors(files, doc, path, action):
    cpath = files["dir"] / "bad_coloring.json"
    cpath.write_text(json.dumps(doc))
    result, out, err = invoke([*action, "--in", str(cpath)])
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload["kind"] == "ValueError"
    assert payload["error"].startswith(path)


@pytest.mark.parametrize("text, shown", [("NaN", "NaN"), ("Infinity", "Infinity"),
                                         ("-Infinity", "-Infinity"), ("1e400", "Infinity")])
@pytest.mark.parametrize("action", [
    ["homog", "check", "--type", "x1=x2<y1<y2"],
    ["homog", "search", "--type", "x1=x2<y1<y2"],
    ["homog", "search", "--type", "x1=x2<y1<y2", "--mode", "greedy"],
])
def test_a_colour_that_is_not_finite_is_a_domain_error(files, text, shown, action):
    # Python's json reads these; were they taken, the payload would print
    # them back as colours that are not JSON
    cpath = files["dir"] / "nonfinite_coloring.json"
    cpath.write_text('{"n": 2, "entries": [{"subset": [[0, 1], [0, 2]], "color": 0}, '
                     '{"subset": [[0, 1], [0, 3]], "color": %s}, '
                     '{"subset": [[0, 2], [0, 3]], "color": 0}]}' % text)
    result, out, err = invoke([*action, "--in", str(cpath)])
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload == {"error": f"entries[1].color: expected a finite JSON scalar, got {shown}",
                       "kind": "ValueError"}


@pytest.mark.parametrize("text, start", BAD_COLORING_CSVS)
@pytest.mark.parametrize("action", [
    ["homog", "check", "--type", "x1=x2<y1<y2"],
    ["homog", "search", "--type", "x1=x2<y1<y2"],
    ["homog", "search", "--type", "x1=x2<y1<y2", "--mode", "greedy"],
])
def test_malformed_coloring_csv_files_are_domain_errors(files, text, start, action):
    cpath = files["dir"] / "bad_coloring.csv"
    cpath.write_text(text, encoding="utf-8")
    result, out, err = invoke([*action, "--csv", str(cpath)])
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload["kind"] == "ValueError"
    assert payload["error"].startswith(start)


@pytest.mark.parametrize("entry, key", [({"subset": PAIR}, "color"),
                                        ({"color": 0}, "subset")])
def test_coloring_entries_without_a_key_name_its_path(files, entry, key):
    cpath = files["dir"] / "keyless_coloring.json"
    cpath.write_text(json.dumps({"n": 2, "entries": [{"subset": PAIR, "color": 0}, entry]}))
    result, out, err = invoke(["homog", "check", "--in", str(cpath), "--type", "x1<y1<x2<y2"])
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload == {"error": f"missing key 'entries[1].{key}' in input document",
                       "kind": "KeyError"}


@pytest.mark.parametrize("doc", [doc for doc, _ in BAD_COLORING_DOCS] + [
    {"n": 2, "entries": [{"subset": PAIR, "color": 0}, entry]}
    for entry in ({"subset": PAIR}, {"color": 0})])
def test_malformed_coloring_documents_fail_as_the_scan_reader_fails(doc):
    outcome = oracles.coloring_outcome(coloring_from_json, doc)
    assert outcome[0] in (ValueError, KeyError)
    assert outcome == oracles.coloring_outcome(oracles.coloring_from_json_scan, doc)


@pytest.mark.parametrize("text", [text for text, _ in BAD_COLORING_CSVS])
def test_malformed_coloring_csv_files_fail_as_the_scan_reader_fails(files, text):
    cpath = files["dir"] / "bad_coloring.csv"
    cpath.write_text(text, encoding="utf-8")
    outcome = oracles.coloring_outcome(coloring_from_csv, str(cpath))
    assert outcome[0] is ValueError
    assert outcome == oracles.coloring_outcome(oracles.coloring_from_csv_scan, str(cpath))


@pytest.fixture(scope="module")
def column_files(tmp_path_factory):
    """The 60-point column (0, y), y = 1..60, with its 34,220 3-subsets
    coloured 0, as CSV (``--csv``) and as JSON (``--in``)."""
    d = tmp_path_factory.mktemp("column")
    combos = list(combinations(range(1, 61), 3))
    paths = {"--csv": d / "column.csv", "--in": d / "column.json"}
    paths["--csv"].write_text("".join(f"0,{a},0,{b},0,{c},0\n" for a, b, c in combos))
    paths["--in"].write_text(json.dumps({"n": 3, "entries": [
        {"subset": [[0, a], [0, b], [0, c]], "color": 0} for a, b, c in combos]}))
    return paths


@pytest.mark.parametrize("option", ["--csv", "--in"])
def test_coloring_readers_build_each_point_once(column_files, option, monkeypatch):
    built = []
    init = Point.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    # the class stays Point, so isinstance checks and == still hold
    monkeypatch.setattr(Point, "__init__", counted)
    path = column_files[option]
    coloring = (coloring_from_csv(str(path)) if option == "--csv"
                else coloring_from_json(json.loads(path.read_text())))
    assert len(built) == 60
    assert coloring.ground == FiniteCondition(frozenset(Point(0, y) for y in range(1, 61)))
    assert all(isinstance(p, Point) for p in coloring.ground)


@pytest.mark.parametrize("option, color", [("--csv", "0"), ("--in", 0)])
def test_homog_check_reads_the_60_point_column(column_files, option, color):
    payload, _ = run_ok(["homog", "check", option, str(column_files[option]),
                         "--type", "x1=x2=x3<y1<y2<y3"], "homog.check")
    assert payload == {"type": "x1=x2=x3<y1<y2<y3", "homogeneous": True, "color": color,
                       "realizers": 34_220, "vacuous": False}


JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["n", "entries", "subset", "color"]), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    JSON_JUNK,
    st.fixed_dictionaries({"n": st.just(2) | JSON_JUNK, "entries": st.lists(
        st.fixed_dictionaries({"subset": st.just(PAIR) | JSON_JUNK,
                               "color": JSON_JUNK}), max_size=2)})),
    st.sampled_from(["check", "search"]))
def test_junk_coloring_documents_succeed_or_fail_with_the_error_payload(tmp_path_factory,
                                                                         doc, action):
    cpath = tmp_path_factory.mktemp("junk") / "coloring.json"
    cpath.write_text(json.dumps(doc))
    result, out, err = invoke(["homog", action, "--in", str(cpath), "--type", "x1=x2<y1<y2"])
    if result.exit_code == 0:
        conforms(f"homog.{action}", payload_of(out))
    else:
        assert result.exit_code == 1 and out == ""
        conforms("error", payload_of(err))


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    JSON_JUNK,
    st.fixed_dictionaries({"n": st.just(2) | JSON_JUNK, "entries": st.lists(
        st.fixed_dictionaries({"subset": st.just(PAIR) | JSON_JUNK,
                               "color": JSON_JUNK}), max_size=3)})))
def test_junk_coloring_documents_read_as_the_scan_reader_reads_them(doc):
    assert (oracles.coloring_outcome(coloring_from_json, doc, partial=True)
            == oracles.coloring_outcome(oracles.coloring_from_json_scan, doc, partial=True))
    assert (oracles.coloring_outcome(coloring_from_json, doc)
            == oracles.coloring_outcome(oracles.coloring_from_json_scan, doc))


def test_homog_floor_matches_documented_example(files):
    payload, err = run_ok(
        ["homog", "floor", "--cond", str(files["cond2"]), "--n", "2"],
        "homog.floor")
    assert payload == {"classes_met": 4, "t_n": 4, "floor_holds": True}
    assert err == ""


def test_homog_floor_in_flag_is_an_alias(files):
    via_cond, _ = run_ok(["homog", "floor", "--cond", str(files["cond2"]), "--n", "2"])
    via_in, _ = run_ok(["homog", "floor", "--in", str(files["cond2"]), "--n", "2"])
    assert via_cond == via_in


def test_homog_floor_diagnostics_name_missing_classes(files):
    small = files["dir"] / "small.json"
    small.write_text(json.dumps([[0, 1], [0, 2]]))
    payload, err = run_ok(["homog", "floor", "--cond", str(small), "--n", "2"])
    assert not payload["floor_holds"]
    assert "no realizer for" in err


def test_homog_check(files):
    payload, _ = run_ok(
        ["homog", "check", "--in", str(files["coloring"]),
         "--type", "x1=x2<y1<y2"],
        "homog.check")
    assert payload["homogeneous"] and payload["color"] == 0
    assert not payload["vacuous"]


def test_homog_search_exact(files):
    payload, _ = run_ok(
        ["homog", "search", "--in", str(files["coloring"]),
         "--type", "x1=x2<y1<y2", "--mode", "exact"],
        "homog.search")
    assert payload["exact"] and payload["size"] == 6


@pytest.mark.parametrize("action", [
    ["homog", "check"],
    ["homog", "search", "--mode", "exact"],
    ["homog", "search", "--mode", "greedy"],
])
def test_homog_pattern_size_must_match_coloring_arity(files, action):
    result, out, err = invoke([*action, "--in", str(files["coloring"]),
                               "--type", "x1<y1<x2<y2<x3<y3"])
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload == {"error": "pattern size 3 does not match coloring arity 2",
                       "kind": "ValueError"}


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_homog_search_refuses_a_negative_min_size(files, mode):
    result, out, err = invoke(["homog", "search", "--in", str(files["coloring"]),
                               "--type", "x1=x2<y1<y2", "--mode", mode, "--min-size", "-1"])
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload == {"error": "min-size: expected a natural number, got -1",
                       "kind": "ValueError"}


def test_homog_search_respects_limit_env(files, monkeypatch):
    monkeypatch.setenv(cli.LIMITS_ENV, json.dumps({"search": 3}))
    result, out, err = invoke(
        ["homog", "search", "--in", str(files["coloring"]),
         "--type", "x1=x2<y1<y2", "--mode", "exact"])
    assert result.exit_code == 1
    assert payload_of(err)["kind"] == "LimitError"
    assert out == ""


@pytest.mark.parametrize("raw", ["{not json", '{"search": -1}', '{"walk": 5}',
                                 '{"search": 2.5}', "[3]", '{"search": true}',
                                 '{"rich": false}',
                                 pytest.param("[" * 30_000 + "]" * 30_000, id="nested-30000")])
def test_invalid_limits_env_is_a_domain_error(raw, monkeypatch):
    monkeypatch.setenv(cli.LIMITS_ENV, raw)
    result, out, err = invoke(["types", "count", "--n", "2"])
    assert result.exit_code == 1
    assert payload_of(err)["kind"] == "ValueError"


def test_the_rich_bound_is_not_an_env_key(monkeypatch):
    monkeypatch.setenv(cli.LIMITS_ENV, '{"rich": 14}')
    result, out, err = invoke(["types", "count", "--n", "2"])
    assert result.exit_code == 1 and out == ""
    assert payload_of(err)["error"] == (f"{cli.LIMITS_ENV}: unknown key 'rich' "
                                        "(known: ['search'])")


@pytest.mark.parametrize("option, text", [
    ("--in", '{"n": 2, "entries": [{"subset": [[0, 1], [2, 3]], "color": "\u00e9"}]}'),
    ("--csv", "0,1,2,3,\u00e9\n"),
])
def test_input_files_are_utf8_in_any_locale(option, text, tmp_path):
    # JSON is UTF-8 (RFC 8259): an ASCII locale must not change a verdict
    path = tmp_path / "coloring"
    path.write_bytes(text.encode("utf-8"))
    env = {**child_env(), "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run([*CONSOLE, "homog", "check", option, str(path),
                           "--type", "x1<y1<x2<y2"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert '"color": "\\u00e9"' in proc.stdout
    assert payload_of(proc.stdout)["color"] == "\u00e9"


def test_homog_stabilize(files):
    payload, _ = run_ok(
        ["homog", "stabilize", "--in", str(files["rows"])], "homog.stabilize")
    assert payload == {"stable": [0, 1, 1], "positions": [0, 1, 2]}


def test_homog_extract_s(files):
    payload, _ = run_ok(
        ["homog", "extract-s", "--in", str(files["grid"]),
         "--cond", str(files["gridcond"]), "--window", "3"],
        "homog.extract-s")
    table = {(r["x"], r["z"]): r["status"] for r in payload["statuses"]}
    assert table[(0, 0)] == "stable-1"
    assert table[(0, 1)] == "stable-0"
    assert table[(0, 2)] == "unstable"
    assert table[(1, 0)] == table[(2, 2)] == "insufficient-data"


# ------------------------------------------------------------------ graph

def test_graph_build_check_rich(files):
    gpath = files["dir"] / "g.json"
    payload, _ = run_ok(
        ["graph", "build", "--cover-vertices", "3", "--cover-params", "2",
         "--out", str(gpath)],
        "graph.build")
    assert payload["vertices"] >= 3
    doc = payload_of(gpath.read_text())
    assert "edges" in doc and "payload" not in doc

    payload, _ = run_ok(
        ["graph", "check", "--in", str(gpath), "--k", "2", "--m", "3"],
        "graph.check")
    assert payload["satisfied"] and payload["unsatisfied"] == []

    payload, _ = run_ok(
        ["graph", "rich", "--in", str(gpath), "--vertices", "0,1,2", "--k", "0"],
        "graph.rich")
    assert payload["vertices"] == [0, 1, 2]


def test_graph_build_steps_conflicts_with_cover(files):
    result, out, err = invoke(
        ["graph", "build", "--steps", "3", "--cover-vertices", "2"])
    assert result.exit_code == 1
    assert "not both" in payload_of(err)["error"]


def test_graph_build_refuses_oversized_covering_fast():
    start = time.perf_counter()
    result, out, err = invoke(
        ["graph", "build", "--cover-vertices", "9", "--cover-params", "9"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1 and out == ""
    doc = payload_of(err)
    conforms("error", doc)
    assert doc["kind"] == "LimitError"


def test_graph_build_covers_eight_vertices(files):
    gpath = files["dir"] / "g8.json"
    start = time.perf_counter()
    payload, _ = run_ok(
        ["graph", "build", "--cover-vertices", "8", "--cover-params", "2",
         "--out", str(gpath)],
        "graph.build")
    assert time.perf_counter() - start < 1.0
    assert payload["vertices"] >= 8
    payload, _ = run_ok(
        ["graph", "check", "--in", str(gpath), "--k", "2", "--m", "8"],
        "graph.check")
    assert payload["satisfied"] and payload["unsatisfied"] == []


def refused_fast(argv):
    start = time.perf_counter()
    result, out, err = invoke(argv)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1 and out == ""
    doc = payload_of(err)
    conforms("error", doc)
    assert doc["kind"] == "LimitError"
    return doc


@pytest.mark.parametrize("argv", [
    ["sets", "sum", "--in", "diag.json", "--u", "frechet.json", "--seq", "far.json"],
    ["sets", "image", "--in", "one.json", "--u", "frechet.json", "--seq", "far.json"],
    ["sets", "column", "--in", "diag.json", "--x", "4000000"],
    ["homog", "extract-s", "--in", "grid.json", "--cond", "empty.json"],
    ["graph", "demo-noreverse", "--count", "1000000"],
])
def test_unbounded_requests_are_refused_fast(tmp_path, argv):
    docs = {"diag.json": {"aboveDiag": True}, "frechet.json": {"frechet": True},
            "far.json": {"default": {"principal": 1000000000}},
            "one.json": {"finite": [1]}, "empty.json": [],
            "grid.json": {"bounds": [100000, 1, 100000], "triples": []}}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    if argv[:2] == ["sets", "image"]:
        # the image of {1} reads two sections and takes the rest from the
        # tail form, so the far principal point is answered, not refused
        start = time.perf_counter()
        payload, _ = run_ok(argv, "sets.image")
        assert time.perf_counter() - start < 1.0
        assert payload == {"member": False}
        return
    refused_fast(argv)


@pytest.mark.parametrize("action", ["extend", "insert"])
@pytest.mark.parametrize("n", [10**6, 10**9])
def test_a_large_n_with_few_symbols_is_refused_fast(tmp_path, action, n):
    # the work follows the symbols in the document, not the n it names
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": n, "classes": [["x1"], ["y1"]]}))
    start = time.perf_counter()
    result, out, err = invoke(["types", action, "--in", str(path)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1 and out == "" and len(err.encode()) < 1024
    doc = payload_of(err)
    conforms("error", doc)
    names = ", ".join([f"x{i}" for i in range(2, 22)])
    assert doc["error"] == f"invalid pattern: symbols missing: {names} and {2 * n - 22} more"


def test_repeated_symbols_are_named_in_time_linear_in_them(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 1, "classes": [["x1"]] * 20_000 + [["y1"]]}))
    start = time.perf_counter()
    result, _, err = invoke(["types", "extend", "--in", str(path)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1
    assert payload_of(err)["error"] == "invalid pattern: symbols repeated: x1"


@pytest.mark.parametrize("action, doc, name", [
    ("extend", {"n": 1, "classes": [["x1", "x1"], ["y1"]]}, "x1"),
    ("insert", {"n": 2, "classes": [["x1", "x2", "x2"], ["y1"], ["y2"]]}, "x2"),
])
def test_a_repeat_inside_one_class_is_refused(tmp_path, action, doc, name):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    result, out, err = invoke(["types", action, "--in", str(path)])
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload["error"] == f"invalid pattern: symbols repeated: {name}"


@pytest.mark.parametrize("text, message", [
    ("x1=y1<y2<x2", "equivalent symbols must both be x's: x1=y1; "
                    "x1 must sit strictly before y1; x2 must sit strictly before y2"),
    ("x1<y1<x2", "dangling indices: x2"),
    ("x1=x1<y1", "symbols repeated: x1"),
    ("x1", "symbols missing: y1"),
    ("y1", "symbols missing: x1"),
])
def test_malformed_list_forms_get_the_judges_message(text, message):
    result, out, err = invoke(["types", "extend", "--type", text])
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert (payload["kind"], payload["error"]) == ("ValueError", "invalid pattern: " + message)


def test_graph_check_past_its_bound_is_refused(files):
    # on the 30-vertex (8, 2) covering, k = 5 and m = 20 give more than
    # 10**6 configurations; k = 4 and m = 12 give 201,193
    g = build_graph_covering(8, 2)
    gpath = files["dir"] / "g8_bound.json"
    gpath.write_text(json.dumps(graph_to_json(g)))
    doc = refused_fast(["graph", "check", "--in", str(gpath), "--k", "5", "--m", "20"])
    assert "extension check refused" in doc["error"]
    payload, _ = run_ok(["graph", "check", "--in", str(gpath), "--k", "4", "--m", "12"])
    adj = [{u for u in range(g.vertex_count) if g.has_edge(u, v)}
           for v in range(g.vertex_count)]
    assert [(tuple(c["params"]), frozenset(c["targets"])) for c in payload["unsatisfied"]] \
        == unsatisfied_configurations(adj, 4, 12)


@pytest.mark.parametrize("action", [
    ["graph", "check", "--k", "0", "--m", "0"],
    ["graph", "rich", "--vertices", "0,1"],
])
def test_a_graph_of_too_many_vertices_is_refused_fast(files, action):
    # a 35-byte document; each vertex would cost a witness row
    gpath = files["dir"] / "g_huge.json"
    gpath.write_text(json.dumps({"vertices": 10**9, "edges": []}))
    start = time.perf_counter()
    doc = refused_fast([*action, "--in", str(gpath)])
    assert time.perf_counter() - start < 0.5
    assert doc["error"] == ("witness rows refused: the graph has 1000000000 vertices, "
                            "one row each, the bound is 1000000")


def test_graph_demo_coloring_past_its_bound_is_refused():
    doc = refused_fast(["graph", "demo-coloring", "--palette", "5", "--max-vertex", "2000"])
    assert "class count refused" in doc["error"]


def test_homog_check_past_its_bound_is_refused(files):
    # a 400-point column has C(400, 3) = 10,586,800 3-subsets, all of them
    # realizers of the tied triple, though the coloring names only one
    column = files["dir"] / "column400.json"
    column.write_text(json.dumps(condition_to_json(
        FiniteCondition(frozenset(Point(0, y) for y in range(1, 401))))))
    cpath = files["dir"] / "one_entry_3coloring.json"
    cpath.write_text(json.dumps(
        {"n": 3, "entries": [{"subset": [[0, 1], [0, 2], [0, 3]], "color": 0}]}))
    doc = refused_fast(["homog", "check", "--in", str(cpath), "--partial",
                        "--cond", str(column), "--type", "x1=x2=x3<y1<y2<y3"])
    assert doc["error"].startswith("homogeneity check refused: 400 points")


def test_homog_exact_search_of_a_large_n_is_refused(files):
    # a 29-point column is inside the "points" bound, but its C(29, 14) =
    # 77,558,760 14-subsets all realize the tied 14-tuple, and exact search
    # holds a row per realizer, though the coloring names only one
    column = files["dir"] / "column29.json"
    column.write_text(json.dumps(condition_to_json(
        FiniteCondition(frozenset(Point(0, y) for y in range(1, 30))))))
    cpath = files["dir"] / "one_entry_14coloring.json"
    cpath.write_text(json.dumps(
        {"n": 14, "entries": [{"subset": [[0, y] for y in range(1, 15)], "color": 0}]}))
    tau = "=".join(f"x{i}" for i in range(1, 15)) + "".join(f"<y{i}" for i in range(1, 15))
    doc = refused_fast(["homog", "search", "--mode", "exact", "--in", str(cpath), "--partial",
                        "--cond", str(column), "--type", tau])
    assert doc["error"] == ("exact search refused: 29 points have 77558760 14-subsets, "
                            "the bound is 1000000")


@pytest.mark.parametrize("doc, path", [
    ({"vertices": 3, "edges": [[0, None]]}, "edges[0][1]"),
    ({"vertices": 3, "edges": [[True, 2]]}, "edges[0][0]"),
    ({"vertices": 3, "edges": [[0, 1], [1.5, 2]]}, "edges[1][0]"),
    ({"vertices": 3, "edges": [[0, "1"]]}, "edges[0][1]"),
    ({"vertices": 3, "edges": [[0, -1]]}, "edges[0][1]"),
    ({"vertices": 3, "edges": [[0]]}, "edges[0]"),
    ({"vertices": 3, "edges": [[0, 1, 2]]}, "edges[0]"),
    ({"vertices": 3, "edges": [{"u": 0, "v": 1}]}, "edges[0]"),
    ({"vertices": 3, "edges": [[1, 1]]}, "edges[0]"),
    ({"vertices": 3, "edges": [[0, 3]]}, "edges[0]"),
    ({"vertices": 3, "edges": {"0": 1}}, "edges"),
    ({"vertices": True, "edges": []}, "vertices"),
    ({"vertices": None, "edges": []}, "vertices"),
    ({"vertices": "3", "edges": []}, "vertices"),
    ({"edges": []}, "vertices"),
    ([[0, 1]], "vertices"),
])
@pytest.mark.parametrize("action", [
    ["graph", "check", "--k", "1", "--m", "1"],
    ["graph", "rich", "--vertices", "0,1"],
])
def test_malformed_graph_documents_are_domain_errors(files, doc, path, action):
    gpath = files["dir"] / "bad_graph.json"
    gpath.write_text(json.dumps(doc))
    result, out, err = invoke([*action, "--in", str(gpath)])
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload["kind"] == "ValueError"
    assert path in payload["error"]


def test_graph_demos():
    payload, _ = run_ok(
        ["graph", "demo-noreverse", "--count", "3", "--seed", "1"],
        "graph.demo-noreverse")
    assert payload["all_nonhomogeneous"] and payload["failures"] == []
    payload, _ = run_ok(
        ["graph", "demo-coloring", "--palette", "3"], "graph.demo-coloring")
    assert payload["all_colors"]


def test_graph_demo_noreverse_refuses_a_negative_count():
    result, out, err = invoke(["graph", "demo-noreverse", "--count", "-1"])
    assert result.exit_code == 1 and out == ""
    doc = payload_of(err)
    conforms("error", doc)
    assert doc["kind"] == "ValueError"
    assert doc["error"] == "count: expected a natural number >= 1, got -1"


def test_graph_demo_noreverse_refuses_a_count_of_zero():
    # checking no column must not read as "all_nonhomogeneous": true
    result, out, err = invoke(["graph", "demo-noreverse", "--count", "0"])
    assert result.exit_code == 1 and out == ""
    doc = payload_of(err)
    conforms("error", doc)
    assert doc["kind"] == "ValueError"
    assert doc["error"] == "count: expected a natural number >= 1, got 0"


# ------------------------------------------------------------------ sets

def test_sets_column(files):
    payload, _ = run_ok(
        ["sets", "column", "--in", str(files["expr"]), "--x", "0"],
        "sets.column")
    assert payload == {"x": 0, "column": {"cofinite": [1]}}


def test_sets_tail_and_filter_tests(files):
    payload, _ = run_ok(["sets", "tail", "--in", str(files["expr"])], "sets.tail")
    assert payload["upper"] == {"cofinite": [0, 1]}
    payload, _ = run_ok(["sets", "fr2", "--in", str(files["expr"])], "sets.fr2")
    assert payload == {"in_fr2": True}
    payload, _ = run_ok(["sets", "meets", "--in", str(files["expr"])], "sets.meets")
    assert payload == {"meets_all_fr2": True}


def test_sets_sum_and_image(files):
    payload, _ = run_ok(
        ["sets", "sum", "--in", str(files["expr"]), "--u", str(files["frechet"]),
         "--seq", str(files["seq"])],
        "sets.sum")
    assert payload["member"] is True
    payload, _ = run_ok(
        ["sets", "image", "--in", str(files["bset"]), "--u", str(files["frechet"]),
         "--seq", str(files["seq"])],
        "sets.image")
    assert payload == {"member": True}


# ------------------------------------------------------------------ omega

def test_omega_validate(files):
    payload, _ = run_ok(
        ["omega", "validate", "--in", str(files["prefix"])], "omega.validate")
    assert payload["ok"] and payload["violations"] == []
    assert len(payload["assumed"]) == 3


def test_omega_phi(files):
    payload, _ = run_ok(
        ["omega", "phi", "--in", str(files["prefix"]), "--z", "0,1,2"],
        "omega.phi")
    assert sorted(map(tuple, payload["points"])) == [(0, 1), (0, 2)]


def test_omega_assignd(files):
    payload, _ = run_ok(
        ["omega", "assignd", "--in", str(files["prefix"]), "--s", ""],
        "omega.assignd")
    assert payload == {"label": "U"}
    payload, _ = run_ok(
        ["omega", "assignd", "--in", str(files["prefix"]), "--s", "7"],
        "omega.assignd")
    assert payload == {"label": "V_7"}


def test_omega_zchain(files):
    payload, _ = run_ok(
        ["omega", "zchain", "--in", str(files["prefix"]), "--z", "0,5,9",
         "--za", str(files["za"])],
        "omega.zchain")
    assert payload == {"ok": True, "failed_at": None}
    payload, _ = run_ok(
        ["omega", "zchain", "--in", str(files["prefix"]), "--z", "12,15,20",
         "--za", str(files["za"])],
        "omega.zchain")
    assert payload == {"ok": False, "failed_at": 2}


def test_omega_zchain_missing_label_is_a_domain_error(files):
    result, out, err = invoke(
        ["omega", "zchain", "--in", str(files["prefix"]), "--z", "11,15,20",
         "--za", str(files["za"])])
    assert result.exit_code == 1
    assert payload_of(err)["kind"] == "MissingLabelError"


def test_omega_hmember(files):
    payload, _ = run_ok(
        ["omega", "hmember", "--za", str(files["za"]), "--point", "0,6"],
        "omega.hmember")
    assert payload["member"] is True


# ------------------------------------------------------------------ malformed documents
# Set-algebra, prefix and grid readers; each action reads its file options
# from the valid ``files`` except the one given the malformed document.

READERS = {
    "types extend": (["types", "extend"], {"--in": "ntype"}),
    "types insert": (["types", "insert"], {"--in": "ntype"}),
    "sets column": (["sets", "column", "--x", "1"], {"--in": "expr"}),
    "sets tail": (["sets", "tail"], {"--in": "expr"}),
    "sets fr2": (["sets", "fr2"], {"--in": "expr"}),
    "sets meets": (["sets", "meets"], {"--in": "expr"}),
    "sets sum": (["sets", "sum"], {"--in": "expr", "--u": "frechet", "--seq": "seq"}),
    "sets image": (["sets", "image"], {"--in": "bset", "--u": "frechet", "--seq": "seq"}),
    "omega phi": (["omega", "phi", "--z", "0,1,2"], {"--in": "prefix"}),
    "omega assignd": (["omega", "assignd", "--s", "7"], {"--in": "prefix"}),
    "omega zchain": (["omega", "zchain", "--z", "0,5,9"], {"--in": "prefix", "--za": "za"}),
    "omega hmember": (["omega", "hmember", "--point", "0,6"], {"--za": "za"}),
    "homog extract-s": (["homog", "extract-s"], {"--in": "grid", "--cond": "gridcond"}),
    "homog stabilize": (["homog", "stabilize"], {"--in": "rows"}),
}
TYPE_READERS = ("types extend", "types insert")
EXPRESSION_READERS = ("sets column", "sets tail", "sets fr2", "sets meets", "sets sum")
PREFIX_READERS = ("omega phi", "omega assignd", "omega zchain")
ZA_READERS = ("omega zchain", "omega hmember")
STANDIN_READERS = ("sets sum", "sets image")
DEEP = '{"op": "complement", "args": [' * 600 + '{"aboveDiag": true}' + "]}" * 600
FILE = object()  # the error names the file, not a path inside it
NOTHING = {"finite": []}

# (actions, option, document, the start of the error message)
MALFORMED = [
    (EXPRESSION_READERS, "--in", {"rect": [1, 2]}, "rect:"),
    (EXPRESSION_READERS, "--in", {"rect": {"x": NOTHING}}, "rect:"),
    (EXPRESSION_READERS, "--in", {"rect": {"x": {"finite": [True]}, "y": NOTHING}},
     "rect.x.finite[0]:"),
    (EXPRESSION_READERS, "--in", {"rect": {"x": {"cofinite": None}, "y": NOTHING}},
     "rect.x.cofinite:"),
    (EXPRESSION_READERS, "--in", {"column": 3}, "column:"),
    (EXPRESSION_READERS, "--in", {"column": {"x": [1], "content": NOTHING}}, "column.x:"),
    (EXPRESSION_READERS, "--in", {"column": {"x": -1, "content": NOTHING}}, "column.x:"),
    (EXPRESSION_READERS, "--in", {"column": {"x": 1, "content": [1]}}, "column.content:"),
    (EXPRESSION_READERS, "--in", {"points": [1]}, "points[0]:"),
    (EXPRESSION_READERS, "--in", {"points": [[1, 2, 3]]}, "points[0]:"),
    (EXPRESSION_READERS, "--in", {"points": [[1, True]]}, "points[0][1]:"),
    (EXPRESSION_READERS, "--in", {"points": 5}, "points:"),
    (EXPRESSION_READERS, "--in", {"op": "union", "args": 3}, "args:"),
    (EXPRESSION_READERS, "--in",
     {"op": "union", "args": [{"aboveDiag": True}, {"op": "complement", "args": [
         {"column": {"x": 0, "content": {"finite": ["0"]}}}]}]},
     "args[1].args[0].column.content.finite[0]:"),
    (EXPRESSION_READERS, "--in", DEEP, FILE),
    (("sets image",), "--in", {"cofinite": None}, "cofinite:"),
    (("sets image",), "--in", {"finite": [1, True]}, "finite[1]:"),
    (STANDIN_READERS, "--u", {"principal": [1]}, "principal:"),
    (STANDIN_READERS, "--u", {"principal": True}, "principal:"),
    (STANDIN_READERS, "--seq", {"default": {"frechet": True}, "exceptions": 3}, "exceptions:"),
    (STANDIN_READERS, "--seq", {"default": {"frechet": True}, "exceptions": {"x": NOTHING}},
     "exceptions.x:"),
    (STANDIN_READERS, "--seq",
     {"default": {"frechet": True}, "exceptions": {"2": {"principal": "2"}}},
     "exceptions.2.principal:"),
    (STANDIN_READERS, "--seq", {"default": {"principal": None}}, "default.principal:"),
    (STANDIN_READERS, "--seq", "[" * 2000 + "]" * 2000, FILE),
    (PREFIX_READERS, "--in", {"classes": 5}, "classes:"),
    (PREFIX_READERS, "--in", {"classes": [{"x": 1}]}, "classes[0].x:"),
    (PREFIX_READERS, "--in", {"classes": [{"y": [1]}]}, "classes[0].y:"),
    (PREFIX_READERS, "--in", {"classes": [{"x": [1]}, {"y": True}]}, "classes[1].y:"),
    (PREFIX_READERS, "--in", {"classes": [{"x": [1, None]}, {"y": 1}]}, "classes[0].x[1]:"),
    (PREFIX_READERS, "--in", {"classes": [{"z": [1]}]}, "classes[0]:"),
    (ZA_READERS, "--za", {"U": {"cofinite": None}}, "U.cofinite:"),
    (ZA_READERS, "--za", {"U": {"finite": [True]}}, "U.finite[0]:"),
    (("homog extract-s",), "--in", {"bounds": 5, "triples": []}, "bounds:"),
    (("homog extract-s",), "--in", {"bounds": [True, 9, 2], "triples": []}, "bounds[0]:"),
    (("homog extract-s",), "--in", {"bounds": [3, 11], "triples": []}, "bounds:"),
    (("homog extract-s",), "--in", {"bounds": [3, 11, 3], "triples": 5}, "triples:"),
    (("homog extract-s",), "--in",
     {"bounds": [3, 11, 3], "triples": [[0, 4, 0], [0, 5, 0], [0, 8, 0], [0, "4", 2]]},
     "triples[3][1]:"),
    (("homog extract-s",), "--in", {"bounds": [3, 11, 3], "triples": [[0, 4]]}, "triples[0]:"),
    (("homog extract-s",), "--in", {"bounds": [3, 11, 3], "triples": [[0, 4, 1.5]]},
     "triples[0][2]:"),
    (TYPE_READERS, "--in", {"n": 2, "classes": 5}, "classes:"),
    (TYPE_READERS, "--in", {"n": 2, "classes": [[5]]}, "classes[0][0]:"),
    (TYPE_READERS, "--in", {"n": 2, "classes": [["x1"], "y1"]}, "classes[1]:"),
    (TYPE_READERS, "--in", {"n": 2, "classes": [["x1", "z1"]]}, "classes[0][1]:"),
    (TYPE_READERS, "--in", {"n": True, "classes": [["x1"], ["y1"]]}, "n:"),
    (TYPE_READERS, "--in", {"n": "2", "classes": [["x1"], ["y1"], ["x2"], ["y2"]]}, "n:"),
    (("homog stabilize",), "--in", [1, 2], "[0]:"),
    (("homog stabilize",), "--in", [[None]], "[0][0]:"),
    (("homog stabilize",), "--in", [[0.7, 1]], "[0][0]:"),
    (("homog stabilize",), "--in", [[0, 1], [True, False]], "[1][0]:"),
    (("homog stabilize",), "--in", [[0, 1], [0, 2]], "[1][1]:"),
    (EXPRESSION_READERS, "--in", {"op": "xor"}, 'op: unknown operator "xor"'),
    (EXPRESSION_READERS, "--in", {"op": "union", "args": [{"aboveDiag": True}, {"op": "xor"}]},
     'args[1].op: unknown operator "xor"'),
    (EXPRESSION_READERS, "--in",
     {"op": "complement", "args": [{"aboveDiag": True}, {"aboveDiag": True}]},
     "args: complement takes exactly one argument"),
    (EXPRESSION_READERS, "--in", {"op": "union", "args": [{"op": "complement", "args": []}]},
     "args[0].args: complement takes exactly one argument"),
]


def _reader_argv(files, action, option, bad):
    argv, inputs = READERS[action]
    argv = list(argv)
    for opt, key in inputs.items():
        argv += [opt, str(bad if opt == option else files[key])]
    return argv


@pytest.mark.parametrize("action", READERS)
def test_reader_actions_succeed_on_the_valid_files(files, action):
    result, out, err = invoke(_reader_argv(files, action, None, None))
    assert result.exit_code == 0, err
    conforms(action.replace(" ", "."), payload_of(out))


@pytest.mark.parametrize("action, option, doc, start", [
    pytest.param(action, option, doc, start, id=f"{action} {option} #{i}")
    for i, (actions, option, doc, start) in enumerate(MALFORMED) for action in actions])
def test_malformed_documents_name_their_path(files, action, option, doc, start):
    bad = files["dir"] / "malformed.json"
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    result, out, err = invoke(_reader_argv(files, action, option, bad))
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload["kind"] == "ValueError"
    assert payload["error"].startswith(f"{bad}: " if start is FILE else start)


# (action, option, document, the error up to the quoted value, that value)
QUOTED = [
    ("sets fr2", "--in", {"op": "union", "args": {"a": True}},
     "args: expected a list, got ", {"a": True}),
    ("sets tail", "--in", {"op": None}, "op: unknown operator ", None),
    ("sets column", "--in", {"points": {"p": [1, 2]}},
     "points: expected a list of [x, y] pairs, got ", {"p": [1, 2]}),
    ("sets meets", "--in", {"rect": ["x", "y"]},
     "rect: expected an object with keys x, y, got ", ["x", "y"]),
    ("sets fr2", "--in", {"op": "union", "args": [{"circle": "\u00e9"}]},
     "args[0]: bad planar set document: ", {"circle": "\u00e9"}),
    ("sets sum", "--seq", {"default": {"frechet": True}, "exceptions": [None]},
     "exceptions: expected an object from indices to stand-ins, got ", [None]),
    ("omega phi", "--in", {"classes": [{"x": [1]}, {"z": None}]},
     "classes[1]: bad class entry: ", {"z": None}),
    ("omega assignd", "--in", {"classes": {"x": [1]}},
     "classes: expected a list of class entries, got ", {"x": [1]}),
]


@pytest.mark.parametrize("action, option, doc, start, quoted", QUOTED)
def test_malformed_values_are_quoted_as_json(files, action, option, doc, start, quoted):
    bad = files["dir"] / "quoted.json"
    bad.write_text(json.dumps(doc))
    result, out, err = invoke(_reader_argv(files, action, option, bad))
    assert result.exit_code == 1 and out == ""
    error = payload_of(err)["error"]
    assert error.startswith(start) and json.loads(error[len(start):]) == quoted


# CLI refusals of calls that parse: {name} stands for the path of files[name],
# {doc} for a file holding the row's document.
REFUSALS = [
    (["types", "extend"], None, "need a pattern: pass --type or --in"),
    (["types", "insert"], None, "need a pattern: pass --type or --in"),
    (["homog", "check", "--type", "x1<y1"], None, "need a coloring: pass --in or --csv"),
    (["homog", "search", "--type", "x1<y1"], None, "need a coloring: pass --in or --csv"),
    (["graph", "build", "--steps", "0"], None, "steps: expected a natural number >= 1, got 0"),
    (["graph", "build", "--cover-vertices", "-1"], None,
     "max_vertex: expected a natural number, got -1"),
    (["graph", "demo-coloring", "--palette", "1"], None,
     "palette: expected a natural number >= 2, got 1"),
    (["types", "extend", "--in", "{doc}"], {"n": 0, "classes": []},
     "n: expected a natural number >= 1, got 0"),
    (["types", "insert", "--in", "{doc}"], {"n": 1, "classes": [[], ["x1"], ["y1"]]},
     "invalid pattern: empty equivalence class"),
    (["sets", "fr2", "--in", "{doc}"],
     {"op": "complement", "args": [{"aboveDiag": True}, {"aboveDiag": True}]},
     "args: complement takes exactly one argument"),
    (["sets", "tail", "--in", "{doc}"], {"op": "xor"}, 'op: unknown operator "xor"'),
    (["homog", "extract-s", "--in", "{doc}", "--cond", "{gridcond}"],
     {"bounds": [3, 11, 3], "triples": [[0, 4, 0], [5, 4, 0]]},
     "triple (5, 4, 0) outside grid bounds"),
    (["homog", "stabilize", "--in", "{doc}"], {"rows": [[0]]},
     "rows document must be a JSON list of 0/1 rows"),
    # the library's one judge of naturals names the field and quotes the value
    (["omega", "phi", "--in", "{doc}", "--z", "1,2"], {"classes": [{"x": [0]}, {"y": 1}]},
     "x-indices: expected a natural number >= 1, got 0"),
    (["omega", "zchain", "--in", "{doc}", "--z", "1,2", "--za", "{za}"],
     {"classes": [{"x": [1]}, {"y": 0}]}, "y-index: expected a natural number >= 1, got 0"),
    (["types", "extend", "--type", "x0<y0"], None,
     "symbol index: expected a natural number >= 1, got 0"),
    (["omega", "assignd", "--in", "{prefix}", "--s", "-3"], None,
     "chain: expected a natural number, got -3"),
    (["omega", "phi", "--in", "{prefix}", "--z=-1,2"], None,
     "chain: expected a natural number, got -1"),
    (["omega", "hmember", "--za", "{za}", "--point=-1,2"], None,
     "x: expected a natural number, got -1"),
    (["graph", "build", "--steps", "5", "--cover-params", "3"], None,
     "pass --cover-params only with --cover-vertices"),
    (["graph", "check", "--in", "{doc}", "--k", "1", "--m=-1"], {"vertices": 2, "edges": []},
     "m: expected a natural number, got -1"),
    (["graph", "check", "--in", "{doc}", "--k", "1", "--m", "1"],
     {"vertices": 2, "edges": [[0, 1, 1]]},
     "edges[0]: expected a list of 2 natural numbers, got [0, 1, 1]"),
    (["cond", "classify", "--in", "{doc}", "--n", "1"], [[0, 4], [0]],
     "[1]: expected a list of 2 natural numbers, got [0]"),
    (["homog", "extract-s", "--in", "{grid}", "--cond", "{gridcond}", "--window", "0"], None,
     "window: expected a natural number >= 1, got 0"),
    (["sets", "column", "--in", "{expr}", "--x=-1"], None, "x: expected a natural number, got -1"),
    (["types", "count", "--n", "0"], None, "n: expected a natural number >= 1, got 0"),
]


def test_validate_reports_an_index_below_1_as_the_judge_words_it(files):
    bad = files["dir"] / "low-index.json"
    for classes, text in (([{"x": [0]}], "x-indices: expected a natural number >= 1, got 0"),
                          ([{"x": [1]}, {"y": 0}], "y-index: expected a natural number >= 1, got 0")):
        bad.write_text(json.dumps({"classes": classes}))
        result, out, _ = invoke(["omega", "validate", "--in", str(bad)])
        assert result.exit_code == 0
        assert json.loads(out)["malformed"] == [text]


@pytest.mark.parametrize("argv, doc, message", REFUSALS,
                         ids=[" ".join(argv[:2]) + f" #{i}" for i, (argv, _, _) in enumerate(REFUSALS)])
def test_refused_calls_exit_1_with_the_error_payload(files, tmp_path, argv, doc, message):
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    paths = {name: str(path) for name, path in files.items()}
    argv = [arg.format(doc=tmp_path / "doc.json", **paths) for arg in argv]
    result, out, err = invoke(argv)
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert (payload["kind"], payload["error"]) == ("ValueError", message)


@pytest.mark.parametrize("option", ["--in", "--u", "--seq"])
def test_a_file_that_is_not_json_is_named_in_the_error(files, option):
    bad = files["dir"] / "not-json.json"
    bad.write_text("[1,\n")
    result, out, err = invoke(_reader_argv(files, "sets sum", option, bad))
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload == {"error": f"{bad}: Expecting value: line 2 column 1 (char 4)",
                       "kind": "JSONDecodeError"}


@pytest.mark.parametrize("argv, message", [
    (["omega", "hmember", "--za", "za", "--point", "1"],
     "--point: expected 2 comma-separated integers, got 1"),
    (["omega", "hmember", "--za", "za", "--point", "1,2,3"],
     "--point: expected 2 comma-separated integers, got 3"),
    (["omega", "hmember", "--za", "za", "--point", "1,x"],
     "--point: invalid literal for int() with base 10: 'x'"),
    (["omega", "phi", "--in", "prefix", "--z", "0,,2"],
     "--z: invalid literal for int() with base 10: ''"),
    (["omega", "zchain", "--in", "prefix", "--za", "za", "--z", "a"],
     "--z: invalid literal for int() with base 10: 'a'"),
    (["omega", "assignd", "--in", "prefix", "--s", "7,y"],
     "--s: invalid literal for int() with base 10: 'y'"),
    (["graph", "rich", "--in", "graph.json", "--vertices", "0;1"],
     "--vertices: invalid literal for int() with base 10: '0;1'"),
    # int() alone would read any Unicode decimal digit and underscores
    (["graph", "rich", "--in", "graph.json", "--vertices", "\u0663"],
     "--vertices: invalid literal for int() with base 10: '\u0663'"),
    (["graph", "rich", "--in", "graph.json", "--vertices", "1_0"],
     "--vertices: invalid literal for int() with base 10: '1_0'"),
], ids=lambda v: " ".join(v[:2] + v[-2:]) if isinstance(v, list) else None)
def test_a_bad_comma_list_names_its_option(files, argv, message):
    graph = files["dir"] / "graph.json"
    graph.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]]}))
    argv = [str(graph) if arg == "graph.json" else str(files.get(arg, arg)) for arg in argv]
    result, out, err = invoke(argv)
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload == {"error": message, "kind": "ValueError"}


@pytest.mark.parametrize("argv, message", [
    (["graph", "rich", "--in", "nope.json", "--vertices", "0;1"],
     "--vertices: invalid literal for int() with base 10: '0;1'"),
    (["omega", "phi", "--in", "nope.json", "--z", "1,x"],
     "--z: invalid literal for int() with base 10: 'x'"),
    (["omega", "zchain", "--in", "nope.json", "--z", "1,x", "--za", "za"],
     "--z: invalid literal for int() with base 10: 'x'"),
    (["omega", "hmember", "--za", "nope.json", "--point", "1"],
     "--point: expected 2 comma-separated integers, got 1"),
    (["omega", "assignd", "--in", "nope.json", "--s", "1,x"],
     "--s: invalid literal for int() with base 10: 'x'"),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else None)
def test_a_bad_comma_list_is_named_before_any_file_is_read(files, argv, message):
    missing = files["dir"] / "nope.json"
    assert not missing.exists()
    argv = [str(missing) if arg == "nope.json" else str(files.get(arg, arg)) for arg in argv]
    result, out, err = invoke(argv)
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload == {"error": message, "kind": "ValueError"}


@pytest.mark.parametrize("action, extra", [("check", ["--m", "1"]), ("rich", ["--vertices", "0"])])
def test_graph_check_and_rich_refuse_a_negative_k_alike(files, action, extra):
    gpath = files["dir"] / "negative-k.json"
    gpath.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]]}))
    result, out, err = invoke(["graph", action, "--in", str(gpath), "--k", "-1", *extra])
    assert result.exit_code == 1 and out == ""
    payload = payload_of(err)
    conforms("error", payload)
    assert payload == {"error": "k: expected a natural number, got -1", "kind": "ValueError"}


READER_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats(allow_nan=False)
    | st.text(max_size=3) | st.sampled_from(["union", "intersection", "complement"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(
        ["op", "args", "points", "rect", "column", "aboveDiag", "x", "y", "content", "finite",
         "cofinite", "classes", "bounds", "triples", "principal", "frechet", "default",
         "exceptions", "U", "3"]), inner, max_size=3),
    max_leaves=14)


@settings(max_examples=150, deadline=None)
@given(READER_JUNK, st.sampled_from(sorted(
    {(action, option) for actions, option, _, _ in MALFORMED for action in actions})))
def test_junk_reader_documents_succeed_or_fail_with_the_error_payload(
        files, doc, action_option):
    action, option = action_option
    bad = files["dir"] / "junk.json"
    bad.write_text(json.dumps(doc))
    result, out, err = invoke(_reader_argv(files, action, option, bad))
    if result.exit_code == 0:
        conforms(action.replace(" ", "."), payload_of(out))
    else:
        assert result.exit_code == 1 and out == ""
        conforms("error", payload_of(err))


# ------------------------------------------------------------------ envelope

def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        invoke(["types", "count"])  # --n missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        invoke(["cond", "check"])  # --in required
    assert exc.value.code == 2


NO_FILE = "/nonexistent/input.json"


@pytest.mark.parametrize("argv", [
    ["cond", "grow", "--n", "2", "--in", ""],
    ["cond", "grow", "--n", "2", "--cond", ""],
    ["cond", "check", "--in", ""],
    ["homog", "check", "--type", "x1<y1", "--in", ""],
    ["homog", "check", "--type", "x1<y1", "--csv", ""],
    ["homog", "check", "--type", "x1<y1", "--in", NO_FILE, "--cond", ""],
    ["homog", "search", "--type", "x1<y1", "--in", NO_FILE, "--cond", ""],
    ["homog", "extract-s", "--in", NO_FILE, "--cond", ""],
    ["types", "count", "--n", "1", "--out", ""],
    ["sets", "sum", "--in", NO_FILE, "--u", "", "--seq", NO_FILE],
    ["sets", "image", "--in", NO_FILE, "--u", NO_FILE, "--seq", ""],
    ["omega", "hmember", "--za", "", "--point", "1,2"],
], ids=lambda argv: " ".join(argv[:2] + [argv[argv.index("") - 1]]))
def test_an_empty_path_is_a_usage_error_naming_its_option(argv):
    option = argv[argv.index("") - 1]
    code, out, err = in_process(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and err.count("error:") == 1
    assert err.endswith(f"ramseybench {argv[0]} {argv[1]}: error: argument {option}: "
                        "expected a path, got an empty string\n")


def test_missing_file_is_a_domain_error():
    result, out, err = invoke(["cond", "check", "--in", "/nonexistent/x.json"])
    assert result.exit_code == 1
    doc = payload_of(err)
    conforms("error", doc)
    assert doc["kind"] == "FileNotFoundError"
    assert out == ""


def test_bad_list_form_is_a_domain_error():
    result, out, err = invoke(["types", "extend", "--type", "x1<<y1"])
    assert result.exit_code == 1
    assert payload_of(err)["kind"] == "ValueError"


def test_table_format_flattens_dotted_paths(files):
    result, out, err = invoke(
        ["homog", "floor", "--cond", str(files["cond2"]), "--n", "2",
         "--format", "table"])
    assert result.exit_code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["classes_met", "4"]
    assert lines[2].split() == ["floor_holds", "true"]

    result, out, _ = invoke(
        ["cond", "classify", "--in", str(files["cond2"]), "--n", "2",
         "--format", "table"])
    assert any(line.startswith("by_type.x1=x2<y1<y2") for line in out.splitlines())


def test_out_persists_payload_by_default(files):
    target = files["dir"] / "count.json"
    run_ok(["types", "count", "--n", "3", "--out", str(target)])
    assert payload_of(target.read_text()) == {"t": 26}


@pytest.mark.parametrize("name, kind", [("missing/count.json", "FileNotFoundError"),
                                        (".", "IsADirectoryError")])
def test_out_that_cannot_be_written_is_a_domain_error(tmp_path, name, kind):
    # the file is written before anything goes to stdout
    result, out, err = invoke(["types", "count", "--n", "1", "--out", str(tmp_path / name)])
    assert result.exit_code == 1 and out == ""
    doc = payload_of(err)
    conforms("error", doc)
    assert doc["kind"] == kind


SMALL, LARGE = ["types", "count", "--n", "1"], ["types", "enum", "--n", "6"]


@pytest.mark.parametrize("argv, buffered", [
    (SMALL, True), (SMALL, False), (LARGE, True), (LARGE, False), (["--help"], True),
], ids=["small-buffered", "small-unbuffered", "large-buffered", "large-unbuffered", "help"])
def test_stdout_reader_gone_exits_with_the_error_payload(argv, buffered):
    # the read end is closed before the child starts, so its first write
    # or its final flush fails (argparse drops a failed write of its help
    # itself, so only a buffered help reaches the flush)
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = child_env()
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "ramseybench.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    doc = payload_of(proc.stderr)
    conforms("error", doc)
    assert doc["kind"] == "BrokenPipeError"


def test_console_entry_point_roundtrip(files):
    proc = subprocess.run(
        [sys.executable, "-m", "ramseybench.cli", "types", "count", "--n", "2"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert payload_of(proc.stdout) == {"t": 4}
    proc = subprocess.run(
        [sys.executable, "-m", "ramseybench.cli", "cond", "check",
         "--in", "/nonexistent/y.json"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 1 and proc.stdout == ""


def in_process(argv):
    """Exit code, stdout and stderr of cli.run(argv), usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv).exit_code
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------------ parser

VALUES = {"--n": "1", "--type": "x1<y1", "--palette": "2", "--k": "1", "--m": "1",
          "--x": "0", "--vertices": "0", "--z": "1", "--point": "1,2"}


def action_argv(area, action, arguments):
    """A call of the action with every required option and ``--in`` given;
    files are missing, so most calls stop at their first read."""
    argv = [area, action]
    for flags, kwargs in arguments:
        if kwargs.get("required") or flags[0] == "--in":
            argv += [flags[0], VALUES.get(flags[0], NO_FILE)]
    return argv


ACTIONS = [(area, action, arguments) for area, (_, actions) in cli._AREAS.items()
           for action, _, _, arguments in actions]
ACTION_CALLS = [action_argv(*row) for row in ACTIONS]
EDGE_CALLS = [
    [], ["--help"], ["-h", "sets"], ["types"], ["homog", "--help"], ["homog", "-h", "search"],
    ["homog", "search", "--help"], ["types", "count", "--n", "1", "-h"],
    ["types", "count", "--n", "2", "--form", "table"], ["types", "count", "--n=3"],
    ["--bogus", "types", "count", "--n", "1"], ["types", "--bogus", "count", "--n", "1"],
    ["types", "count", "--bogus", "--n", "1"], ["types", "count", "--n", "1", "--bogus"],
    ["types", "count", "--n", "x"], ["types", "count", "--", "--n"],
    ["cond", "check"], ["cond", "check", "--format", "table"], ["cond", "grow", "--n", "2", "--cond"],
    ["homog", "search", "--type", "x1<y1", "--mode", "best"],
    ["nope"], ["nope", "count"], ["homog", "nope"], ["homog", "nope", "--help"],
]

# Tokens for drawn calls: each action's own flags (with --format and --out),
# values that some options take and others refuse, and tokens only argparse
# reads or refuses: '=' spellings, abbreviations, '--', help, a stray
# positional and flags of other actions.
OWN_FLAGS = {(area, action): [flag for flags, _ in (*arguments, *cli._COMMON) for flag in flags]
             for area, action, arguments in ACTIONS}
ALL_FLAGS = sorted({flag for flags in OWN_FLAGS.values() for flag in flags})
OPTION_VALUES = sorted({*VALUES.values(), "0", "2", "1,x", "json", "table", "exact",
                        "greedy", "decreasing", NO_FILE, "", "-1", "x", "\u0663", "1_0", "\uff13"})
HOSTILE = ["", "-1", "--", "--n=3", "--format=table", "--cov", "--form", "--in", "-h",
           "--help", "stray"]


def foreign_flags(call):
    return [flag for flag in ALL_FLAGS if flag not in OWN_FLAGS[tuple(call)]]


def drawn_call(rng, base):
    """``base`` with its option pairs, some dropped, shuffled among up to
    four drawn items: an own flag with a value, an own flag alone, a
    hostile token or another action's flag."""
    own = OWN_FLAGS[tuple(base[:2])]
    items = [base[i:i + 2] for i in range(2, len(base), 2)]
    for _ in range(rng.randrange(5)):
        pick = rng.random()
        if pick < 0.6:
            items.append([rng.choice(own), rng.choice(OPTION_VALUES)])
        elif pick < 0.75:
            items.append([rng.choice(own)])
        elif pick < 0.95:
            items.append([rng.choice(HOSTILE)])
        else:
            items.append([rng.choice(foreign_flags(base[:2]))])
    if rng.random() < 0.2:
        del items[:rng.randrange(len(items) + 1)]
    rng.shuffle(items)
    return base[:2] + [token for item in items for token in item]


FULL_TREE = cli.build_parser()


def tree_reads(argv):
    """``vars()`` of the full argparse tree's namespace for argv, or None
    where argparse exits, ``run()``'s required ``--in`` check included."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            args = FULL_TREE.parse_args(argv)
        except SystemExit:
            return None
    return None if cli._lacks_in(args) else vars(args)


def read_as_the_tree_reads(argv):
    """Whether ``_read_call`` read argv; what it reads, the tree reads the same."""
    read = cli._read_call(argv)
    assert read is None or vars(read) == tree_reads(argv), argv
    return read is not None


def test_the_command_table_has_the_shape_the_reader_reads():
    # _read_call reads each spec as given: -- flags, each taking one value
    # or a store_true switch, a str default never passed through a type,
    # no dest that the namespace's area, action or func key takes, and
    # integers read by the ASCII check, never by int()
    keywords = {"dest", "metavar", "help", "type", "choices", "default", "required", "action"}
    specs = [spec for _, _, arguments in ACTIONS for spec in (*arguments, *cli._COMMON)]
    assert all(
        kwargs.keys() <= keywords
        and kwargs.get("action", "store_true") == "store_true"
        and all(flag.startswith("--") for flag in flags)
        and not (isinstance(kwargs.get("default"), str) and "type" in kwargs)
        and kwargs.get("type") is not int
        and (kwargs.get("dest") or flags[0][2:].replace("-", "_")) not in {"area", "action", "func"}
        for flags, kwargs in specs)
    # only --in and its --cond alias of a required input default to the
    # sentinel, and an alias shares its --in's default
    assert {(flags, kwargs["dest"]) for flags, kwargs in specs
            if kwargs.get("default") is cli._NO_IN} == {(("--in",), "infile"),
                                                         (("--cond",), "infile")}
    for _, _, arguments in ACTIONS:
        inputs = [kwargs for _, kwargs in arguments if kwargs.get("dest") == "infile"]
        assert len({id(kwargs["default"]) for kwargs in inputs}) <= 1


def test_the_reader_reads_every_action_call_as_the_tree_does():
    assert all(read_as_the_tree_reads(argv) for argv in ACTION_CALLS)
    assert not any(read_as_the_tree_reads(argv) for argv in EDGE_CALLS)
    rng = random.Random(19)
    read = [read_as_the_tree_reads(drawn_call(rng, base))
            for base in ACTION_CALLS for _ in range(80)]
    # both sides of the split are drawn often
    assert sum(read) > 100 and read.count(False) > 100


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(ACTION_CALLS), st.randoms(use_true_random=False))
def test_the_reader_reads_drawn_calls_as_the_tree_does(base, rng):
    read_as_the_tree_reads(drawn_call(rng, base))


def answer(argv, monkeypatch, full=False):
    """Exit code, stdout and stderr of ``cli.run(argv)`` and the namespace its
    handler got, read by ``_read_call`` or, with ``full``, by the argparse
    tree; and how many ``ArgumentParser``s were built."""
    read, built, parsed = cli._read_call, [], []
    init, parse = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_args

    def reader(argv):
        args = None if full else read(argv)
        if args is not None:
            parsed.append(vars(args))
        return args

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recorded(self, *args, **kwargs):
        args = parse(self, *args, **kwargs)
        parsed.append(vars(args))
        return args

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_call", reader)
        patch.setattr(argparse.ArgumentParser, "__init__", counted)
        patch.setattr(argparse.ArgumentParser, "parse_args", recorded)
        return (*in_process(argv), parsed), len(built)


@pytest.mark.parametrize("argv", ACTION_CALLS + EDGE_CALLS,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_the_parser_built_for_a_call_answers_as_the_full_tree(argv, monkeypatch):
    # an action call is read from the table and builds no parser; the rest
    # build the full tree
    monkeypatch.setenv("COLUMNS", "80")
    got, parsers = answer(argv, monkeypatch)
    assert got == answer(argv, monkeypatch, full=True)[0]
    assert (parsers == 0) == (argv in ACTION_CALLS)


def test_the_docs_name_the_actions_of_the_table():
    # README's "Areas and actions" block and the schema's per-action defs
    # (named area.action; shared defs such as error have no dot)
    table = {area: [action for action, _, _, _ in actions]
             for area, (_, actions) in cli._AREAS.items()}
    block = (REPO / "README.md").read_text().split("Areas and actions:\n\n```text\n")[1]
    listed = {}
    for line in block.split("```")[0].splitlines():
        area, actions = line.split(maxsplit=1)
        listed[area] = actions.split(" | ")
    assert listed == table
    assert sorted(name for name in SCHEMA["$defs"] if "." in name) \
        == sorted(f"{area}.{action}" for area, actions in table.items() for action in actions)


# ------------------------------------------------------------------ console entry
# The entry leaves through os._exit once the payload is out, so these start
# it as the installed script does and compare what reaches the streams.

@pytest.mark.parametrize("sink", ["pipe", "file"])
def test_console_entry_delivers_a_large_payload_whole(sink, tmp_path):
    code, expected, _ = in_process(LARGE)
    assert code == 0 and len(expected) > 1_500_000
    if sink == "pipe":
        proc = subprocess.run([*CONSOLE, *LARGE], capture_output=True, env=child_env())
        got = proc.stdout
    else:
        with open(tmp_path / "stdout", "wb") as fh:
            proc = subprocess.run([*CONSOLE, *LARGE], stdout=fh, stderr=subprocess.PIPE,
                                  env=child_env())
        got = (tmp_path / "stdout").read_bytes()
    assert proc.returncode == 0 and proc.stderr == b""
    assert got == expected.encode()


def test_console_entry_writes_out_whole(tmp_path):
    proc = subprocess.run([*CONSOLE, *LARGE, "--out", str(tmp_path / "entry.json")],
                          capture_output=True, env=child_env())
    assert proc.returncode == 0
    in_process([*LARGE, "--out", str(tmp_path / "run.json")])
    assert (tmp_path / "entry.json").read_bytes() == (tmp_path / "run.json").read_bytes()


@pytest.mark.parametrize("argv, code", [
    (["types", "count", "--n", "2"], 0),
    (["homog", "floor", "--cond", "{cond2}", "--n", "3"], 0),
    (["cond", "check", "--in", "/nonexistent/y.json"], 1),
    (["types", "extend", "--type", "x1<<y1"], 1),
    (["types", "count", "--n", "x"], 2),
    (["cond", "check"], 2),
], ids=["ok", "ok-with-diagnostics", "missing-file", "bad-pattern", "bad-option", "missing-in"])
def test_console_entry_answers_as_run_does(argv, code, files, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [arg.format(**files) for arg in argv]
    proc = subprocess.run([*CONSOLE, *argv], capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process(argv)
    assert proc.returncode == code
    if code == 1:
        conforms("error", payload_of(proc.stderr))


@pytest.mark.parametrize("launch", [CONSOLE, [sys.executable, "-m", "ramseybench.cli"]],
                         ids=["console", "module"])
@pytest.mark.parametrize("argv, code", [
    (["types", "count", "--n", "1"], 0),
    (["cond", "check", "--in", "/nonexistent/y.json"], 1),
    (["types", "count", "--n", "x"], 2),
], ids=["ok", "domain-error", "usage-error"])
def test_console_entry_skips_teardown_once_the_payload_is_out(launch, argv, code):
    # python -v reports each module it cleans up while the interpreter
    # finalizes; usage errors and --help still leave through SystemExit
    proc = subprocess.run([launch[0], "-v", *launch[1:], *argv], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == code
    assert ("\n# cleanup[" in proc.stderr) == (code == 2)
