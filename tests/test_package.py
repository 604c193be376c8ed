"""The package surface: public names, lazily loaded area modules and the
collector policy.

``import ramseybench`` registers the six area modules without running
their bodies; a CLI call then runs only the bodies its area needs, and
loads none of the stdlib modules in ``SLOW_STDLIB``: a plain action call
is read from the command table, and only help and usage errors load
argparse; JSON is read and written through ``_json``, CSV through
``_csv``.  Each case starts a fresh interpreter so no earlier import
hides a load, and the probe reads ``sys.modules`` before its own
imports.  ``cli.run`` leaves the collector as it finds it.
"""

import gc
import inspect
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import child_env

import ramseybench
from ramseybench import cli

REPO = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
PUBLIC_NAMES = json.loads((DATA / "public_names.json").read_text())
LAYERS = ("typecalc", "pointsets", "homogeneity", "randomgraph", "setalgebra", "omegatypes")
# Start-up cost no call needs: dataclasses, and the inspect, ast, dis and
# tokenize it imports, cost 8-11 ms; argparse with its gettext and locale
# about 2.4 ms of a call, and the json package about 1.0 ms.  csv is a
# wrapper around _csv, whose reader --csv calls use directly.
JSON_PACKAGE = ("json", "json.decoder", "json.encoder", "json.scanner")
SLOW_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize", "csv",
               "argparse", "gettext", "locale", *JSON_PACKAGE)

PROBE = """
import contextlib, io, sys, types
import ramseybench.cli as cli

def state():
    mods = {n: sys.modules.get("ramseybench." + n) for n in %r}
    return {n: None if m is None else type(m) is types.ModuleType for n, m in mods.items()}

before = state()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.run(sys.argv[1:]).exit_code
    except SystemExit as exc:
        code = exc.code
after, stdlib = state(), [n for n in %r if n in sys.modules]
import json
print(json.dumps({"before": before, "after": after, "exit": code, "stdlib": stdlib}))
""" % (LAYERS, SLOW_STDLIB)


def loads_after(argv):
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          capture_output=True, text=True, env=child_env(), check=True)
    return json.loads(proc.stdout)


def test_public_names_still_resolve():
    assert sorted(ramseybench.__all__) == PUBLIC_NAMES
    namespace = {}
    exec(f"from ramseybench import {', '.join(PUBLIC_NAMES)}", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(ramseybench, name)
        if hasattr(namespace[name], "__module__"):
            assert namespace[name].__module__.startswith("ramseybench.")
    assert set(PUBLIC_NAMES) <= set(dir(ramseybench))
    with pytest.raises(AttributeError, match="no_such_name"):
        ramseybench.no_such_name


@pytest.mark.parametrize("argv, doc, loaded", [
    (["sets", "column", "--x", "2"], {"aboveDiag": True}, {"setalgebra"}),
    (["types", "count", "--n", "3"], None, {"typecalc"}),
    (["homog", "search", "--type", "x1<y1<x2<y2"],
     {"n": 2, "entries": [{"subset": [[0, 1], [2, 3]], "color": 0}]},
     {"homogeneity", "pointsets", "typecalc"}),
    (["graph", "demo-coloring", "--palette", "3"], None,
     {"randomgraph", "homogeneity", "pointsets", "typecalc"}),
    (["omega", "validate"], {"classes": [{"x": [1, 2]}, {"y": 1}, {"y": 2}]},
     {"omegatypes", "setalgebra", "pointsets", "typecalc"}),
    (["cond", "check"], [[0, 1], [2, 3]], {"pointsets", "typecalc"}),
    (["homog", "check", "--type", "x1<y1<x2<y2"], "0,1,2,3,red\n",
     {"homogeneity", "pointsets", "typecalc"}),
    # the graph engine reaches the pattern areas only in its two demos
    (["graph", "build", "--steps", "30"], None, {"randomgraph"}),
    (["graph", "check", "--k", "1", "--m", "3"], {"vertices": 4, "edges": [[0, 1], [2, 3]]},
     {"randomgraph"}),
    (["graph", "rich", "--vertices", "0,1,2,3"], {"vertices": 4, "edges": [[0, 1], [2, 3]]},
     {"randomgraph"}),
])
def test_a_call_loads_only_its_area(argv, doc, loaded, tmp_path):
    # a str document is a coloring CSV, passed as --csv
    if isinstance(doc, str):
        path = tmp_path / "input.csv"
        path.write_text(doc)
        argv = [*argv, "--csv", str(path)]
    elif doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--in", str(path)]
    seen = loads_after(argv)
    assert seen["exit"] == 0
    assert seen["before"] == dict.fromkeys(LAYERS, False)
    assert {n for n, done in seen["after"].items() if done} == loaded
    assert seen["stdlib"] == []


@pytest.mark.parametrize("argv, doc", [
    (["cond", "check", "--in", "/nonexistent/y.json"], None),
    (["homog", "stabilize"], [[0, 1], [0, 2]]),
    (["types", "extend"], {"n": -1, "classes": []}),
], ids=["missing-file", "bad-bit", "bad-natural"])
def test_a_domain_error_loads_no_json(argv, doc, tmp_path):
    # the error payload is written, and the library's messages quote the
    # offending value, through the same codec
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--in", str(path)]
    seen = loads_after(argv)
    assert seen["exit"] == 1
    assert seen["stdlib"] == []


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["types", "count", "--n", "1", "-h"], 0), (["types", "count"], 2),
    (["types", "count", "--n=1"], 0),
], ids=["help", "action-help", "usage-error", "other-spelling"])
def test_help_and_usage_errors_load_argparse(argv, code):
    seen = loads_after(argv)
    assert seen["exit"] == code
    assert {"argparse", "gettext"} <= set(seen["stdlib"])


@pytest.mark.parametrize("argv, code", [
    (["types", "count", "--n", "1"], 0),
    (["cond", "check", "--in", "/nonexistent/y.json"], 1),
    (["types", "count", "--n", "one"], 2),
], ids=["ok", "domain-error", "usage-error"])
def test_run_leaves_the_collector_alone(argv, code, capsys):
    # capsys takes the usage message argparse writes to sys.stderr
    before = (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold())
    try:
        exit_code = cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()).exit_code
    except SystemExit as exc:
        exit_code = exc.code
    assert exit_code == code
    assert (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == before


def test_only_errors_raises_limit_errors():
    # every exhaustive routine refuses through errors.check_work, so the
    # bounds and their message live in one place
    src = REPO / "src" / "ramseybench"
    raising = {path.name for path in src.glob("*.py") if "LimitError(" in path.read_text()}
    assert raising == {"errors.py"}


def test_only_errors_states_the_sign_rule_for_naturals():
    # every natural value or argument is judged by errors._natural; the CSV
    # and stand-in key readers parse digit text and word their own refusals
    src = REPO / "src" / "ramseybench"
    phrases = ("must be >= ", "must be at least", "must have >= ", "must be a natural,")
    stating = {path.name for path in src.glob("*.py") if path.name != "errors.py"
               and any(phrase in path.read_text() for phrase in phrases)}
    assert stating == set()


def test_pattern_clauses_are_stated_once():
    # classes and relations are both judged by typecalc._class_problems
    from ramseybench.typecalc import _class_problems
    src = REPO / "src" / "ramseybench"
    texts = [path.read_text() for path in src.glob("*.py")]
    body = inspect.getsource(_class_problems)
    for clause in ("equivalent symbols must both be x's", "y symbols must increase strictly",
                   "must sit strictly before"):
        assert sum(text.count(clause) for text in texts) == 1, clause
        assert clause in body, clause


def test_only_pointsets_knows_the_key_format():
    # the pair-code keys, their scans and the block count are read and
    # written in pointsets alone; other modules ask it for patterns
    src = REPO / "src" / "ramseybench"
    private = re.compile(r"\b(_type_key|_key_type|_lift|_keyed_subsets"
                         r"|_block_key_counts|_block_plan)\b")
    assert {path.name for path in src.glob("*.py") if private.search(path.read_text())} \
        == {"pointsets.py"}


def test_no_code_is_generated_at_run_time():
    # every CLI call imports these modules afresh, and .pyc files cache
    # only source: code built with exec, eval or compile is compiled again
    # on every start, as dataclasses and namedtuple do for each class
    src = REPO / "src" / "ramseybench"
    generated = re.compile(r"(?<![\w.])(exec|eval|compile)\(|\bnamedtuple\b"
                           r"|^\s*(from|import) dataclasses\b", re.MULTILINE)
    assert {path.name for path in src.glob("*.py") if generated.search(path.read_text())} == set()
