"""Pinned stdout digests of `graph`, condition and homogeneity calls.

``data/graph_goldens.json`` holds the sha256 of the stdout of each listed
call as the schedule walk produced it before the witness engine moved to
bitmasks.  ``data/condition_goldens.json`` does the same for pattern
enumeration, condition growth, classification, realizer hunting and the
floor report as the per-subset signature scan produced them, with the
stderr digest too, so the floor's ``no realizer for ...`` diagnostics are
pinned; an entry's ``cond`` document, when present, is passed as
``--cond``.  Any change to a count, a point, a tie-break or the JSON
layout shows up here as a digest mismatch.

``data/homog_goldens.json`` pins stdout and stderr of ``homog search``
(exact and greedy) and ``homog check`` as the per-subset realizer filter
produced them.  Its ``colorings`` are stored once, as a JSON document
(passed as ``--in``) or as CSV text (``--csv``); each call names one by
index, and its ``cond``, when present, is passed as ``--cond``.  Greedy
calls whose colour majority ties pin the order of the realizer table.

``data/usage_goldens.json`` pins exit code, stdout and stderr of the
parser's own answers as the full parser tree gave them: ``--help`` at the
top, per area and per action, unknown areas and actions, and missing or
bad options.  Help text is laid out for 80 columns.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ramseybench import cli

DATA = Path(__file__).resolve().parent / "data"
GOLDENS = json.loads((DATA / "graph_goldens.json").read_text())
CONDITION_GOLDENS = json.loads((DATA / "condition_goldens.json").read_text())
HOMOG_GOLDENS = json.loads((DATA / "homog_goldens.json").read_text())
USAGE_GOLDENS = json.loads((DATA / "usage_goldens.json").read_text())


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    result = cli.run(argv, stdout=out, stderr=err)
    assert result.exit_code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


@pytest.mark.parametrize("entry", GOLDENS, ids=lambda e: " ".join(e["argv"][1:]))
def test_graph_stdout_matches_golden(entry):
    out, _ = run(entry["argv"])
    assert sha256(out) == entry["stdout_sha256"]


@pytest.mark.parametrize(
    "entry", CONDITION_GOLDENS,
    ids=lambda e: " ".join(e["argv"]) + (f" on {len(e['cond'])} points"
                                         if e["cond"] is not None else ""))
def test_condition_output_matches_golden(entry, tmp_path):
    argv = list(entry["argv"])
    if entry["cond"] is not None:
        path = tmp_path / "cond.json"
        path.write_text(json.dumps(entry["cond"]))
        argv += ["--cond", str(path)]
    out, err = run(argv)
    assert sha256(out) == entry["stdout_sha256"]
    assert sha256(err) == entry["stderr_sha256"]


def _homog_id(entry):
    kind = next(iter(HOMOG_GOLDENS["colorings"][entry["coloring"]]))
    where = f" on {len(entry['cond'])} points" if entry["cond"] is not None else ""
    return " ".join(entry["argv"]) + f" {kind}#{entry['coloring']}" + where


@pytest.mark.parametrize("entry", HOMOG_GOLDENS["calls"], ids=_homog_id)
def test_homog_output_matches_golden(entry, tmp_path):
    argv = list(entry["argv"])
    stored = HOMOG_GOLDENS["colorings"][entry["coloring"]]
    if "json" in stored:
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps(stored["json"]))
        argv += ["--in", str(path)]
    else:
        path = tmp_path / "coloring.csv"
        path.write_text(stored["csv"])
        argv += ["--csv", str(path)]
    if entry["cond"] is not None:
        path = tmp_path / "cond.json"
        path.write_text(json.dumps(entry["cond"]))
        argv += ["--cond", str(path)]
    out, err = run(argv)
    assert sha256(out) == entry["stdout_sha256"]
    assert sha256(err) == entry["stderr_sha256"]


@pytest.mark.parametrize("entry", USAGE_GOLDENS, ids=lambda e: " ".join(e["argv"]) or "(none)")
def test_usage_output_matches_golden(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(list(entry["argv"])).exit_code
        except SystemExit as exc:
            code = exc.code
    assert code == entry["exit"]
    assert sha256(out.getvalue()) == entry["stdout_sha256"]
    assert sha256(err.getvalue()) == entry["stderr_sha256"]
