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

``data/sets_goldens.json`` pins the stdout of seeded ``sets sum``,
``sets image`` and ``sets column`` calls as the set algebra answered them
when every verdict section below a cutoff covering each principal point
was read explicitly.  An entry's ``in``, ``u`` and ``seq`` documents are
passed as the options of the same names; about a tenth of the sums and
images take a principal default in the thousands, and about half carry
exception indices.

``data/usage_goldens.json`` pins exit code, stdout and stderr of the
parser's own answers as the full parser tree gave them: ``--help`` at the
top, per area and per action, unknown areas and actions, and missing or
bad options.  Help text is laid out for 80 columns.  Every entry is an
answer of the full argparse tree, which ``cli.run`` builds for any argv
its table reader does not read; a subset is also replayed through the
console entry in a subprocess, where that split and the exit path meet
users.

The condition and graph goldens are also replayed on every other
interpreter the package supports that is on ``PATH``; the usage goldens
are not, as argparse lays help out differently across versions.
"""

import hashlib
import io
import json
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from helpers import CONSOLE, OTHER_PYTHONS, child_env, other_python

from ramseybench import cli

DATA = Path(__file__).resolve().parent / "data"
GOLDENS = json.loads((DATA / "graph_goldens.json").read_text())
CONDITION_GOLDENS = json.loads((DATA / "condition_goldens.json").read_text())
HOMOG_GOLDENS = json.loads((DATA / "homog_goldens.json").read_text())
SETS_GOLDENS = json.loads((DATA / "sets_goldens.json").read_text())
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


@pytest.mark.parametrize("entry", [pytest.param(e, id=" ".join(e["argv"]) + f" #{i}")
                                   for i, e in enumerate(SETS_GOLDENS)])
def test_sets_output_matches_golden(entry, tmp_path):
    argv = list(entry["argv"])
    for flag in ("in", "u", "seq"):
        if flag in entry:
            path = tmp_path / f"{flag}.json"
            path.write_text(json.dumps(entry[flag]))
            argv += [f"--{flag}", str(path)]
    out, _ = run(argv)
    assert sha256(out) == entry["stdout_sha256"]


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


CONSOLE_USAGE = (["--help"], ["homog", "--help"], ["homog", "search", "--help"], ["nope"],
                 ["homog", "nope"], ["types", "count"], ["cond", "check"],
                 ["--bogus", "types", "count", "--n", "1"])


@pytest.mark.parametrize("entry", [e for e in USAGE_GOLDENS if e["argv"] in CONSOLE_USAGE],
                         ids=lambda e: " ".join(e["argv"]))
def test_usage_output_matches_golden_through_the_console_entry(entry):
    env = {**child_env(), "COLUMNS": "80"}
    proc = subprocess.run([*CONSOLE, *entry["argv"]], capture_output=True, text=True, env=env)
    assert proc.returncode == entry["exit"]
    assert sha256(proc.stdout) == entry["stdout_sha256"]
    assert sha256(proc.stderr) == entry["stderr_sha256"]


# Replays the condition and graph goldens in one process; prints the
# interpreter's version and the argv of every call whose digest differs.
REPLAY = """
import hashlib, io, json, os, sys, tempfile
from ramseybench import cli

def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()

bad, count = [], 0
with tempfile.TemporaryDirectory() as tmp:
    for name in ("condition_goldens.json", "graph_goldens.json"):
        with open(os.path.join(sys.argv[1], name)) as fh:
            entries = json.load(fh)
        for entry in entries:
            argv = list(entry["argv"])
            if entry.get("cond") is not None:
                path = os.path.join(tmp, "cond.json")
                with open(path, "w") as fh:
                    json.dump(entry["cond"], fh)
                argv += ["--cond", path]
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(argv, stdout=out, stderr=err).exit_code
            count += 1
            got = [code, sha256(out.getvalue()), sha256(err.getvalue())]
            # graph goldens pin stdout alone
            if got != [0, entry["stdout_sha256"], entry.get("stderr_sha256", got[2])]:
                bad.append(entry["argv"])
print(json.dumps({"version": sys.version.split()[0], "calls": count, "bad": bad}))
"""


@pytest.mark.parametrize("python", OTHER_PYTHONS)
def test_goldens_hold_on_other_interpreters(python):
    exe = other_python(python)
    proc = subprocess.run([exe, "-c", REPLAY, str(DATA)], capture_output=True,
                          text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["version"].startswith(python.removeprefix("python"))
    assert report["calls"] == len(CONDITION_GOLDENS) + len(GOLDENS)
    assert report["bad"] == []
