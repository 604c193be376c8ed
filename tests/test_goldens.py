"""Pinned stdout digests of `graph` and condition calls.

``data/graph_goldens.json`` holds the sha256 of the stdout of each listed
call as the schedule walk produced it before the witness engine moved to
bitmasks.  ``data/condition_goldens.json`` does the same for pattern
enumeration, condition growth, classification, realizer hunting and the
floor report as the per-subset signature scan produced them, with the
stderr digest too, so the floor's ``no realizer for ...`` diagnostics are
pinned; an entry's ``cond`` document, when present, is passed as
``--cond``.  Any change to a count, a point, a tie-break or the JSON
layout shows up here as a digest mismatch.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from ramseybench import cli

DATA = Path(__file__).resolve().parent / "data"
GOLDENS = json.loads((DATA / "graph_goldens.json").read_text())
CONDITION_GOLDENS = json.loads((DATA / "condition_goldens.json").read_text())


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
