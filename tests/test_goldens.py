"""Pinned stdout digests of `graph` calls.

``data/graph_goldens.json`` holds the sha256 of the stdout of each listed
call as the schedule walk produced it before the witness engine moved to
bitmasks.  Any change to a vertex count, an edge, a tie-break or the JSON
layout shows up here as a digest mismatch.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from ramseybench import cli

GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "data" / "graph_goldens.json").read_text()
)


@pytest.mark.parametrize("entry", GOLDENS, ids=lambda e: " ".join(e["argv"][1:]))
def test_graph_stdout_matches_golden(entry):
    out, err = io.StringIO(), io.StringIO()
    result = cli.run(entry["argv"], stdout=out, stderr=err)
    assert result.exit_code == 0, err.getvalue()
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == entry["stdout_sha256"]
