"""Seeded set-algebra cases that every supported interpreter runs.

``verdict_mismatches`` compares ``verdict_set`` with the explicit route
``oracles.verdict_set_scan`` on seeded expressions and stand-in
sequences.  ``deep_chain_failures`` finds, for each of union,
intersection and complement, the deepest chain of that operator that
``sets`` reads, and runs ``sets column``, ``tail``, ``fr2`` and ``sum``
with an exception index on it; recursion is accounted differently from
one interpreter version to the next, so the depth is found, not fixed.

Stdlib only, so that other interpreters, where pytest may be absent, run
the same cases::

    python tests/set_cases.py SEED COUNT

prints ``{"version": ..., "verdicts": COUNT, "bad": [...], "chains":
{op: depth}, "failures": [...]}``.
"""

import io
import json
import os
import random
import sys
import tempfile

from fixtures import random_planar_set
from oracles import verdict_set_scan

from ramseybench import cli
from ramseybench.setalgebra import (
    Frechet,
    Principal,
    StandInSequence,
    _section_work,
    verdict_set,
)


def random_sequence(rng: random.Random, top: int) -> StandInSequence:
    """A default of principal points below ``top`` or the cofinite filter,
    and up to three exceptions at indices below 30."""
    def standin(bound):
        return Frechet() if rng.random() < 0.3 else Principal(rng.randrange(bound))
    exceptions = tuple((i, standin(30)) for i in rng.sample(range(30), rng.randrange(4)))
    return StandInSequence(standin(top), exceptions)


def verdict_mismatches(seed: int, count: int) -> list:
    """Every seeded case on which ``verdict_set`` and the explicit route
    differ.  Principal defaults stay below 100, or below 3,000 in half of
    the expressions without a diagonal leaf, whose sections cost the
    explicit route a few values each."""
    rng = random.Random(seed)
    bad = []
    for i in range(count):
        expr = random_planar_set(rng, rng.randrange(6))
        seq = random_sequence(rng, 100 if _section_work(expr)[1] else rng.choice((100, 3000)))
        got, want = verdict_set(expr, seq), verdict_set_scan(expr, seq)
        if got != want:
            bad.append([i, repr(expr)[:200], repr(seq), str(got), str(want)])
    return bad


LEAF = '{"aboveDiag": true}'
SIBLING = '{"points": []}'
# index stand-in and sequence documents of the sum: the exception at 2
# makes the sections at 0, 1 and 2 explicit
SUM_DOCS = {"u": {"frechet": True},
            "seq": {"default": {"principal": 1}, "exceptions": {"2": {"frechet": True}}}}


def chain_text(op: str, depth: int) -> str:
    """``depth`` nested ``op`` nodes over an ``aboveDiag`` leaf; each union
    or intersection node has an empty point set as its second argument."""
    if op == "complement":
        return '{"op": "complement", "args": [' * depth + LEAF + "]}" * depth
    return f'{{"op": "{op}", "args": [' * depth + LEAF + f", {SIBLING}]}}" * depth


def _call(argv: list) -> tuple:
    """(exit code, error message) of ``cli.run``; an exception that leaves
    it is reported as its type name in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        code = cli.run(argv, stdout=out, stderr=err).exit_code
    except Exception as exc:  # the error boundary let it out
        return type(exc).__name__, ""
    return code, json.loads(err.getvalue())["error"] if code else ""


def deep_chain_failures(tmp: str) -> tuple[dict, list]:
    """({op: deepest depth read}, [[op, depth, action, outcome], ...] for
    every call that does not exit 0 at that depth).  A depth is read when
    ``sets fr2`` is not refused with "nested too deeply"; it is found by
    doubling, then bisection."""
    for name, doc in SUM_DOCS.items():
        with open(os.path.join(tmp, f"{name}.json"), "w") as fh:
            json.dump(doc, fh)
    path = os.path.join(tmp, "chain.json")

    def read(op, depth):
        with open(path, "w") as fh:
            fh.write(chain_text(op, depth))
        code, error = _call(["sets", "fr2", "--in", path])
        return not (code == 1 and "nested too deeply" in error)

    depths, failures = {}, []
    for op in ("union", "intersection", "complement"):
        low, high = 1, 64
        while read(op, high):
            low, high = high, 2 * high
            if high > 1 << 16:
                raise AssertionError(f"{op} chains of {high} levels are still read")
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if read(op, mid) else (low, mid)
        depths[op] = low
        read(op, low)
        for argv in (["column", "--x", "3"], ["tail"], ["fr2"],
                     ["sum", "--u", os.path.join(tmp, "u.json"),
                      "--seq", os.path.join(tmp, "seq.json")]):
            code, error = _call(["sets", argv[0], "--in", path, *argv[1:]])
            if code != 0:
                failures.append([op, low, argv[0], code, error[:200]])
    return depths, failures


if __name__ == "__main__":
    seed, count = map(int, sys.argv[1:3])
    with tempfile.TemporaryDirectory() as tmp:
        depths, failures = deep_chain_failures(tmp)
    print(json.dumps({"version": sys.version.split()[0], "verdicts": count,
                      "bad": verdict_mismatches(seed, count), "chains": depths,
                      "failures": failures}))
