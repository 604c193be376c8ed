"""ramseybench benchmark driver.

    python3 bench/run.py --workload conditions --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program under test is the
``ramseybench`` package in ``src/`` of that checkout.  One client runs
the workload's seeded call table as ``ramseybench`` subprocesses, one
call at a time (a closed loop), repeating whole passes while another
pass still fits in ``--seconds``.  Every output is checked by the
benchmark's own model.  Times are scaled to a reference host speed by a
probe program run between the calls (``SpeedProbe``).  ``--trace 1``
instead replays one pass in this process through ``ramseybench.cli.run``
with every library function wrapped in a span, and reports per-layer
numbers.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A results file with per-call records, the
per-kind medians, work counters and the machine goes to
``bench/results/``.  ``--workload all`` runs every workload in turn, each
in its own process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, suppress
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SCHEMA = os.path.join(ROOT, "schemas", "cli_payloads.json")
RESULTS = os.path.join(BENCH, "results")
WORK = os.path.join(BENCH, "work")
sys.path.insert(0, BENCH)

import model  # noqa: E402
import tracing  # noqa: E402
from schema import PayloadSchemas  # noqa: E402
from workloads import WORKLOADS, Inputs, escape_probes, interleave  # noqa: E402

# What the ``ramseybench`` console script runs.
LAUNCH = "import sys; from ramseybench.cli import main; main()"
NO_WORK = ["types", "count", "--n", "1"]
CALL_TIMEOUT_S = 60
SETUPS = 12   # back-to-back set-ups at the start of an untraced run
# The speed probe: a fixed stdlib-only program that shares nothing with the
# code under test.  Like a CLI call it starts the interpreter, imports
# argparse and json and computes; see ``SpeedProbe``.
PROBE_EXPR = "sum((a * b + c) % 7 for a, b, c in itertools.combinations(range(50), 3))"
PROBE = f"import argparse, itertools, json; print(json.dumps({PROBE_EXPR}))"
# Typical probe time on the 2-vCPU Xeon host the benchmark was defined on;
# untraced times are reported as seconds on a host where the probe takes this.
REFERENCE_PROBE_S = 0.060
PROBE_WINDOW = 3   # a timed piece of work is scaled by the 2 * 3 probes around it
STARTUP_SAMPLES = 15
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "cli.startup_ms": ("ms", "latency_p50_ms on cli-mix"),
    "cli.self_s": ("s", "latency_p50_ms on cli-mix"),
    "cli.boundary_escapes": ("count", "none; counts the cli-mix escape probes"),
    "typecalc.self_s": ("s", "calls_per_s, latency_tail_ms on conditions"),
    "typecalc.calls": ("count", "calls_per_s, latency_tail_ms on conditions"),
    "typecalc.types_enumerated": ("count", "calls_per_s, latency_tail_ms on conditions"),
    "pointsets.self_s": ("s", "calls_per_s, latency_tail_ms on conditions"),
    "pointsets.calls": ("count", "calls_per_s, latency_tail_ms on conditions"),
    "pointsets.find_realizer_calls": ("count", "calls_per_s, latency_tail_ms on conditions"),
    "pointsets.subsets_classified": ("count", "calls_per_s, latency_tail_ms on conditions"),
    "pointsets.points_added": ("count", "calls_per_s, latency_tail_ms on conditions"),
    "homogeneity.self_s": ("s", "latency_p50_ms, calls_per_s on search"),
    "homogeneity.calls": ("count", "latency_p50_ms, calls_per_s on search"),
    "homogeneity.subsets_checked": ("count", "latency_p50_ms, calls_per_s on search"),
    "homogeneity.realizers_seen": ("count", "latency_p50_ms, calls_per_s on search"),
    "randomgraph.self_s": ("s", "calls_per_s, latency_tail_ms on graphs"),
    "randomgraph.calls": ("count", "calls_per_s, latency_tail_ms on graphs"),
    "randomgraph.configs_generated": ("count", "calls_per_s, latency_tail_ms on graphs"),
    "randomgraph.configs_processed": ("count", "calls_per_s, latency_tail_ms on graphs"),
    "randomgraph.config_use_share": ("share", "calls_per_s, latency_tail_ms on graphs"),
    "randomgraph.vertices_built": ("count", "calls_per_s, latency_tail_ms on graphs"),
    "setalgebra.self_s": ("s", "latency_p50_ms on cli-mix"),
    "setalgebra.calls": ("count", "latency_p50_ms on cli-mix"),
    "omegatypes.self_s": ("s", "latency_p50_ms on cli-mix"),
    "omegatypes.calls": ("count", "latency_p50_ms on cli-mix"),
    "trace.overhead_share": ("share", "none; tracing cost of the traced pass"),
    "trace.accounted_share": ("share", "none; share of traced wall time inside spans"),
}

# ROADMAP's single-run "Baseline" rows and the call kind that now times each.
BASELINE_ROWS = [
    ("extend_with_realizers(empty, 3) -> 57 pts", "cond.grow.n3.empty", "conditions"),
    ("classify_subsets(grown, 3)", "cond.classify.n3.grown", "conditions"),
    ("weak_ramsey_floor_demo(grown, 3)", "homog.floor.n3.grown", "conditions"),
    ("enumerate_ntypes(6)", "types.enum.n6", "conditions"),
    ("build_graph_covering(6, 2)", "graph.build.cover6x2", "graphs"),
    ("build_graph_covering(7, 2)", "graph.build.cover7x2", "graphs"),
    ("noreverse_demo(50)", "graph.demo-noreverse.count50", "graphs"),
    ("search_homogeneous exact, m = 16", "homog.search.exact.m16.n2.json", "search"),
    ("CLI import", "types.count.n1", "conditions"),
]
EXCLUDED = [
    ("ramseybench cond grow --n 4", "no bound and no progress; runs past 60 s, not timed"),
    ("graph build --cover-vertices 8", "(8, 2) coverings are out of reach until the schedule "
     "generator stops enumerating every parameter count"),
    ("homog search --mode exact above 18 points", "refused by the search limit; "
     "the refusal itself is timed as homog.search.refused.*"),
    ("Tier-1 suite", "a test run, not a CLI call"),
]


class CheckFailure(Exception):
    pass


# ---------------------------------------------------------------- running calls

class Outcome:
    __slots__ = ("code", "out", "err", "seconds", "digest", "problems")

    def __init__(self, code, out: bytes, err: bytes, seconds: float):
        self.code, self.out, self.err, self.seconds = code, out, err, seconds
        self.digest = hashlib.sha256(out).hexdigest()
        self.problems: list[str] = []


def cli_env(extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k in ("PATH", "HOME", "LANG", "LC_ALL")}
    env["PYTHONPATH"] = SRC
    env.update(extra)
    return env


def run_subprocess(argv, extra_env) -> Outcome:
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", LAUNCH, *argv], cwd=ROOT,
                              env=cli_env(extra_env), capture_output=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        outcome = Outcome(None, exc.stdout or b"", exc.stderr or b"", perf_counter() - start)
        outcome.problems.append(f"timed out after {CALL_TIMEOUT_S} s")
        return outcome
    return Outcome(proc.returncode, proc.stdout, proc.stderr, perf_counter() - start)


class SpeedProbe:
    """Scales measured times to the reference host speed.

    This host's speed drifts by a quarter and more within a minute, for
    every process alike, so raw times of one program differ that much
    between runs.  The probe program runs once at the start and after each
    timed piece of work.  A piece's time is multiplied by
    ``REFERENCE_PROBE_S`` over the median of the ``2 * PROBE_WINDOW`` probe
    times around it, the two right before and after it in the middle; the
    median keeps one slow probe from moving the piece.  A wider window, or
    one as wide in time as a long piece, tracked the host's speed worse:
    the speed during a piece is nearest that of the probes next to it.
    Since the probe shares no code with the program, a change to the
    program moves the scaled times as it moves the raw ones."""

    def __init__(self):
        self.expected = json.dumps(eval(PROBE_EXPR, {"itertools": itertools}))
        self.env = {k: v for k, v in cli_env({}).items() if k != "PYTHONPATH"}
        self.samples: list[float] = []
        self.started: list[float] = []
        self.run()

    def run(self):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=self.env,
                              capture_output=True, timeout=CALL_TIMEOUT_S)
        seconds = perf_counter() - start
        if proc.returncode or proc.stdout.decode().strip() != self.expected:
            raise CheckFailure(f"the speed probe exited {proc.returncode} "
                               f"with {proc.stdout[:80]!r}")
        self.samples.append(seconds)
        self.started.append(start)

    def after(self) -> int:
        """Probes after a piece of work; returns the index of the probe
        right before it, the piece's mark for ``scale``."""
        self.run()
        return len(self.samples) - 2

    def scale(self, seconds: float, mark: int) -> float:
        window = self.samples[max(0, mark + 1 - PROBE_WINDOW):mark + 1 + PROBE_WINDOW]
        return seconds * REFERENCE_PROBE_S / statistics.median(window)


def pin_to_one_cpu() -> int:
    """Keeps this process and every process it starts on one CPU.  The
    vCPUs of this host change speed separately, so unpinned the probe and
    a call could meet different speeds; pinned, the probe times the CPU
    the calls and set-ups ran on.  One call runs at a time, so nothing of
    the benchmark waits for the CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@contextmanager
def environment(extra: dict):
    saved = {k: os.environ.get(k) for k in extra}
    os.environ.update(extra)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def run_in_process(cli, argv, extra_env, tracer=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with environment(extra_env):
        start = perf_counter()
        if tracer is not None:
            frame = tracer.enter("cli", "run")
        raised = None
        try:
            code = cli.run(list(argv), stdout=out, stderr=err).exit_code
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escape from the error boundary: report it, go on
            code, raised = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.exit(frame)
        seconds = perf_counter() - start
    outcome = Outcome(code, out.getvalue().encode(), err.getvalue().encode(), seconds)
    if raised:
        outcome.problems.append(raised)
    return outcome


# ---------------------------------------------------------------- checking

def render_table(payload) -> str:
    rows = model.flatten(payload)
    width = max(len(p) for p, _ in rows)
    return "\n".join(f"{p.ljust(width)}  {json.dumps(v)}" for p, v in rows) + "\n"


class Judge:
    """Checks outcomes; a verdict is cached per (argv, stdout digest)."""

    def __init__(self):
        self.schemas = PayloadSchemas(SCHEMA)
        self.verdicts: dict = {}
        self.json_out: dict = {}

    def __call__(self, call, outcome: Outcome) -> list[str]:
        key = (tuple(call.argv), outcome.digest, outcome.code)
        if key not in self.verdicts:
            try:
                problems = self._judge(call, outcome)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.verdicts[key] = problems
        if call.exit_code == 0 and not call.table:
            self.json_out[tuple(call.argv)] = outcome.out
        return outcome.problems + self.verdicts[key]

    def _judge(self, call, outcome: Outcome) -> list[str]:
        err = outcome.err.decode(errors="replace")
        problems = []
        if "Traceback (most recent call last)" in err:
            problems.append("traceback on stderr")
        if outcome.code != call.exit_code:
            problems.append(f"exit code {outcome.code}, expected {call.exit_code}")
            return problems
        if call.exit_code != 0:
            problems += [] if not outcome.out else ["stdout on an error"]
            payload = json.loads(err[err.index("{"):]) if "{" in err else None
            problems += self.schemas.errors("error", payload)
            if call.error_kind and payload and payload.get("kind") != call.error_kind:
                problems.append(f"error kind {payload.get('kind')}, expected {call.error_kind}")
            return problems
        text = outcome.out.decode()
        if call.table:
            twin = self.json_out[tuple(call.argv[:-2])]
            want = render_table(json.loads(twin))
            return problems + ([] if text == want else ["table differs from its JSON twin"])
        payload = json.loads(text)
        schema_problems = self.schemas.errors(call.action, payload)
        if schema_problems:
            return problems + schema_problems
        return problems + call.check(payload)


# ---------------------------------------------------------------- set-up

class ScanCache:
    def __init__(self):
        self.scans: dict = {}

    def __call__(self, points, n):
        key = (tuple(map(tuple, points)), n)
        if key not in self.scans:
            self.scans[key] = model.ConditionScan(points, n)
        return self.scans[key]


def set_up(workload: str, seed: int, directory: str):
    """Generate the seeded inputs and make one warm-up call."""
    os.makedirs(directory)
    inputs = Inputs(directory)
    calls = interleave(WORKLOADS[workload](inputs, random.Random(f"{workload}:{seed}"),
                                           ScanCache()),
                       random.Random(f"order:{workload}:{seed}"))
    probes = escape_probes(inputs) if workload == "cli-mix" else []
    warm = run_subprocess(NO_WORK, {})
    if warm.code != 0:
        sys.stderr.write(warm.err.decode(errors="replace"))
        raise CheckFailure(f"warm-up call exited {warm.code}")
    return calls, probes


def table_digest(calls, directory: str) -> str:
    """sha256 over the call table and the input files, with the set-up
    directory taken out of the paths."""
    h = hashlib.sha256()
    for call in calls:
        h.update(json.dumps([call.kind, [a.replace(directory, "") for a in call.argv]]).encode())
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(name.encode() + fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------- statistics

def percentile(values, p: float) -> float:
    """Linear-interpolated p-th percentile (0..100) of values."""
    ordered = sorted(values)
    pos = p / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(per_pass: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of one pass's
    calls beyond it; fixed per table, so every run reports the same one."""
    return max(0, math.floor(100 * (1 - TAIL_BEYOND / per_pass)))


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"python": platform.python_version(), "cpu_model": cpu,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def payload_work(call, outcome: Outcome) -> dict:
    """Work counts a payload states about itself (classify subsets, search
    subsets checked, graph sizes, ...); they repeat exactly per seed."""
    if outcome.code != 0 or call.table:
        return {}
    payload = json.loads(outcome.out)
    keys = ("subsets", "added", "count", "vertices", "edge_count", "columns_checked", "size")
    work = {k: payload[k] for k in keys if isinstance(payload.get(k), int)
            and not isinstance(payload.get(k), bool)}
    work.update({f"stats.{k}": v for k, v in payload.get("stats", {}).items()
                 if isinstance(v, int)})
    return work


# ---------------------------------------------------------------- modes

def run_pass(calls, judge: Judge, runner) -> list[dict]:
    records = []
    for i, call in enumerate(calls):
        outcome = runner(call)
        problems = judge(call, outcome)
        records.append({"id": f"{i:03d}:{call.kind}", "kind": call.kind,
                        "seconds": outcome.seconds, "exit": outcome.code,
                        "sha256": outcome.digest, "problems": problems,
                        "work": payload_work(call, outcome) if not problems else {}})
    return records


def run_probes(probes, schemas: PayloadSchemas) -> list[dict]:
    """The known boundary escapes: each must exit 1 with the error payload."""
    out = []
    for call in probes:
        outcome = run_subprocess(call.argv, {})
        err = outcome.err.decode(errors="replace")
        if "Traceback (most recent call last)" in err:
            verdict = "traceback: " + err.strip().splitlines()[-1][:200]
        elif outcome.code != 1:
            verdict = f"exit {outcome.code} instead of the error payload"
        else:
            try:
                doc = json.loads(err)
                verdict = "error payload" if not schemas.errors("error", doc) else "bad payload"
            except ValueError:
                verdict = "stderr is not the error payload"
        out.append({"call": call.kind, "argv": call.argv[:-1], "exit": outcome.code,
                    "outcome": verdict, "escaped": verdict != "error payload"})
    return out


def untraced(calls, judge, seconds: float, speed: SpeedProbe) -> tuple[list[list[dict]], float]:
    """Whole passes of the table; each record's ``seconds`` is scaled by
    ``speed`` and its ``raw_seconds`` is as measured."""
    passes, marks = [], []
    start = perf_counter()

    def runner(call):
        outcome = run_subprocess(call.argv, call.env)
        marks.append(speed.after())
        return outcome

    while True:
        began = perf_counter()
        passes.append(run_pass(calls, judge, runner))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            break
    for record, mark in zip((r for records in passes for r in records), marks):
        record["raw_seconds"] = record["seconds"]
        record["seconds"] = speed.scale(record["raw_seconds"], mark)
    return passes, now - start


def traced(calls, judge, result: dict) -> tuple[dict, int, int]:
    """A subprocess pass for the reference digests and checks, the no-work
    calls for start-up time, then the table in process, each call once
    untraced and once traced."""
    reference = run_pass(calls, judge, lambda c: run_subprocess(c.argv, c.env))
    startup = [run_subprocess(NO_WORK, {}).seconds for _ in range(STARTUP_SAMPLES)]
    sys.path.insert(0, SRC)
    from ramseybench import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise CheckFailure(f"imported ramseybench from {cli.__file__}, not {SRC}")

    # Each call runs untraced and traced back to back, in alternating order,
    # so both passes meet the same machine state and warm caches equally.
    tracer = tracing.Tracer()
    plain, spans = [], []
    for i, call in enumerate(calls):
        tracer.call_id = f"{i:03d}:{call.kind}"
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                plain.append((call, run_in_process(cli, call.argv, call.env)))
                continue
            tracer.install()
            try:
                spans.append((call, run_in_process(cli, call.argv, call.env, tracer)))
            finally:
                tracer.uninstall()
    plain_wall = sum(o.seconds for _, o in plain)
    traced_wall = sum(o.seconds for _, o in spans)

    mismatched = []
    for ref, (call, a), (_, b) in zip(reference, plain, spans):
        problems = judge(call, a) + judge(call, b)
        if not (ref["sha256"] == a.digest == b.digest and ref["exit"] == a.code == b.code):
            problems.append("in-process stdout differs from the subprocess call")
        if problems:
            mismatched.append({"id": ref["id"], "problems": problems})
    os.makedirs(RESULTS, exist_ok=True)
    span_file = os.path.join(RESULTS, f"spans_{result['workload']}_seed{result['seed']}.jsonl.gz")
    tracer.write(span_file)

    totals = tracer.layer_totals()
    c = tracer.counters
    metrics = {
        "cli.startup_ms": statistics.median(startup) * 1000,
        "cli.self_s": totals.get("cli", {}).get("self_s", 0.0),
        "typecalc.types_enumerated": c["typecalc.types_enumerated"],
        "pointsets.find_realizer_calls": sum(1 for s in tracer.spans if s[4] == "find_realizer"),
        "pointsets.subsets_classified": c["pointsets.subsets_classified"],
        "pointsets.points_added": c["pointsets.points_added"],
        "homogeneity.subsets_checked": c["homogeneity.subsets_checked"],
        "homogeneity.realizers_seen": c["homogeneity.realizers_seen"],
        "randomgraph.configs_generated": sum(c[f"randomgraph.{s}.items"] for s in tracing.SCHEDULES),
        "randomgraph.configs_processed": c["randomgraph.configs_processed"],
        "randomgraph.vertices_built": c["randomgraph.vertices_built"],
        "trace.overhead_share": (traced_wall - plain_wall) / plain_wall,
        "trace.accounted_share": sum(t["self_s"] for t in totals.values()) / traced_wall,
    }
    generated = metrics["randomgraph.configs_generated"]
    metrics["randomgraph.config_use_share"] = (
        metrics["randomgraph.configs_processed"] / generated if generated else 0.0)
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = totals.get(layer, {}).get("self_s", 0.0)
        metrics[f"{layer}.calls"] = totals.get(layer, {}).get("calls", 0)
    result.update({
        "reference_pass": reference,
        "in_process_mismatches": mismatched,
        "walls_s": {"untraced_in_process": plain_wall, "traced_in_process": traced_wall},
        "layer_totals": totals,
        "span_file": os.path.relpath(span_file, ROOT),
        "span_count": len(tracer.spans),
    })
    failed = sum(1 for r in reference if r["problems"]) + len(mismatched)
    return metrics, len(reference), failed


def kind_medians(passes) -> dict:
    by_kind: dict = {}
    for records in passes:
        for r in records:
            by_kind.setdefault(r["kind"], []).append(r["seconds"])
    return {k: statistics.median(v) for k, v in by_kind.items()}


def time_metrics(setup_times, times, tail: int) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "calls_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1000,
        "latency_tail_ms": percentile(times, tail) * 1000,
    }


def measure(workload: str, seed: int, seconds: float, tracing: bool) -> dict:
    judge = Judge()
    tag = f"{workload}-seed{seed}-pid{os.getpid()}"
    raw_setup_times, setup_marks, tables = [], [], []
    speed = None

    def timed_set_up():
        """One timed set-up, marked for scaling in untraced runs; every one
        after the first must give the same table and input files, and its
        directory is removed."""
        directory = os.path.join(WORK, tag, str(len(raw_setup_times)))
        # Start from a collected heap, so no set-up pays for the garbage
        # of the one before.
        gc.collect()
        start = perf_counter()
        made = set_up(workload, seed, directory)
        raw_setup_times.append(perf_counter() - start)
        if speed:
            setup_marks.append(speed.after())
        tables.append(table_digest(made[0], directory))
        if len(tables) > 1:
            shutil.rmtree(directory)
            if tables[-1] != tables[0]:
                raise CheckFailure("the same seed gave other inputs on a later set-up")
        return made

    host = machine()
    host["pinned_cpu"] = pin_to_one_cpu()
    try:
        if not tracing:
            speed = SpeedProbe()
        calls, probes = timed_set_up()
        if not tracing:
            for _ in range(SETUPS - 1):
                timed_set_up()
        result = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(tracing), "machine": host,
                  "calls_per_pass": len(calls), "raw_setup_s_samples": raw_setup_times}
        if tracing:
            metrics, attempted, failed = traced(calls, judge, result)
        else:
            passes, wall = untraced(calls, judge, seconds, speed)
            setup_times = [speed.scale(t, m) for t, m in zip(raw_setup_times, setup_marks)]
            times = [r["seconds"] for records in passes for r in records]
            raw_times = [r["raw_seconds"] for records in passes for r in records]
            tail = tail_percentile(len(calls))
            attempted = len(times)
            failed = sum(1 for records in passes for r in records if r["problems"])
            metrics = {
                **time_metrics(setup_times, times, tail),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            }
            result.update({
                "setup_s_samples": setup_times,
                "reference_probe_s": REFERENCE_PROBE_S,
                "probe_s_samples": speed.samples,
                "probe_started_s": [t - speed.started[0] for t in speed.started],
                "unscaled_metrics": time_metrics(raw_setup_times, raw_times, tail),
                "passes": len(passes), "wall_s": wall,
                "latency_tail": {"percentile": tail, "samples": len(times),
                                 "beyond": sum(1 for t in times
                                                if t * 1000 > metrics["latency_tail_ms"])},
                "failed_share": failed / attempted,
                "kind_medians_s": kind_medians(passes),
                "work": {r["id"]: r["work"] for r in passes[0] if r["work"]},
                "calls": passes,
            })
        probe_results = run_probes(probes, judge.schemas)
        escapes = sum(p["escaped"] for p in probe_results)
        if tracing:
            metrics["cli.boundary_escapes"] = escapes
            metrics = {name: metrics[name] for name in PER_LAYER}
        result.update({
            "escape_probes": probe_results,
            "failed_share_with_escapes": (failed + escapes) / (attempted + len(probes)),
            "baseline_rows": [{"row": r, "kind": k, "workload": w} for r, k, w in BASELINE_ROWS
                              if w == workload],
            "excluded": [{"row": r, "reason": why} for r, why in EXCLUDED],
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        })
        return result
    finally:
        shutil.rmtree(os.path.join(WORK, tag), ignore_errors=True)
        with suppress(OSError):
            os.rmdir(WORK)


def write_result(result: dict) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS, f"BENCH_{result['workload']}_seed{result['seed']}"
                                 f"_trace{result['trace']}_{stamp}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return path


def units() -> dict:
    return {**END_TO_END, **{k: u for k, (u, _) in PER_LAYER.items()}}


def summary_line(result: dict) -> str:
    unit = units()
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join(SRC, "ramseybench", "cli.py"), SCHEMA):
        if not os.path.isfile(needed):
            print(f"benchmark: {os.path.relpath(needed, ROOT)} is missing; run from a "
                  "full source checkout", file=sys.stderr)
            return 2
    if args.workload == "all":
        # One process per workload: peak_rss_mb reads this process's children.
        for name in WORKLOADS:
            code = subprocess.run([sys.executable, os.path.abspath(__file__),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
            if code:
                return code
        return 0
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailure as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    path = write_result(result)
    unit = units()
    for metric, value in result["metrics"].items():
        print(f"{args.workload:<11} {metric:<32} {value:>14.6g} {unit[metric]}")
    for probe in result["escape_probes"]:
        print(f"{args.workload:<11} probe {probe['call']}: {probe['outcome']}")
    print(f"{args.workload:<11} results: {os.path.relpath(path, ROOT)}")
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
