"""Fold many ``bench/run.py`` results files into one BENCH summary.

    python3 bench/summarize.py bench/results/BENCH_*.json --out BENCH_label.json

Per workload and mode it gives each metric's median, quartiles and
spread (quartile distance over median), the same for the untraced times
before the speed-probe scaling, the median of each call kind
across runs, the ROADMAP baseline rows with their times, and whether
every work counter repeated exactly between runs of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import PER_LAYER


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "runs": len(values)}


def counters(result: dict) -> dict:
    """The exactly repeating part of a run: payload work and span counts."""
    if result["trace"]:
        return {k: v for k, v in result["metrics"].items() if PER_LAYER[k][0] == "count"}
    return result["work"]


def summarize(results: list[dict]) -> dict:
    groups: dict = {}
    for r in results:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    out = {"machine": results[0]["machine"], "workloads": {}}
    for (workload, tracing), runs in sorted(groups.items()):
        metrics = {name: spread([r["metrics"][name] for r in runs])
                   for name in runs[0]["metrics"]}
        by_seed: dict = {}
        for r in runs:
            by_seed.setdefault(r["seed"], []).append(counters(r))
        entry = {
            "seeds": sorted({r["seed"] for r in runs}),
            "metrics": metrics,
            "counters_repeat_per_seed": all(all(c == cs[0] for c in cs)
                                            for cs in by_seed.values()),
        }
        if not tracing:
            entry["unscaled_metrics"] = {name: spread([r["unscaled_metrics"][name] for r in runs])
                                         for name in runs[0]["unscaled_metrics"]}
            kinds: dict = {}
            for r in runs:
                for kind, seconds in r["kind_medians_s"].items():
                    kinds.setdefault(kind, []).append(seconds)
            entry["kind_medians_s"] = {k: statistics.median(v) for k, v in sorted(kinds.items())}
            entry["latency_tail"] = runs[0]["latency_tail"]["percentile"]
            entry["baseline_rows"] = [
                {**row, "median_s": entry["kind_medians_s"].get(row["kind"])}
                for row in runs[0]["baseline_rows"]]
            entry["escape_probes"] = runs[0]["escape_probes"]
            entry["excluded"] = runs[0]["excluded"]
        out["workloads"][f"{workload}/trace{tracing}"] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--out", default=None, help="write here instead of stdout")
    args = parser.parse_args(argv)
    results = []
    for path in args.files:
        with open(path) as fh:
            results.append(json.load(fh))
    text = json.dumps(summarize(results), indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
