#!/usr/bin/env python3
"""Render a BENCH_<n>.json before/after record from two `go test -bench`
output files (interleaved A/B runs of two prebuilt binaries). Usage:

    python3 scripts/benchjson.py before.txt after.txt description command > BENCH_n.json

Medians are taken per benchmark across all samples in each file; the
geomean is over the per-benchmark median speedups.

With --ab it renders the record of a repository-benchmark A/B instead
(`make bench-ab`): the two run files bench/cmd/compare -exec wrote, the
parent's and the change's, one JSON record per run:

    python3 scripts/benchjson.py --ab a.jsonl b.jsonl description command > BENCH_n.json

Per workload and metric it gives both sides' median and quartiles, the
ratio of the medians, and in how many of the interleaved pairs the change
read lower; GOMAXPROCS is under "host".
"""
import json
import math
import re
import statistics
import sys


def parse(path):
    out = {}
    cpu = None
    for line in open(path):
        if line.startswith("cpu:"):
            cpu = line.split(":", 1)[1].strip()
        m = re.match(
            r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+) ns/op\s+(\d+) B/op\s+(\d+) allocs/op",
            line,
        )
        if m:
            out.setdefault(m.group(1), []).append(
                (int(m.group(2)), int(m.group(3)), int(m.group(4)))
            )
    return out, cpu


def med(samples, i):
    return statistics.median(s[i] for s in samples)


def load_runs(path):
    """Run records by workload -> metric -> values, in run order."""
    runs, host, failed, attempted = {}, None, 0, 0
    for line in open(path):
        rec = json.loads(line)
        host = rec["host"]
        failed += rec["result"]["failed"]
        attempted += rec["result"]["attempted"]
        for name, m in rec["result"]["metrics"].items():
            runs.setdefault(rec["workload"], {}).setdefault(name, []).append(
                (m["value"], m.get("unit", ""))
            )
    return runs, host, failed, attempted


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main_ab():
    a_path, b_path, description, command = sys.argv[2:6]
    a, host, a_failed, a_attempted = load_runs(a_path)
    b, _, b_failed, b_attempted = load_runs(b_path)
    rows = []
    for workload in a:
        for metric, samples in a[workload].items():
            av = [v for v, _ in samples]
            bv = [v for v, _ in b[workload][metric]]
            sa, sb = spread(av), spread(bv)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "unit": samples[0][1],
                    "parent": sa,
                    "change": sb,
                    "change_over_parent": round(sb["median"] / sa["median"], 4) if sa["median"] else None,
                    "pairs_change_lower": sum(y < x for x, y in zip(av, bv)),
                    "pairs": min(len(av), len(bv)),
                }
            )
    doc = {
        "description": description,
        "command": command,
        "host": host,
        "failed": {
            "parent": "%d of %d" % (a_failed, a_attempted),
            "change": "%d of %d" % (b_failed, b_attempted),
        },
        "results": rows,
    }
    json.dump(doc, sys.stdout, indent=2)
    print()


def main():
    if sys.argv[1:2] == ["--ab"]:
        return main_ab()
    before_path, after_path, description, command = sys.argv[1:5]
    before, cpu = parse(before_path)
    after, _ = parse(after_path)
    results = []
    logs = []
    for name in sorted(before, key=lambda s: int(re.search(r"E(\d+)", s).group(1))):
        if name not in after:
            continue
        b, a = before[name], after[name]
        speedup = med(b, 0) / med(a, 0)
        logs.append(math.log(speedup))
        results.append(
            {
                "benchmark": name,
                "count": min(len(b), len(a)),
                "before": {
                    "ns_op_median": int(med(b, 0)),
                    "bytes_op_median": int(med(b, 1)),
                    "allocs_op_median": int(med(b, 2)),
                },
                "after": {
                    "ns_op_median": int(med(a, 0)),
                    "bytes_op_median": int(med(a, 1)),
                    "allocs_op_median": int(med(a, 2)),
                },
                "speedup": round(speedup, 2),
                "allocs_ratio": round(med(a, 2) / max(med(b, 2), 1), 3),
            }
        )
    doc = {
        "description": description,
        "cpu": cpu,
        "command": command,
        "geomean_speedup": round(math.exp(sum(logs) / len(logs)), 2),
        "results": results,
    }
    json.dump(doc, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
