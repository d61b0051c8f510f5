#!/usr/bin/env python3
"""Render the BENCH_<n>.json record of a repository-benchmark A/B
(`make bench-ab`) from the two run files bench/cmd/compare -exec wrote,
the parent's and the change's, one JSON record per run:

    python3 scripts/benchjson.py a.jsonl b.jsonl description command > BENCH_n.json

Per workload and metric it gives both sides' median and quartiles, the
ratio of the medians, and in how many of the interleaved pairs the change
read lower; GOMAXPROCS is under "host".
"""
import json
import statistics
import sys


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


def main():
    a_path, b_path, description, command = sys.argv[1:5]
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


if __name__ == "__main__":
    main()
