"""Summarize the run records in .perfbench_out/results/ as one JSON document.

    python3 perfbench/summarize.py [results-dir] > summary.json

For each workload and trace mode it gives every reported metric's value per
seed, and its median, quartiles and spread (interquartile distance over the
median), as the spread check of the benchmark computes them.
"""

import json
import statistics
import sys
from pathlib import Path


def _stats(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "n": len(values)}


def summarize(results_dir):
    groups = {}
    for path in sorted(Path(results_dir).glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["environment"]["workload"], "trace" if record["trace"] else "plain")
        groups.setdefault(key, []).append(record)
    out = {}
    for (workload, mode), records in sorted(groups.items()):
        records.sort(key=lambda r: r["environment"]["seed"])
        field = "metrics" if mode == "trace" else "reported"
        names = list(records[0][field])
        out.setdefault(workload, {})[mode] = {
            "environment": {k: v for k, v in records[0]["environment"].items() if k != "seed"},
            "seeds": [r["environment"]["seed"] for r in records],
            "correct": all(r["correct"] for r in records),
            "metrics": {
                name: dict(_stats([r[field][name]["value"] for r in records]),
                           unit=records[0][field][name]["unit"],
                           values=[r[field][name]["value"] for r in records])
                for name in names
            },
        }
    return out


if __name__ == "__main__":
    default = Path(__file__).resolve().parent.parent / ".perfbench_out" / "results"
    json.dump(summarize(sys.argv[1] if len(sys.argv) > 1 else default),
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
