"""Run one benchmark workload and print its metrics (see README.md).

    python3 perfbench/run.py --workload run-box --seed 1 --seconds 25 --trace 0

Set-up runs several times, each in a fresh interpreter; then whole passes of
the workload repeat until --seconds have gone by. With --trace 1, untraced
and traced passes alternate, and the traced ones give the per-layer metrics
and the tracing overhead.

Every metric is printed on its own line with its unit. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. The run's full record, with its environment, goes to
.perfbench_out/results/.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "budgex" / "__init__.py").is_file():
        sys.exit(f"error: no budgex sources at {SRC}")
    sys.path[:0] = [str(ROOT), str(SRC)]

from perfbench.tracer import SPANS, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench_out"

# The metrics BENCHMARK.json gates on; every workload reports each of them.
END_TO_END = {"wall_s": "s", "setup_s": "s", "units_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units():
    """Per-layer metric -> unit, the same set for every workload.

    Times in seconds are listed only for spans every workload calls: a time
    that is 0 on every run would read as unmeasured. The other spans give
    their self time as a share of the traced pass. The run's record file
    has every stat of every span.
    """
    units = {}
    for span in SPANS:
        units[f"{span.name}.calls"] = "count"
        if span.rows is not None:
            units[f"{span.name}.rows"] = "count"
        units[f"{span.name}.share"] = "ratio"
        if span.everywhere:
            units[f"{span.name}.self_s"] = "s"
            units[f"{span.name}.p50_s"] = "s"
    units["acquisition.select_ratio"] = "ratio"
    units["protocol._dump_scores.bytes"] = "bytes"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


@dataclass
class Pass:
    traced: bool
    walls: dict = field(default_factory=dict)
    tracer: Tracer = None
    problems: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    raised: bool = False


def _run_pass(workload, seed, inputs, out, traced):
    result = Pass(traced=traced)

    @contextmanager
    def timed(metric, trace=True):
        tracer = Tracer().install() if traced and trace else None
        start = perf_counter()
        try:
            yield
        finally:
            result.walls[metric] = perf_counter() - start
            if tracer is not None:
                tracer.restore()
                result.tracer = tracer

    out.mkdir(parents=True)
    gc.collect()
    try:
        result.problems, result.quality, result.counters = workload.run_pass(
            seed, inputs, out, timed)
    except Exception:  # counted as failed operations; the run reports and stops
        traceback.print_exc()
        result.raised = True
        result.problems = {op: ["raised an exception"] for op in workload.ops}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return result


def _setup(name, seed, size, inputs):
    """Prepare the inputs in a fresh interpreter; returns its wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.workloads", name, str(seed), size, str(inputs)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return elapsed


def _check_repeats(workload, p, first, first_traced):
    """Quality numbers, and traced calls and rows, must repeat exactly."""
    if p.quality != first.quality:
        p.problems.setdefault(workload.ops[-1], []).append(
            f"quality {p.quality} differs from the first pass's {first.quality}")
    if p.tracer and first_traced.tracer and _counts(p.tracer) != _counts(first_traced.tracer):
        p.problems.setdefault(workload.ops[-1], []).append(
            "traced calls or rows differ from the first traced pass")


def _counts(tracer):
    return {name: (s.calls, s.rows, s.out) for name, s in tracer.stats.items()}


def _measure(workload, seed, seconds, trace, size, work):
    """Set up, then run passes until `seconds` have gone by (at least one
    pass, and with tracing at least one of each kind)."""
    inputs = work / "inputs"
    setup_times = [_setup(workload.name, seed, size, inputs)
                   for _ in range(workload.setup_reps)]
    passes = []
    start = perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        p = _run_pass(workload, seed, inputs, work / f"pass_{len(passes)}", traced)
        _check_repeats(workload, p, passes[0] if passes else p,
                       next((q for q in passes if q.tracer), p))
        passes.append(p)
        both_kinds = {q.traced for q in passes} == {False, True}
        if p.raised or (perf_counter() - start >= seconds and (not trace or both_kinds)):
            return setup_times, passes


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(workload, seed):
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "budgex_threads": os.environ.get("BUDGEX_THREADS"),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _per_layer(traced, untraced_wall, counters):
    """Per-layer values from the fastest traced pass; p50_s over all of them."""
    fastest = min(traced, key=lambda p: p.walls["wall_s"])
    wall = fastest.walls["wall_s"]
    table = {}
    for span in SPANS:
        stats = fastest.tracer.stats[span.name]
        durations = [d for p in traced for d in p.tracer.stats[span.name].durations]
        table[span.name] = {
            "calls": stats.calls, "rows": stats.rows, "out": stats.out,
            "self_s": stats.self_s, "share": stats.self_s / wall,
            "p50_s": statistics.median(durations) if durations else 0.0,
        }
    values = {f"{name}.{stat}": value
              for name, row in table.items() for stat, value in row.items()}
    select = table["acquisition.select_top_m"]
    values["acquisition.select_ratio"] = select["out"] / select["rows"] if select["rows"] else 0.0
    values["protocol._dump_scores.bytes"] = counters.get("protocol._dump_scores.bytes", 0)
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - untraced_wall
    values["trace.overhead_share"] = (wall - untraced_wall) / untraced_wall
    return table, values


def run_benchmark(name, seed, seconds, trace, size="full", out_root=OUT):
    """Run one workload; returns the run's full record as a dict.

    Times are the fastest of the run's passes (and set-ups): on a shared
    2-vCPU machine other tenants slow a pass by up to 1.7x for seconds at a
    time, and the fastest of many short passes is the statistic that repeats
    from run to run (see README.md).
    """
    workload = WORKLOADS[name](size)
    out_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_root))
    try:
        setup_times, passes = _measure(workload, seed, seconds, trace, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(setup_times) + len(workload.ops) * len(passes)
    problems = [f"pass {i} {op}: {msg}" for i, p in enumerate(passes)
                for op in workload.ops for msg in p.problems.get(op, [])]
    failed = sum(bool(p.problems.get(op)) for p in passes for op in workload.ops)
    untraced = [p.walls["wall_s"] for p in passes if not p.traced and "wall_s" in p.walls]
    traced = [p for p in passes if p.tracer is not None]
    if not untraced or (trace and not traced):
        print("\n".join(problems), file=sys.stderr)
        raise SystemExit("error: no pass of the workload ran to the end")

    wall = min(untraced)
    reported = {
        "wall_s": (wall, "s"),
        "setup_s": (min(setup_times), "s"),
        "units_per_s": (workload.units / wall, "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "error_rate": (failed / attempted, "ratio"),
    }
    walls_2w = [p.walls["wall_2w_s"] for p in passes if "wall_2w_s" in p.walls]
    if walls_2w:
        reported["wall_2w_s"] = (min(walls_2w), "s")
    for metric, unit in workload.quality.items():
        if metric in passes[0].quality:
            reported[metric] = (passes[0].quality[metric], unit)

    record = {
        "environment": environment(name, seed), "size": size, "seconds": seconds,
        "trace": bool(trace), "correct": failed == 0, "attempted": attempted,
        "failed": failed, "problems": problems, "setup_s": setup_times,
        "passes": [{"traced": p.traced, "walls": p.walls, "quality": p.quality,
                    "self_s_total": (sum(s.self_s for s in p.tracer.stats.values())
                                     if p.tracer else None)}
                   for p in passes],
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    if not trace:
        record["metrics"] = {k: record["reported"][k] for k in END_TO_END}
        return record
    record["layers"], values = _per_layer(traced, wall, passes[0].counters)
    record["missing_spans"] = traced[0].tracer.missing
    record["metrics"] = {k: {"value": values[k], "unit": u}
                         for k, u in per_layer_units().items()}
    return record


def _print_report(record):
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in record["reported"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    walls = [p["walls"]["wall_s"] for p in record["passes"] if not p["traced"]]
    print(f"wall_s is the fastest of {len(walls)} untraced passes "
          f"(median {statistics.median(walls):.4f} s, slowest {max(walls):.4f} s); "
          f"setup_s the fastest of {len(record['setup_s'])} set-ups "
          f"(median {statistics.median(record['setup_s']):.4f} s)")
    if record["trace"]:
        for name, row in record["layers"].items():
            print(f"layer {name}: calls {row['calls']} rows {row['rows']} "
                  f"self_s {row['self_s']:.6f} share {row['share']:.4f} "
                  f"p50_s {row['p50_s']:.3e}")
        for name in record["missing_spans"]:
            print(f"layer {name}: not found in budgex, reported as 0")
    for problem in record["problems"]:
        print(f"problem {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    _print_report(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
