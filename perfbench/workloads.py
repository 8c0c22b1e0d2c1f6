"""The benchmark's three seeded workloads: inputs, one measured pass, checks.

``prepare`` writes a workload's inputs from the seed. The harness runs it in
a fresh interpreter (``python -m perfbench.workloads``), so set-up time
includes importing budgex. ``run_pass`` calls budgex's public entry points
in-process inside ``timed`` blocks, then checks the outputs and returns the
failed checks per operation, the pass's quality numbers and its counters.
Only the seed and the sizes below reach the program.
"""

import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Entry points are looked up on their modules at call time, so that a
# traced pass sees the wrappers the tracer puts there.
from budgex import cli, metrics
from budgex.core import PropensityBounds, read_jsonl, validate_rct_stream
from budgex.envs import env_from_json
from budgex.protocol import ProtocolConfig

SIZES = {
    "full": {
        "run-box": {"n_pool": 5_000, "n_obs": 2_000, "budget": 500,
                    "batch": 50, "n_eval": 5_000, "setup_reps": 5},
        "sweep-hard": {"budgets": [100, 200, 400, 800], "replications": 1,
                       "batch": 50, "n_obs": 2_000, "setup_reps": 5},
        "audit-random": {"n_pool": 20_000, "budget": 5_000, "batch": 500,
                         "replications": 10, "delta": 0.05, "setup_reps": 5},
    },
    # Seconds-long versions for the benchmark's own tests.
    "tiny": {
        "run-box": {"n_pool": 400, "n_obs": 200, "budget": 60, "batch": 20,
                    "n_eval": 500, "setup_reps": 1},
        "sweep-hard": {"budgets": [16, 24, 32, 40], "replications": 1,
                       "batch": 8, "n_obs": 200, "setup_reps": 1},
        "audit-random": {"n_pool": 500, "budget": 100, "batch": 25,
                         "replications": 10, "delta": 0.05, "setup_reps": 1},
    },
}

F_MIN, F_MAX = 0.2, 0.8


def box_world(seed, n_pool, n_obs=0):
    """Linear identity box, d=5: run-box and audit-random share it.

    The box stays 5-dimensional because BoxMarginal.support_points
    enumerates all 2^k corners.
    """
    return {
        "seed": seed, "n_pool": n_pool, "n_obs": n_obs,
        "env": {
            "kind": "linear",
            "theta_star": [0.08, -0.06, 0.05, -0.04, 0.03],
            "S": 0.2,
            "baseline_intercept": 0.5,
            "baseline_weights": [0.0] * 5,
            "feature_map": {"kind": "identity", "output_dim": 5,
                            "norm_bound": math.sqrt(5), "weight": None, "offset": None},
            "marginal": {"kind": "box", "lows": [-1.0] * 5, "highs": [1.0] * 5},
        },
        "obs_policy": {"kind": "threshold", "direction": [1.0, 0.0, 0.0, 0.0, 0.0],
                       "cutoff": 0.0, "leak": 0.02},
    }


def hard_world(seed, n_obs):
    """The paper's hard instance: d=8, Delta=0.2, alternating signs.

    Segments 4..7 were always treated in the log and 0..3 never.
    """
    return {
        "seed": seed, "n_obs": n_obs,
        "env": {"kind": "hard", "d": 8, "delta": 0.2,
                "theta_signs": [1, -1, 1, -1, 1, -1, 1, -1]},
        "obs_policy": {"kind": "threshold", "direction": [0, 0, 0, 0, 1, 1, 1, 1],
                       "cutoff": 0.5, "leak": 0.0},
    }


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


@contextmanager
def _budgex_threads(n):
    previous = os.environ.get("BUDGEX_THREADS")
    os.environ["BUDGEX_THREADS"] = str(n)
    try:
        yield
    finally:
        if previous is None:
            del os.environ["BUDGEX_THREADS"]
        else:
            os.environ["BUDGEX_THREADS"] = previous


class Workload:
    name = None
    why = None
    ops = ()
    # quality metric -> unit; deterministic at a fixed seed
    quality = {}

    def __init__(self, size="full"):
        self.size = SIZES[size][self.name]

    @property
    def setup_reps(self):
        return self.size["setup_reps"]


class RunBox(Workload):
    name = "run-box"
    why = ("the path users run: generate, run, evaluate through the CLI, where "
           "per-pool-unit scoring and JSONL/score-dump I/O dominate")
    ops = ("run", "evaluate")
    quality = {"pehe": "prob"}

    @property
    def units(self):
        return self.size["budget"]

    def prepare(self, seed, inputs):
        s = self.size
        _write_json(inputs / "env.json", box_world(seed, s["n_pool"], s["n_obs"]))
        _write_json(inputs / "protocol.json", {
            "budget": s["budget"], "max_batch": s["batch"], "strategy": "active",
            "f_min": F_MIN, "f_max": F_MAX})
        if cli.main(["generate", "--env", str(inputs / "env.json"),
                     "--out", str(inputs / "data")]) != 0:
            raise RuntimeError("budgex generate failed")

    def run_pass(self, seed, inputs, out, timed):
        s = self.size
        run_dir, eval_dir = out / "run", out / "eval"
        rep_dir = run_dir / "rep_0000"
        with timed("wall_s"):
            rc_run = cli.main([
                "run", "--env", str(inputs / "env.json"),
                "--protocol", str(inputs / "protocol.json"),
                "--data", str(inputs / "data"), "--out", str(run_dir),
                "--seed", str(seed)])
            rc_eval = cli.main([
                "evaluate", "--env", str(inputs / "env.json"),
                "--solution", str(rep_dir / "solution.json"),
                "--out", str(eval_dir), "--seed", str(seed),
                "--n-eval", str(s["n_eval"])])

        run_problems = [] if rc_run == 0 else [f"budgex run returned {rc_run}"]
        rct = read_jsonl(rep_dir / "rct.jsonl", "rct")
        violation = validate_rct_stream(rct, PropensityBounds(F_MIN, F_MAX))
        if violation is not None:
            run_problems.append(f"rct.jsonl: {violation.reason}")
        used = _read_json(rep_dir / "run_summary.json")["budget_used"]
        if used != s["budget"] or len(rct) != s["budget"]:
            run_problems.append(f"budget_used {used}, {len(rct)} records, budget {s['budget']}")
        selected, dump_bytes = _selected_ids(rep_dir)
        pool_ids = _pool_ids(inputs / "data" / "pool.jsonl")
        if len(set(selected)) != len(selected):
            run_problems.append("a unit was selected twice")
        if not set(selected) <= pool_ids:
            run_problems.append("a selected id is not in the pool")
        if len(selected) != s["budget"]:
            run_problems.append(f"{len(selected)} units selected, budget {s['budget']}")

        eval_problems = [] if rc_eval == 0 else [f"budgex evaluate returned {rc_eval}"]
        pehe = _read_json(eval_dir / "summary.json")["pehe"]
        if not (math.isfinite(pehe) and pehe > 0):
            eval_problems.append(f"pehe {pehe}")
        problems = {"run": run_problems, "evaluate": eval_problems}
        return problems, {"pehe": pehe}, {"protocol._dump_scores.bytes": dump_bytes}


def _selected_ids(rep_dir):
    """Ids flagged selected in the per-round score dumps, and the dumps' size."""
    ids, size = [], 0
    for path in sorted(rep_dir.glob("scores_round_*.csv")):
        size += path.stat().st_size
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows)
            id_col, sel_col = header.index("id"), header.index("selected")
            ids.extend(int(r[id_col]) for r in rows if r[sel_col] == "1")
    return ids, size


def _pool_ids(path):
    with open(path) as fh:
        return {json.loads(line)["id"] for line in fh}


class SweepHard(Workload):
    name = "sweep-hard"
    why = ("many small sweep cells on the hard instance, so per-call overhead "
           "(propensity fit, sampling, env parsing, process pool) dominates")
    ops = ("sweep", "sweep-2w")
    quality = {"pehe_slope_active": "slope", "pehe_slope_random": "slope",
               "min_eig_active": "1/unit"}

    @property
    def cells(self):
        return len(self.size["budgets"]) * 2 * self.size["replications"]

    @property
    def units(self):
        return sum(self.size["budgets"]) * 2 * self.size["replications"]

    def prepare(self, seed, inputs):
        s = self.size
        env_doc = hard_world(seed, s["n_obs"])
        env_from_json(env_doc)
        _write_json(inputs / "env.json", env_doc)
        _write_json(inputs / "sweep.json", {
            "env": str((inputs / "env.json").resolve()),
            "protocol": {"max_batch": s["batch"], "f_min": F_MIN, "f_max": F_MAX},
            "budgets": s["budgets"], "strategies": ["random", "active-full"],
            "replications": s["replications"], "n_obs": s["n_obs"]})

    def run_pass(self, seed, inputs, out, timed):
        argv = ["sweep", "--sweep", str(inputs / "sweep.json"), "--seed", str(seed)]
        with _budgex_threads(1), timed("wall_s"):
            rc_serial = cli.main(argv + ["--out", str(out / "serial")])
        with _budgex_threads(2), timed("wall_2w_s", trace=False):
            rc_2w = cli.main(argv + ["--out", str(out / "two")])

        serial = (out / "serial" / "metrics.csv").read_bytes()
        two = (out / "two" / "metrics.csv").read_bytes()
        rows = list(csv.DictReader(serial.decode().splitlines()))
        slopes = _read_json(out / "serial" / "summary.json")["slopes"]
        quality = {
            "pehe_slope_active": slopes["active-full"]["slope"],
            "pehe_slope_random": slopes["random"]["slope"],
            "min_eig_active": float(np.mean([
                float(r["min_eig_normalized"]) for r in rows
                if r["strategy"] == "active-full"
                and int(r["budget"]) == max(self.size["budgets"])])),
        }
        serial_problems = [] if rc_serial == 0 else [f"budgex sweep returned {rc_serial}"]
        if len(rows) != self.cells:
            serial_problems.append(f"{len(rows)} rows, expected {self.cells}")
        if not _finite([r["pehe"] for r in rows]) or not _finite(list(quality.values())):
            serial_problems.append("non-finite pehe, slope or min_eig")
        two_problems = [] if rc_2w == 0 else [f"budgex sweep (2 workers) returned {rc_2w}"]
        if two != serial:
            two_problems.append("2-worker metrics.csv differs from the serial one")
        return {"sweep": serial_problems, "sweep-2w": two_problems}, quality, {}


class AuditRandom(Workload):
    name = "audit-random"
    why = ("coverage and CLT audits with the random strategy: never calls "
           "acquisition; time goes to unit draws, outcomes, final fits, sandwich")
    ops = ("bound_violation_audit", "clt_diagnostic")
    quality = {"violation_rate": "ratio", "clt_ks": "ks"}

    @property
    def units(self):
        return self.size["budget"] * self.size["replications"] * 2

    def prepare(self, seed, inputs):
        env_doc = box_world(seed, self.size["n_pool"])
        env_from_json(env_doc)
        _write_json(inputs / "env.json", env_doc)

    def run_pass(self, seed, inputs, out, timed):
        s = self.size
        env, _, _ = env_from_json(_read_json(inputs / "env.json"))
        config = ProtocolConfig(budget=s["budget"], max_batch=s["batch"],
                                strategy="random")
        reps = s["replications"]
        x = np.full(5, 0.5)
        with timed("wall_s"):
            audit = metrics.bound_violation_audit(env, config, s["n_pool"], reps,
                                          s["delta"], master_seed=seed)
            clt = metrics.clt_diagnostic(env, config, s["n_pool"], reps, x,
                                 master_seed=seed)

        audit_problems, clt_problems = [], []
        if len(audit.radii) != reps or not (_finite(audit.radii) and _finite(audit.betas)):
            audit_problems.append("radii or betas missing or non-finite")
        if len(clt.z_scores) != reps or not _finite(clt.z_scores):
            clt_problems.append(f"{len(clt.z_scores)} z-scores, expected {reps} finite")
        quality = {"violation_rate": audit.rate, "clt_ks": clt.ks_statistic}
        problems = {"bound_violation_audit": audit_problems, "clt_diagnostic": clt_problems}
        return problems, quality, {}


WORKLOADS = {w.name: w for w in (RunBox, SweepHard, AuditRandom)}


if __name__ == "__main__":
    # python -m perfbench.workloads <workload> <seed> <size> <inputs-dir>
    name, seed, size, inputs = sys.argv[1:5]
    inputs = Path(inputs)
    inputs.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name](size).prepare(int(seed), inputs)
