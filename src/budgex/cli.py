"""Command-line orchestration: generate worlds, run protocols, evaluate, sweep.

Subcommands:
  generate  env.json -> obs.jsonl / pool.jsonl (+ manifest.json)
  run       env.json + protocol.json -> rct.jsonl, scores, solution.json
  evaluate  env.json + solution.json -> metrics.csv, summary.json
  sweep     sweep.json -> one metrics row per (budget, strategy, replication)

Each command parses its inputs once: run's replications and sweep's cells (in
workers too) get the parsed world and a base ProtocolConfig, and a sweep
rejects bad inputs before any cell runs. Cells draw through metrics.replicate.
All outputs but run's wall-clock timing.json are byte-deterministic given
identical configs and master seed.
BUDGEX_THREADS caps worker parallelism for sweeps (default 1).
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from ._rng import derive_seed, rng_for
from .acquisition import AcquisitionWeights
from .core import known_keys, read_jsonl, write_jsonl
from .envs import SegmentMarginal, load_env, sample_obs, sample_pool
from .estimator import solution_to_json, solution_from_json
from .metrics import auuc, pehe, pehe_exact_segments, replicate
from .protocol import (DEFAULT_BOUNDS, AffinePolicy, ConstantPolicy,
                       ProtocolConfig, VarianceOptimalPolicy, run_protocol)

METRIC_COLUMNS = ["budget", "strategy", "replication", "seed", "pehe", "auuc",
                  "min_eig_normalized"]

# sweep strategy name -> the active strategy's weights, or None for random
STRATEGIES = {
    "random": None,
    "active-full": AcquisitionWeights(0.5, 1.0, 0.7),
    "active-v-only": AcquisitionWeights(0.5, 0.0, 0.0),
    "active-d-only": AcquisitionWeights(0.0, 1.0, 0.0),
    "active-o-only": AcquisitionWeights(0.0, 0.0, 0.7),
    "active-vd": AcquisitionWeights(0.5, 1.0, 0.0),
    "active-vo": AcquisitionWeights(0.5, 0.0, 0.7),
    "active-do": AcquisitionWeights(0.0, 1.0, 0.7),
}


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _given(doc, *keys):
    return {k: doc[k] for k in keys if k in doc}


def _randomization_from_json(doc):
    known_keys(doc, "protocol.json randomization", "kind", "p", "weights", "bias")
    kind = doc.get("kind", "constant")
    if kind == "constant":
        return ConstantPolicy(**_given(doc, "p"))
    if kind == "affine":
        return AffinePolicy(tuple(doc["weights"]), **_given(doc, "bias"))
    if kind == "variance-optimal":
        return VarianceOptimalPolicy()
    raise ValueError(f"unknown randomization kind {kind!r}")


def protocol_config_from_json(doc):
    """A ProtocolConfig from protocol.json; each key it leaves out keeps its
    dataclass default (seed 0). A key it does not know is a ValueError."""
    known_keys(doc, "protocol.json", "budget", "max_batch", "strategy",
               "estimator_lambda", "f_min", "f_max", "randomization", "weights")
    given = _given(doc, "max_batch", "strategy", "estimator_lambda")
    return ProtocolConfig(
        budget=doc["budget"],
        bounds=replace(DEFAULT_BOUNDS, **_given(doc, "f_min", "f_max")),
        randomization=_randomization_from_json(doc.get("randomization", {})),
        weights=AcquisitionWeights(**known_keys(doc.get("weights", {}),
                                                "protocol.json weights",
                                                "alpha", "beta", "gamma")),
        **given)


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args):
    env, policy, shift, doc = load_env(args.env)
    os.makedirs(args.out, exist_ok=True)
    seed = doc.get("seed", 0) if args.seed is None else args.seed
    pool = sample_pool(env, doc.get("n_pool", 1000), seed)
    write_jsonl(os.path.join(args.out, "pool.jsonl"), pool)
    n_obs = doc.get("n_obs", 0)
    if policy is not None and n_obs > 0:
        obs = sample_obs(env, policy, shift, n_obs, seed)
        write_jsonl(os.path.join(args.out, "obs.jsonl"), obs)
    _write_json(os.path.join(args.out, "manifest.json"),
                {"env_spec_sha256": _sha256_file(args.env), "seed": seed})
    return 0


# ---------------------------------------------------------------------------
# run


def cmd_run(args):
    env, policy, shift, env_doc = load_env(args.env)
    with open(args.protocol) as fh:
        base = protocol_config_from_json(json.load(fh))
    if args.reps < 1:
        raise ValueError(f"run replications must be >= 1, got {args.reps}")
    os.makedirs(args.out, exist_ok=True)

    pool_path = os.path.join(args.data, "pool.jsonl")
    obs_path = os.path.join(args.data, "obs.jsonl")
    pool = read_jsonl(pool_path, "pool")
    obs = read_jsonl(obs_path, "obs") if os.path.exists(obs_path) else None
    if base.budget > len(pool):
        print(f"warning: budget {base.budget} exceeds pool size {len(pool)}; "
              "pool will be exhausted", file=sys.stderr)

    for r in range(args.reps):
        seed_r = derive_seed(args.seed, r)
        cfg = replace(base, seed=seed_r)
        rep_dir = os.path.join(args.out, f"rep_{r:04d}")
        os.makedirs(rep_dir, exist_ok=True)
        t0 = time.perf_counter()
        result = run_protocol(cfg, env, pool_units=pool, obs=obs, out_dir=rep_dir)
        elapsed = time.perf_counter() - t0
        write_jsonl(os.path.join(rep_dir, "rct.jsonl"), result.stream)
        _write_json(os.path.join(rep_dir, "solution.json"),
                    solution_to_json(result.solution))
        _write_json(os.path.join(rep_dir, "run_summary.json"), {
            "budget": cfg.budget,
            "budget_used": len(result.stream),
            "batch_sizes": result.batch_sizes,
            "seed": seed_r,
        })
        _write_json(os.path.join(rep_dir, "timing.json"),
                    {"wall_time_s": round(elapsed, 3)})
    _write_json(os.path.join(args.out, "manifest.json"), {
        "env_spec_sha256": _sha256_file(args.env),
        "protocol_sha256": _sha256_file(args.protocol),
        "master_seed": args.seed,
        "replications": args.reps,
    })
    return 0


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args):
    env, _, _, _ = load_env(args.env)
    with open(args.solution) as fh:
        solution = solution_from_json(json.load(fh))
    if args.n_eval < 2:
        raise ValueError(f"evaluate needs --n-eval >= 2 (an uplift curve needs 2 units), "
                         f"got {args.n_eval}")
    os.makedirs(args.out, exist_ok=True)
    eval_xs = env.sample_x(args.n_eval, rng_for(args.seed, 0x65786576))
    pehe_val = pehe(solution.theta_hat, env, env.feature_map.apply_many(eval_xs))
    auuc_val = auuc(solution.theta_hat, env, args.n_eval, args.seed)

    with open(os.path.join(args.out, "metrics.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pehe", "auuc", "n_eval"])
        w.writerow([repr(pehe_val), repr(auuc_val), len(eval_xs)])
    _write_json(os.path.join(args.out, "summary.json"),
                {"pehe": pehe_val, "auuc": auuc_val, "n_eval": len(eval_xs)})
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_cell(payload):
    """One (budget, strategy, replication) cell; pure function of its inputs."""
    (env, policy, shift, base, budget, strategy, rep, master_seed, n_pool,
     n_obs) = payload
    seed = derive_seed(master_seed, budget,
                       zlib.crc32(strategy.encode()) & 0xFFFF, rep)
    weights = STRATEGIES[strategy]
    cfg = replace(base, budget=budget, seed=seed,
                  strategy="random" if weights is None else "active",
                  weights=base.weights if weights is None else weights)
    result = replicate(env, policy, shift, cfg, n_pool, n_obs)
    theta_hat = result.solution.theta_hat
    if isinstance(env.marginal, SegmentMarginal):
        pehe_val = pehe_exact_segments(theta_hat, env)
    else:
        eval_xs = env.sample_x(4000, rng_for(seed, 0x6576))
        pehe_val = pehe(theta_hat, env, env.feature_map.apply_many(eval_xs))
    auuc_val = auuc(theta_hat, env, 4000, derive_seed(master_seed, budget, rep))
    b_used = max(len(result.stream), 1)
    v0 = result.solution.V - result.solution.lam * np.eye(env.feature_map.output_dim)
    min_eig = float(np.linalg.eigvalsh(v0).min() / b_used)
    return [budget, strategy, rep, seed, repr(pehe_val), repr(auuc_val), repr(min_eig)]


def cmd_sweep(args):
    with open(args.sweep) as fh:
        sdoc = known_keys(json.load(fh), "sweep.json", "env", "budgets", "strategies",
                          "replications", "n_pool", "n_obs", "protocol")
    env, policy, shift, _ = load_env(sdoc["env"])
    pdoc = sdoc.get("protocol", {})
    per_cell = sorted({"budget", "strategy", "weights"} & set(pdoc))
    if per_cell:
        raise ValueError(f"sweep.json protocol must not set {per_cell}: each cell sets them")
    base = protocol_config_from_json({**pdoc, "budget": 0})
    budgets = sdoc["budgets"]
    strategies = sdoc["strategies"]
    reps = sdoc.get("replications", 1) if args.reps is None else args.reps
    if not budgets or not strategies:
        print("error: sweep needs nonempty budgets and strategies", file=sys.stderr)
        return 2
    n_pool = sdoc.get("n_pool", max(budgets) * 2)
    n_obs = sdoc.get("n_obs", 2000)
    if not all(type(b) is int and b > 0 for b in budgets):
        raise ValueError(f"sweep budgets must be positive integers, got {budgets}")
    if reps < 1:
        raise ValueError(f"sweep replications must be >= 1, got {reps}")
    if n_pool < 1:
        raise ValueError(f"sweep n_pool must be >= 1, got {n_pool}")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown sweep strategies {unknown}; known: {list(STRATEGIES)}")
    if (policy is None or n_obs < 1) and any(STRATEGIES[s] is not None for s in strategies):
        raise ValueError("active sweep strategies need an obs policy and n_obs > 0")
    os.makedirs(args.out, exist_ok=True)

    payloads = [
        (env, policy, shift, base, b, s, r, args.seed, n_pool, n_obs)
        for b in budgets for s in strategies for r in range(reps)
    ]
    workers = int(os.environ.get("BUDGEX_THREADS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_sweep_cell, payloads))
    else:
        rows = [_sweep_cell(p) for p in payloads]

    with open(os.path.join(args.out, "metrics.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRIC_COLUMNS)
        w.writerows(rows)

    summary = {"cells": {}, "slopes": {}}
    for s in strategies:
        per_budget = {}
        for b in budgets:
            vals = [float(r[4]) for r in rows if r[0] == b and r[1] == s]
            aucs = [float(r[5]) for r in rows if r[0] == b and r[1] == s]
            per_budget[str(b)] = {
                "mean_pehe": float(np.mean(vals)),
                "mean_auuc": float(np.nanmean(aucs)) if aucs else float("nan"),
            }
        summary["cells"][s] = per_budget
        if len(budgets) >= 4:
            mb = np.array(sorted(budgets), dtype=float)
            mp = np.array([per_budget[str(int(b))]["mean_pehe"] for b in sorted(budgets)])
            slope, intercept = np.polyfit(np.log(mb), np.log(mp), 1)
            summary["slopes"][s] = {"slope": float(slope), "intercept": float(intercept)}
    _write_json(os.path.join(args.out, "summary.json"), summary)
    _write_json(os.path.join(args.out, "manifest.json"), {
        "sweep_sha256": _sha256_file(args.sweep),
        "master_seed": args.seed,
        "replications": reps,
    })
    return 0


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(prog="budgex",
                                     description="Budgeted active experimentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate obs/pool datasets from env.json")
    g.add_argument("--env", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="run the budgeted protocol")
    r.add_argument("--env", required=True)
    r.add_argument("--protocol", required=True)
    r.add_argument("--data", required=True, help="directory with pool.jsonl / obs.jsonl")
    r.add_argument("--out", required=True)
    r.add_argument("--reps", type=int, default=1)
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("evaluate", help="evaluate a fitted solution")
    e.add_argument("--env", required=True)
    e.add_argument("--solution", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--n-eval", type=int, default=5000)
    e.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("sweep", help="budget x strategy sweep")
    s.add_argument("--sweep", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--reps", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
