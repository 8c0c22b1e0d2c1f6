"""Command-line orchestration: generate worlds, run protocols, evaluate, sweep.

Subcommands:
  generate  env.json -> obs.jsonl / pool.jsonl (+ manifest.json), at env.json's
            seed (default 0); with no log to draw it removes a stale obs.jsonl
  run       env.json + protocol.json -> rct.jsonl, scores_round_<k>.csv, solution.json
  evaluate  env.json + solution.json -> metrics.csv, summary.json, by metrics.score
  sweep     sweep.json -> one metrics row per (budget, strategy, replication), for
            sweep.json's replications (default 1) at --seed: one run per
            (strategy, replication) at the largest budget, at a seed every
            strategy and budget of the replication shares, refitted on its
            first min(budget, n_pool) rows (the run at that budget) at each
            budget, scored as evaluate scores it on the replication's holdout

Each command parses its inputs once, into the objects the run uses: the env,
the log's policy and covariate marginal, and a base ProtocolConfig. Run's
replications and sweep's runs (in workers too) get those. Each command rejects
bad inputs, a missing or unknown key, a size below its bound, a JSON bool or
non-finite number, a config that protocol.check_config rejects, a sweep cell
at estimator_lambda 0 with fewer than d queries, a sweep size (n_pool, n_obs)
that sweep.json and env.json set apart (one set in env.json alone is the
sweep's) and, in generate, an n_obs > 0 or an obs_shift without an
obs_policy, before any output is made. The engine opens no file: run writes a
replication's files once its run has returned, its score tables in one
protocol._dump_scores call, and sweep's runs, drawn through
metrics.replicate, return numbers that sweep writes once the last one has
returned. All outputs but run's wall-clock timing.json, which
times the run alone, are byte-deterministic given identical configs and master
seed.

Run writes a replication's score dumps on the CPUs in the process's affinity
mask: protocol._dump_scores forks a child per extra CPU, up to one per round.
BUDGEX_THREADS caps worker parallelism for sweeps only (default 1); sweep's
workers are forked too. Caveat, unverified on the Python 3.11 this was
measured on: Python >= 3.12 warns (DeprecationWarning) when a process that
runs threads, such as OpenBLAS's, forks.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from ._rng import derive_seed
from .acquisition import AcquisitionWeights
from .core import finite_numbers, read_jsonl, write_jsonl
from .envs import EnvSpecError, kind_of, known_keys, load_env, sample_obs, sample_pool
from .estimator import fit_ridge_arrays, solution_to_json, solution_from_json
from .metrics import randomized_eval_set, replicate, score
from .protocol import (DEFAULT_BOUNDS, AffinePolicy, ConstantPolicy, ProtocolConfig,
                       _dump_scores, check_config, run_protocol)

METRIC_COLUMNS = ["budget", "strategy", "replication", "seed", "pehe", "auuc",
                  "min_eig_normalized"]

# sweep strategy name -> the active strategy's weights, or None for random
STRATEGIES = {
    "random": None,
    "active-full": AcquisitionWeights(),  # protocol.json's default weights
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
    """The assignment policy of a randomization block: "constant" (p, the default
    kind) or "affine" (weights and bias over the phi row)."""
    if kind_of({"kind": "constant", **doc}, "protocol.json randomization", {
            "constant": ("p?",), "affine": ("weights", "bias?")}) == "constant":
        return ConstantPolicy(**_given(doc, "p"))
    return AffinePolicy(tuple(doc["weights"]), **_given(doc, "bias"))


def protocol_config_from_json(doc):
    """A ProtocolConfig from protocol.json; each key it leaves out but budget
    keeps its dataclass default (seed 0). A key it does not know or lacks, a
    bool and a NaN or infinite number are ValueErrors."""
    known_keys(finite_numbers(doc, "protocol.json"), "protocol.json", "budget",
               "max_batch?", "strategy?", "estimator_lambda?", "f_min?", "f_max?",
               "randomization?", "weights?")
    given = _given(doc, "max_batch", "strategy", "estimator_lambda")
    return ProtocolConfig(
        budget=doc["budget"],
        bounds=replace(DEFAULT_BOUNDS, **_given(doc, "f_min", "f_max")),
        randomization=_randomization_from_json(doc.get("randomization", {})),
        weights=AcquisitionWeights(**known_keys(doc.get("weights", {}),
                                                "protocol.json weights",
                                                "alpha?", "beta?", "gamma?")),
        **given)


def _check_sizes(where, *sizes):
    """Raise ValueError unless each (name, value, low) has an integer value >= low."""
    for name, value, low in sizes:
        if type(value) is not int or value < low:
            raise ValueError(f"{where} {name} must be >= {low} and an integer, got {value!r}")


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args):
    env, policy, obs_marginal, doc = load_env(args.env)
    n_pool, n_obs = doc.get("n_pool", 1000), doc.get("n_obs", 0)
    _check_sizes("env.json", ("n_pool", n_pool, 1), ("n_obs", n_obs, 0))
    if policy is None and (n_obs > 0 or "obs_shift" in doc):
        key = f"n_obs {n_obs}" if n_obs > 0 else "obs_shift"
        raise EnvSpecError(f"env.json {key} needs an obs_policy to draw the log")
    os.makedirs(args.out, exist_ok=True)
    seed = doc.get("seed", 0)
    pool = sample_pool(env, n_pool, seed)
    write_jsonl(os.path.join(args.out, "pool.jsonl"), pool)
    obs_path = os.path.join(args.out, "obs.jsonl")
    if n_obs > 0:
        write_jsonl(obs_path, sample_obs(env, policy, obs_marginal, n_obs, seed))
    elif os.path.exists(obs_path):  # an earlier world's log: run would read it
        os.remove(obs_path)
    _write_json(os.path.join(args.out, "manifest.json"),
                {"env_spec_sha256": _sha256_file(args.env), "seed": seed})
    return 0


# ---------------------------------------------------------------------------
# run


def _write_scores(rep_dir, result):
    """Each round's score table as scores_round_<k>.csv, its picks flagged."""
    _dump_scores(rep_dir, result.scores,
                 np.split(result.unit_ids, np.cumsum(result.batch_sizes[:-1])))


def cmd_run(args):
    env, _, _, _ = load_env(args.env)
    with open(args.protocol) as fh:
        base = protocol_config_from_json(json.load(fh))
    if args.reps < 1:
        raise ValueError(f"run replications must be >= 1, got {args.reps}")
    pool = read_jsonl(os.path.join(args.data, "pool.jsonl"), "pool")
    obs_path = os.path.join(args.data, "obs.jsonl")
    obs = read_jsonl(obs_path, "obs") if os.path.exists(obs_path) else None
    if base.budget > len(pool):
        print(f"warning: budget {base.budget} exceeds pool size {len(pool)}; "
              "pool will be exhausted", file=sys.stderr)

    for r in range(args.reps):
        seed_r = derive_seed(args.seed, r)
        cfg = replace(base, seed=seed_r)
        t0 = time.perf_counter()
        result = run_protocol(cfg, env, pool_units=pool, obs=obs)
        elapsed = time.perf_counter() - t0
        rep_dir = os.path.join(args.out, f"rep_{r:04d}")
        os.makedirs(rep_dir, exist_ok=True)
        _write_scores(rep_dir, result)
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
    d = env.feature_map.output_dim
    if len(solution.theta_hat) != d:
        raise ValueError(f"solution.json theta_hat has {len(solution.theta_hat)} "
                         f"coordinates; the env's phi has {d}")
    os.makedirs(args.out, exist_ok=True)
    pehe_val, auuc_val = score(solution.theta_hat, env,
                               randomized_eval_set(env, args.n_eval, args.seed))
    doc = {"pehe": pehe_val, "auuc": auuc_val, "n_eval": args.n_eval}
    with open(os.path.join(args.out, "metrics.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(doc)
        w.writerow(map(repr, doc.values()))
    _write_json(os.path.join(args.out, "summary.json"), doc)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_cell(env, result, n, lam, holdout):
    """One (budget, strategy, replication) cell's PEHE, AUUC and lambda_min/n,
    as Python numbers, from the ridge refit on a finished run's first n stream
    rows; a pure function of its inputs. Its PEHE and AUUC are metrics.score
    on holdout, as an evaluate of the refit at the holdout's seed and size."""
    solution = fit_ridge_arrays(result.phis[:n], result.yts[:n], lam)
    v0 = solution.V - lam * np.eye(len(solution.theta_hat))
    return (*score(solution.theta_hat, env, holdout),
            float(np.linalg.eigvalsh(v0).min() / n))


def _sweep_replication(payload):
    """The cells of one (strategy, replication), one per budget in budgets'
    order, from one run at the largest budget and config's seed.

    At one seed the run at any budget is the first n = min(budget, n_pool)
    rows of any longer run (a round reads only the stream so far, the active
    strategy takes each batch in score order and the random strategy slices
    one permutation), so each cell is the refit on the largest run's first n
    rows. The cells share the replication's one 4,000-unit holdout, drawn at
    the seed, which scores both their PEHE and their AUUC.
    """
    env, policy, obs_marginal, config, budgets, n_pool, n_obs = payload
    longest = replicate(env, policy, obs_marginal, replace(config, budget=max(budgets)),
                        n_pool, n_obs)
    holdout = randomized_eval_set(env, 4000, config.seed)
    return [_sweep_cell(env, longest, min(b, n_pool), config.estimator_lambda, holdout)
            for b in budgets]


def _sweep_sizes(sdoc, edoc, budgets):
    """n_pool and n_obs: sweep.json's, else env.json's, else 2 * max(budgets)
    and 2000. A size both files set to different values is a ValueError."""
    sizes = {"n_pool": max(budgets) * 2, "n_obs": 2000}
    for key in sizes:
        if key in sdoc and key in edoc and sdoc[key] != edoc[key]:
            raise ValueError(f"sweep.json {key} {sdoc[key]!r} differs from env.json "
                             f"{key} {edoc[key]!r}; set it in one file")
        sizes[key] = sdoc.get(key, edoc.get(key, sizes[key]))
    return sizes["n_pool"], sizes["n_obs"]


def _paired_mean(diffs):
    """The mean of per-replication differences and its standard error, None
    for a single replication."""
    se = float(np.std(diffs, ddof=1) / np.sqrt(len(diffs))) if len(diffs) > 1 else None
    return {"mean": float(np.mean(diffs)), "se": se}


def cmd_sweep(args):
    with open(args.sweep) as fh:
        sdoc = known_keys(json.load(fh), "sweep.json", "env", "budgets", "strategies",
                          "replications?", "n_pool?", "n_obs?", "protocol?")
    for key in ("budgets", "strategies"):
        if type(sdoc[key]) is not list:
            raise ValueError(f"sweep.json {key} must be a JSON list, got {sdoc[key]!r}")
    env, policy, obs_marginal, edoc = load_env(sdoc["env"])
    pdoc = sdoc.get("protocol", {})
    per_cell = sorted({"budget", "strategy", "weights"} & set(pdoc))
    if per_cell:
        raise ValueError(f"sweep.json protocol must not set {per_cell}: each cell sets them")
    base = protocol_config_from_json({**pdoc, "budget": 0})
    budgets = sdoc["budgets"]
    strategies = sdoc["strategies"]
    reps = sdoc.get("replications", 1)
    if not budgets or not strategies:
        print("error: sweep needs nonempty budgets and strategies", file=sys.stderr)
        return 2
    if not all(type(b) is int and b > 0 for b in budgets):
        raise ValueError(f"sweep budgets must be positive integers, got {budgets}")
    n_pool, n_obs = _sweep_sizes(sdoc, edoc, budgets)
    _check_sizes("sweep", ("replications", reps, 1), ("n_pool", n_pool, 1),
                 ("n_obs", n_obs, 0))
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown sweep strategies {unknown}; known: {list(STRATEGIES)}")
    for name, values in (("budgets", budgets), ("strategies", strategies)):
        if len(set(values)) < len(values):
            raise ValueError(f"sweep {name} must not repeat, got {values}")
    kinds = {"random" if STRATEGIES[s] is None else "active" for s in strategies}
    if "active" in kinds and (policy is None or n_obs < 1):
        raise ValueError("active sweep strategies need an obs policy and n_obs > 0")
    for kind in sorted(kinds):
        check_config(replace(base, strategy=kind), env)
    d, queries = env.feature_map.output_dim, min(min(budgets), n_pool)
    if base.estimator_lambda == 0 and queries < d:
        raise ValueError(f"estimator_lambda 0 fits least squares, which needs at least "
                         f"d = {d} queries; the smallest cell makes {queries}")

    # one run per (strategy, replication), at a seed every strategy shares
    seeds = [derive_seed(args.seed, 0x737765, r) for r in range(reps)]
    runs = [(s, r) for s in strategies for r in range(reps)]
    payloads = []
    for s, r in runs:
        weights = STRATEGIES[s]
        config = replace(base, seed=seeds[r],
                         strategy="random" if weights is None else "active",
                         weights=base.weights if weights is None else weights)
        payloads.append((env, policy, obs_marginal, config, budgets, n_pool, n_obs))
    workers = int(os.environ.get("BUDGEX_THREADS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            cells = dict(zip(runs, ex.map(_sweep_replication, payloads)))
    else:
        cells = {run: _sweep_replication(p) for run, p in zip(runs, payloads)}
    rows = [(b, s, r, seeds[r], *cells[s, r][i])
            for i, b in enumerate(budgets) for s in strategies for r in range(reps)]

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "metrics.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRIC_COLUMNS)
        w.writerows((*r[:4], *map(repr, r[4:])) for r in rows)

    pehes = {r[:3]: r[4] for r in rows}
    summary = {"cells": {}, "slopes": {}, "pehe_minus_random": {}}
    for s in strategies:
        per_budget = {}
        for b in budgets:
            cell_rows = [r for r in rows if r[:2] == (b, s)]
            per_budget[str(b)] = {"mean_pehe": float(np.mean([r[4] for r in cell_rows])),
                                  "mean_auuc": float(np.nanmean([r[5] for r in cell_rows]))}
        summary["cells"][s] = per_budget
        if len(budgets) >= 4:
            mb = sorted(budgets)
            mp = [per_budget[str(b)]["mean_pehe"] for b in mb]
            slope, intercept = np.polyfit(np.log(mb), np.log(mp), 1)
            summary["slopes"][s] = {"slope": float(slope), "intercept": float(intercept)}
        if s != "random" and "random" in strategies:
            summary["pehe_minus_random"][s] = {str(b): _paired_mean(
                [pehes[b, s, r] - pehes[b, "random", r] for r in range(reps)])
                for b in budgets}
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
    g.add_argument("--env", required=True,
                   help="env.json; its seed key (default 0) seeds the pool and the log")
    g.add_argument("--out", required=True)
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
    e.add_argument("--n-eval", type=int, default=5000,
                   help="size of the one holdout; PEHE is exact on a segment world")
    e.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("sweep", help="budget x strategy sweep")
    s.add_argument("--sweep", required=True,
                   help="sweep.json; its replications key (default 1) sets the "
                   "replications, each one run per strategy at a seed that every "
                   "strategy and budget of the replication shares")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=0,
                   help="master seed of the replications")
    s.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
