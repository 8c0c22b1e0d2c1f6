"""Round-based budgeted experimentation loop.

A run is a batch schedule fixed before round 1: n = min(budget, pool size)
queries in rounds of m_k = min(M, n - queried so far), i.e. [M, ..., M, r].
Round k picks m_k unqueried pool positions: the active strategy's m_k highest
acquisition scores, in score order, or the next m_k entries of the random
strategy's one permutation of the pool per run. So at one seed a run at any
budget is the first n rows of a longer one. The round randomizes treatment
with a clipped assignment policy, draws outcomes from the environment, and
appends the positions, draws and pseudo-outcomes to the chronological stream.
The policy reads phi rows only, and the environment only draws outcomes.
Treatment and outcome draws use dedicated per-unit streams keyed by (seed,
unit id, purpose), so selection order can never alter an individual unit's
assignment. The loop opens no file: it returns the stream, the fit and the
score tables to its caller.
"""

import os
import sys
import traceback
from dataclasses import dataclass
from operator import index

import numpy as np

from ._rng import OUTCOME, TREATMENT, rng_for, unit_uniform
from .acquisition import (AcquisitionWeights, fit_propensity, overlap_deficit_many,
                          score_pool, select_top_m)
from .core import PropensityBounds, RctStream
from .estimator import fit_ridge_arrays, pseudo_outcome_values, RidgeSolution

DEFAULT_BOUNDS = PropensityBounds(0.2, 0.8)


def clip_probability(raw, bounds):
    """Clip(z, f_min, f_max) = min(max(z, f_min), f_max)."""
    return np.minimum(np.maximum(raw, bounds.f_min), bounds.f_max)


@dataclass(frozen=True)
class ConstantPolicy:
    p: float = 0.5

    def __post_init__(self):
        if not np.isfinite(self.p):
            raise ValueError(f"constant assignment probability {self.p!r} is not a finite number")

    def raw(self, phis):
        return np.full(len(phis), self.p)


@dataclass(frozen=True)
class AffinePolicy:
    weights: tuple
    bias: float = 0.5

    def __post_init__(self):
        if not np.all(np.isfinite(np.append(self.weights, self.bias))):
            raise ValueError("affine assignment weights and bias must be finite numbers")

    def raw(self, phis):
        # not phis @ w: BLAS fuses multiply-adds in multi-row batches only, so a
        # unit's p would depend in its last bit on how many rows its batch has
        return self.bias + np.einsum("ij,j->i", phis, self.weights)


@dataclass(frozen=True)
class ProtocolConfig:
    budget: int
    max_batch: int = 1_000_000
    bounds: PropensityBounds = DEFAULT_BOUNDS
    randomization: object = ConstantPolicy(0.5)
    strategy: str = "active"  # "active" | "random"
    weights: AcquisitionWeights = AcquisitionWeights()
    estimator_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if index(self.budget) < 0:
            raise ValueError("budget must be nonnegative")
        if index(self.max_batch) < 1:
            raise ValueError("max_batch must be >= 1")
        if not 0.0 <= self.estimator_lambda < np.inf:
            raise ValueError(f"estimator_lambda {self.estimator_lambda!r} is not in [0, inf)")
        if self.strategy not in ("active", "random"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
class RoundState:
    """The randomized stream so far, in arrays preallocated to the run's
    min(budget, pool size) queries.

    Rows [0, n) are filled: rows holds the pool position of each stream row, in
    selection order (the random strategy's every row from before round 1),
    beside its phi row (phis), written once when the unit is picked, its draws
    (ts, ys, ps) and its pseudo-outcome Y~ (yts); unqueried is a mask over
    pool positions. Positions index the pool in unit-id order.
    """

    n: int
    rows: np.ndarray
    phis: np.ndarray
    ts: np.ndarray
    ys: np.ndarray
    ps: np.ndarray
    yts: np.ndarray
    unqueried: np.ndarray


@dataclass(frozen=True)
class ProtocolResult:
    solution: RidgeSolution
    stream: RctStream  # the randomized stream, seq 1..n in selection order
    phis: np.ndarray  # the phi row of every stream row
    yts: np.ndarray  # the pseudo-outcome of every stream row, as fitted
    unit_ids: np.ndarray  # the pool unit id of every stream row
    scores: list  # per-round score tables (active strategy)
    batch_sizes: list
    pool_phis: np.ndarray  # the phi row of every pool unit, in unit-id order


def _assign_and_observe(env, config, ids, phis):
    """Randomize treatments and draw outcomes for a batch of unit ids and phi rows."""
    raw = config.randomization.raw(phis)
    ps = clip_probability(raw, config.bounds)
    u_t = unit_uniform(config.seed, ids, TREATMENT)
    ts = (u_t < ps).astype(int)
    u_y = unit_uniform(config.seed, ids, OUTCOME)
    ys = env.draw_outcomes(phis, ts, u_y)
    return ts, ys, ps


def run_round(state, m_k, config, env, ids, pool_phis, context):
    """Randomize and observe the next m_k rows of state. The active strategy
    picks their pool positions here, from its context's scores; the random
    strategy's rows were drawn before round 1. Returns the round's score
    table, or None for the random strategy."""
    scores, batch = None, slice(state.n, state.n + m_k)
    if config.strategy == "active":
        candidates = np.flatnonzero(state.unqueried)
        scores = context.score_round(state, candidates, ids[candidates],
                                     pool_phis[candidates])
        state.rows[batch] = candidates[select_top_m(scores, m_k)]
    chosen = state.rows[batch]
    # take gathers rows of a 2-d array several times faster than fancy indexing
    state.phis[batch] = pool_phis.take(chosen, axis=0)
    ts, ys, ps = _assign_and_observe(env, config, ids[chosen], state.phis[batch])
    state.ts[batch], state.ys[batch], state.ps[batch] = ts, ys, ps
    state.yts[batch] = pseudo_outcome_values(ts, ys, ps)
    state.unqueried[chosen] = False
    state.n += m_k
    return scores


@dataclass(frozen=True)
class _ActiveContext:
    """What the active strategy fixes once per run, plus per-round scoring:
    the log's phi rows and o, the overlap deficit of every pool unit, by its
    position in unit-id order."""

    config: ProtocolConfig
    obs_phis: np.ndarray
    o: np.ndarray

    def score_round(self, state, candidates, ids, cand_phis):
        """The round's score table over the unqueried units (pool positions,
        their ids and phi rows), from the stream so far."""
        n, cfg = state.n, self.config
        return score_pool(ids, cand_phis, state.phis[:n], state.yts[:n], self.obs_phis,
                          self.o[candidates], cfg.weights, cfg.estimator_lambda)


def check_config(config, env):
    """Raise ValueError unless an affine randomization has one weight per phi
    coordinate and an active run estimator_lambda > 0 (each round's ridge)."""
    rz, d = config.randomization, env.feature_map.output_dim
    if isinstance(rz, AffinePolicy) and len(rz.weights) != d:
        raise ValueError(f"randomization weights has length {len(rz.weights)}; phi has "
                         f"{d} coordinates")
    if config.strategy == "active" and config.estimator_lambda == 0:
        raise ValueError("the active strategy needs estimator_lambda > 0: each round's "
                         "leverage fit is a ridge on the stream so far")


def run_protocol(config, env, pool_units, obs=None):
    """Run the budget loop on a Pool end to end and fit the final estimator.

    check_config rejects a config that cannot run on env before round 1. A
    Pool holds its units in unit-id order, so the units picked and their draws
    do not depend on the order of its rows. The schedule is fixed before round 1:
    n = min(budget, pool size) queries in batch_sizes [M, ..., M, r]
    (M = max_batch), so a budget above the pool size exhausts it. The stream is
    kept as pool positions plus phi rows, draws and Y~; its xs and unit ids are
    gathered from the pool once at the end, into one read-only RctStream
    (seq 1..n), and one frozen RidgeSolution is fitted on its phi rows with
    config.estimator_lambda. Per-unit draws, score tables and unit_ids carry
    the pool's unit ids. The pool is never modified, and its phi rows (the
    result's pool_phis, in unit-id order) are mapped once per run. No file is
    opened: the score tables leave in the result only. The random strategy's
    rows are the first n entries of one permutation of the pool positions at
    rng_for(seed, 0x73656C). obs is an ObsLog (None or no rows: no log). Only
    the active strategy reads it: it maps the log, fits e_obs and computes
    every pool unit's o once (0 with no log). The final fit is the ridge on
    the stream's IPW pseudo-outcomes, whatever the strategy.
    """
    check_config(config, env)
    ids, xs = pool_units.ids, pool_units.xs
    fmap = env.feature_map
    pool_phis = fmap.apply_many(xs)
    n, m = min(config.budget, len(ids)), config.max_batch
    batch_sizes = [min(m, n - s) for s in range(0, n, m)]
    rows = rng_for(config.seed, 0x73656C).permutation(len(ids))[:n] \
        if config.strategy == "random" else np.empty(n, dtype=np.intp)
    state = RoundState(n=0, rows=rows,
                       phis=np.empty((n, fmap.output_dim)), ts=np.empty(n, dtype=int),
                       ys=np.empty(n), ps=np.empty(n), yts=np.empty(n),
                       unqueried=np.ones(len(ids), dtype=bool))
    context = None
    if config.strategy == "active":
        obs_phis, o = np.zeros((0, fmap.output_dim)), np.zeros(len(ids))
        if obs:
            obs_phis = fmap.apply_many(obs.xs)
            o = overlap_deficit_many(fit_propensity(obs, obs_phis), pool_phis)
        context = _ActiveContext(config, obs_phis, o)

    tables = [run_round(state, m_k, config, env, ids, pool_phis, context)
              for m_k in batch_sizes]

    stream = RctStream(xs=xs.take(state.rows, axis=0), ts=state.ts, ys=state.ys,
                       ps=state.ps, seq=np.arange(1, n + 1))
    solution = fit_ridge_arrays(state.phis, state.yts, config.estimator_lambda)
    return ProtocolResult(solution=solution, stream=stream, phis=state.phis, yts=state.yts,
                          unit_ids=ids[state.rows], scores=tables if context else [],
                          batch_sizes=batch_sizes, pool_phis=pool_phis)


def _rank_texts(eta, grid, grid_texts):
    """The text of each value of eta: grid_texts[k] where its bits equal those
    of grid[k] = k/n, its own repr where not (NaN, +-inf, -0.0, off-grid)."""
    n = len(grid) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.rint(eta * n)
    on_grid = (k >= 0) & (k <= n)  # false on NaN
    k = np.where(on_grid, k, 0).astype(np.intp)
    miss = ~(on_grid & (grid.view(np.int64)[k] == eta.view(np.int64)))
    texts = grid_texts[k]
    texts[miss] = list(map(repr, eta[miss].tolist()))
    return texts.tolist()


def _distinct_texts(columns, fmt):
    """fmt of each value of each column, called once per distinct value by its
    bits (so -0.0 is not 0.0): one list of texts per column."""
    values = np.concatenate(columns)
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(fmt, keys.view(values.dtype).tolist())), dtype=object)
    return [part.tolist() for part in
            np.split(texts[inverse], np.cumsum([len(c) for c in columns[:-1]]))]


def _write_rounds(out_dir, tables, picks, ks):
    """Write rounds ks (from 0) of a run's score dump, as _dump_scores does."""
    rounds = [tables[k] for k in ks]
    id_texts = _distinct_texts([table["id"] for table in rounds], str)
    o_texts = _distinct_texts([table["o"] for table in rounds], repr)
    for k, table, ids, o in zip(ks, rounds, id_texts, o_texts):
        n = len(table)
        grid = np.arange(n + 1) / max(n, 1)
        grid_texts = np.array(list(map(repr, grid.tolist())), dtype=object)
        # repr of Python floats: repr of a numpy float would change the bytes
        columns = [ids]
        for name in table.dtype.names[1:]:
            if name.startswith("eta_"):
                columns.append(_rank_texts(table[name], grid, grid_texts))
            elif name == "o":
                columns.append(o)
            else:
                columns.append(map(repr, table[name].tolist()))
        columns.append(np.where(np.isin(table["id"], picks[k]), "1\r\n", "0\r\n").tolist())
        with open(os.path.join(out_dir, f"scores_round_{k + 1}.csv"), "w", newline="") as fh:
            fh.writelines([",".join(table.dtype.names + ("selected",)) + "\r\n",
                           *map(",".join, zip(*columns))])


def _dump_scores(out_dir, tables, picks):
    """Write a run's score tables, round k as scores_round_<k>.csv (k from 1),
    the ids in picks[k - 1] flagged selected.

    The bytes are csv's excel dialect over the id and the repr of each float
    (no field needs quoting; each row ends in "\r\n"). Each text is repr's,
    but a repr is made once where the run repeats a value: a round of n rows
    formats the n + 1 ranks k/n once and gives an eta value the text of the
    rank whose bits it has, and each process formats each distinct id and
    each distinct o (by its bits, so -0.0 is not 0.0) of its rounds once.
    Every other value is formatted by its own repr.

    The rounds are split over W = min(number of rounds, CPUs in this
    process's affinity mask) processes: W - 1 children made by os.fork write
    rounds w, w + W, ... (w = 1 .. W - 1, from 0) and this process writes
    rounds 0, W, ....  W = 1 (one round, one CPU, or no os.fork or
    os.sched_getaffinity) writes every round here. No file's bytes depend on
    W. A child that fails prints its traceback to stderr and exits nonzero;
    every child is reaped before this returns or raises, and then OSError
    names the rounds of the children that failed, unless this process's own
    share raised first.
    """
    if not tables:
        return
    cpus = len(os.sched_getaffinity(0)) \
        if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    workers = min(len(tables), cpus)
    shares = [range(w, len(tables), workers) for w in range(workers)]
    children = {}
    try:
        for share in shares[1:]:
            pid = os.fork()
            if pid == 0:  # the child leaves through os._exit, never by returning
                status = 1
                try:
                    _write_rounds(out_dir, tables, picks, share)
                    status = 0
                except BaseException:
                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            children[pid] = share
        _write_rounds(out_dir, tables, picks, shares[0])
    finally:
        failed = [k + 1 for pid, share in children.items() if os.waitpid(pid, 0)[1]
                  for k in share]
    if failed:
        raise OSError(f"writing the score dumps of rounds {sorted(failed)} failed")
