"""Round-based budgeted experimentation loop.

A run is a batch schedule fixed before round 1: n = min(budget, pool size)
queries in rounds of m_k = min(M, n - queried so far), i.e. [M, ..., M, r].
Round k selects m_k unqueried pool positions (acquisition score or uniform at
random), randomizes treatment with a clipped assignment policy, draws outcomes
from the environment, and appends the positions, draws and pseudo-outcomes to
the chronological stream. Treatment and outcome draws use dedicated per-unit
streams keyed by (seed, unit id, purpose), so selection order can never alter
an individual unit's assignment.
"""

import os
from dataclasses import dataclass
from operator import index

import numpy as np

from ._rng import OUTCOME, TREATMENT, rng_for, unit_uniform
from .acquisition import AcquisitionWeights, fit_propensity, score_pool, select_top_m
from .core import PropensityBounds, RctStream
from .estimator import fit_ridge_arrays, pseudo_outcome_values, RidgeSolution

DEFAULT_BOUNDS = PropensityBounds(0.2, 0.8)


def clip_probability(raw, bounds):
    """Clip(z, f_min, f_max) = min(max(z, f_min), f_max)."""
    return np.minimum(np.maximum(raw, bounds.f_min), bounds.f_max)


def _variance_optimal(a, bm):
    """sqrt(A) / (sqrt(A) + sqrt(B)), and 0.5 where both moments vanish."""
    denom = np.sqrt(a) + np.sqrt(bm)
    return np.where(denom > 0, np.sqrt(a) / np.where(denom > 0, denom, 1.0), 0.5)


def optimal_p(a, bm, bounds):
    """Variance-optimal assignment sqrt(A) / (sqrt(A) + sqrt(B)), clipped."""
    a = np.asarray(a, dtype=float)
    bm = np.asarray(bm, dtype=float)
    if np.any(a < 0) or np.any(bm < 0):
        raise ValueError("second moments must be nonnegative")
    return clip_probability(_variance_optimal(a, bm), bounds)


@dataclass(frozen=True)
class ConstantPolicy:
    p: float = 0.5

    def raw(self, phis, env):
        return np.full(len(phis), self.p)


@dataclass(frozen=True)
class AffinePolicy:
    weights: tuple
    bias: float = 0.5

    def raw(self, phis, env):
        return self.bias + phis @ np.asarray(self.weights)


@dataclass(frozen=True)
class VarianceOptimalPolicy:
    """Oracle policy on the env's second moments E[Y(t)^2 | phi], which for
    binary Y are its arm means mu_t(phi)."""

    def raw(self, phis, env):
        return _variance_optimal(*env.arm_means(phis))


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
    selection order, beside its draws (ts, ys, ps) and pseudo-outcome Y~ (yts);
    unqueried is a mask over pool positions.
    """

    n: int
    rows: np.ndarray
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
    pool_phis: np.ndarray  # the phi row of every pool unit, in pool order


def _assign_and_observe(env, config, ids, phis):
    """Randomize treatments and draw outcomes for a batch of unit ids and phi rows."""
    raw = config.randomization.raw(phis, env)
    ps = clip_probability(raw, config.bounds)
    u_t = unit_uniform(config.seed, ids, TREATMENT)
    ts = (u_t < ps).astype(int)
    u_y = unit_uniform(config.seed, ids, OUTCOME)
    ys = env.draw_outcomes(phis, ts, u_y)
    return ts, ys, ps


def run_round(state, k, m_k, config, env, pool, pool_phis, context):
    """Round k (from 0): choose m_k unqueried pool positions, randomize and
    observe them into the next m_k rows of state. Returns the round's score
    table, or None for the random strategy."""
    candidates = np.flatnonzero(state.unqueried)
    scores = None
    if config.strategy == "random":
        rng = rng_for(config.seed, 0x73656C, k)
        chosen = np.sort(rng.choice(candidates, size=m_k, replace=False))
    else:
        # scored in unit-id order: float sums and BLAS kernels round by row
        # position, and ranks turn those last-digit differences into picks
        candidates = candidates[np.argsort(pool.ids[candidates], kind="stable")]
        scores = context.score_round(state, k, pool.ids[candidates],
                                     pool_phis[candidates])
        chosen = candidates[select_top_m(scores, m_k)]

    batch = slice(state.n, state.n + m_k)
    state.rows[batch] = chosen
    # take gathers rows of a 2-d array several times faster than fancy indexing
    ts, ys, ps = _assign_and_observe(env, config, pool.ids[chosen],
                                     pool_phis.take(chosen, axis=0))
    state.ts[batch], state.ys[batch], state.ps[batch] = ts, ys, ps
    state.yts[batch] = pseudo_outcome_values(ts, ys, ps)
    state.unqueried[chosen] = False
    state.n += m_k
    return scores


@dataclass(frozen=True)
class _ActiveContext:
    """The pool's and the log's phi rows and the e_obs head, plus per-round
    scoring for the active strategy."""

    config: ProtocolConfig
    pool_phis: np.ndarray
    obs_phis: np.ndarray
    propensity: object

    def score_round(self, state, k, ids, cand_phis):
        """Round k's score table over the unqueried units (ids, phi rows), from
        the stream so far."""
        n, cfg = state.n, self.config
        return score_pool(ids, cand_phis, self.pool_phis.take(state.rows[:n], axis=0),
                          state.yts[:n], self.obs_phis, self.propensity, cfg.weights,
                          cfg.estimator_lambda, cfg.seed, k)


def run_protocol(config, env, pool_units, obs=None, out_dir=None):
    """Run the budget loop on a Pool end to end and fit the final estimator.

    The schedule is fixed before round 1: n = min(budget, pool size) queries in
    batch_sizes [M, ..., M, r] (M = max_batch), so a budget above the pool size
    exhausts it. The stream is kept as pool positions plus draws and Y~; its xs,
    phis and unit ids are gathered from the pool once at the end, into one
    read-only RctStream (seq 1..n) and one frozen RidgeSolution fitted with
    config.estimator_lambda. Per-unit draws, score dumps and unit_ids carry the
    pool's unit ids. The pool is never modified, and its phi rows (the result's
    pool_phis) are mapped once per run.
    obs is an ObsLog (None or no rows: no log). Only the active strategy
    reads it: it maps the log and fits e_obs once, for scoring. The final fit
    is the ridge on the stream's IPW pseudo-outcomes, whatever the strategy.
    """
    pool = pool_units
    fmap = env.feature_map
    pool_phis = fmap.apply_many(pool.xs)
    n, m = min(config.budget, len(pool)), config.max_batch
    batch_sizes = [min(m, n - s) for s in range(0, n, m)]
    state = RoundState(n=0, rows=np.empty(n, dtype=np.intp), ts=np.empty(n, dtype=int),
                       ys=np.empty(n), ps=np.empty(n), yts=np.empty(n),
                       unqueried=np.ones(len(pool), dtype=bool))
    context = None
    if config.strategy == "active":
        obs_phis, propensity = np.zeros((0, fmap.output_dim)), None
        if obs:
            obs_phis = fmap.apply_many(obs.xs)
            propensity = fit_propensity(obs, obs_phis)
        context = _ActiveContext(config, pool_phis, obs_phis, propensity)

    all_scores = []
    for k, m_k in enumerate(batch_sizes):
        scores = run_round(state, k, m_k, config, env, pool, pool_phis, context)
        if scores is not None:
            all_scores.append(scores)
            if out_dir is not None:
                batch = state.rows[state.n - m_k:state.n]
                _dump_scores(out_dir, k + 1, scores, pool.ids[batch])

    rows = state.rows
    stream = RctStream(xs=pool.xs.take(rows, axis=0), ts=state.ts, ys=state.ys,
                       ps=state.ps, seq=np.arange(1, n + 1))
    phis = pool_phis.take(rows, axis=0)
    solution = fit_ridge_arrays(phis, state.yts, config.estimator_lambda)
    return ProtocolResult(solution=solution, stream=stream, phis=phis, yts=state.yts,
                          unit_ids=pool.ids[rows], scores=all_scores,
                          batch_sizes=batch_sizes, pool_phis=pool_phis)


def _dump_scores(out_dir, round_index, table, selected_ids):
    path = os.path.join(out_dir, f"scores_round_{round_index}.csv")
    names = table.dtype.names
    # Column by column, in csv's excel dialect: no field needs quoting, and each
    # row ends in "\r\n", carried by its selected flag. repr of Python floats:
    # repr of a numpy float would change the bytes.
    columns = [map(str, table["id"].tolist()),
               *(map(repr, table[name].tolist()) for name in names[1:]),
               np.where(np.isin(table["id"], selected_ids), "1\r\n", "0\r\n").tolist()]
    with open(path, "w", newline="") as fh:
        fh.writelines([",".join(names + ("selected",)) + "\r\n",
                       *map(",".join, zip(*columns))])
