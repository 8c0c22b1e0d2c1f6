"""Round-based budgeted experimentation loop.

Each round sizes a batch m_k = min(M, remaining budget), selects candidates
(acquisition score or uniform at random), randomizes treatment with a clipped
assignment policy, draws outcomes from the environment, and appends the new
quadruples to the chronological stream. Treatment and outcome draws use
dedicated per-unit streams keyed by (seed, unit id, purpose), so selection
order can never alter an individual unit's assignment.
"""

import os
from dataclasses import dataclass

import numpy as np

from ._rng import OUTCOME, TREATMENT, rng_for, unit_uniform
from .acquisition import AcquisitionWeights, fit_propensity, score_pool, select_top_m
from .core import PropensityBounds, RctStream
from .estimator import (compute_alignment_weights, fit_ridge_arrays,
                        pseudo_outcome_values, RidgeSolution)

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

    def raw(self, xs, phis, env):
        return np.full(len(phis), self.p)


@dataclass(frozen=True)
class AffinePolicy:
    weights: tuple
    bias: float = 0.5

    def raw(self, xs, phis, env):
        return self.bias + phis @ np.asarray(self.weights)


@dataclass(frozen=True)
class VarianceOptimalPolicy:
    """Uses the environment's conditional second moments (oracle policy)."""

    def raw(self, xs, phis, env):
        return _variance_optimal(*env.second_moments(xs))


@dataclass(frozen=True)
class ProtocolConfig:
    budget: int
    max_batch: int = 1_000_000
    bounds: PropensityBounds = DEFAULT_BOUNDS
    randomization: object = ConstantPolicy(0.5)
    strategy: str = "active"  # "active" | "random"
    weights: AcquisitionWeights = AcquisitionWeights()
    estimator_lambda: float = 1.0
    mode: str = "theory"  # "theory" | "fusion"
    seed: int = 0

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.strategy not in ("active", "random"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.mode not in ("theory", "fusion"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class RoundState:
    """The randomized stream so far, in arrays preallocated to the budget.

    Rows [0, n_records) are filled; unqueried is a mask over pool positions.
    """

    k: int
    n_records: int
    ids: np.ndarray
    xs: np.ndarray
    phis: np.ndarray
    ts: np.ndarray
    ys: np.ndarray
    ps: np.ndarray
    unqueried: np.ndarray

    @staticmethod
    def empty(capacity, pool, dim):
        return RoundState(k=0, n_records=0,
                          ids=np.empty(capacity, dtype=np.int64),
                          xs=np.empty((capacity, pool.xs.shape[1])),
                          phis=np.empty((capacity, dim)),
                          ts=np.empty(capacity, dtype=int),
                          ys=np.empty(capacity), ps=np.empty(capacity),
                          unqueried=np.ones(len(pool), dtype=bool))


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


def _assign_and_observe(env, config, ids, xs, phis):
    """Randomize treatments and draw outcomes for a selected batch."""
    raw = config.randomization.raw(xs, phis, env)
    ps = clip_probability(raw, config.bounds)
    u_t = unit_uniform(config.seed, ids, TREATMENT)
    ts = (u_t < ps).astype(int)
    u_y = unit_uniform(config.seed, ids, OUTCOME)
    ys = env.draw_outcomes(xs, ts, u_y)
    return ts, ys, ps


def run_round(state, config, env, pool, pool_phis, context):
    """Execute one selection/experimentation round, mutating state."""
    remaining = config.budget - state.n_records
    if remaining <= 0:
        return state, None
    candidates = np.flatnonzero(state.unqueried)
    if len(candidates) == 0:
        return state, None
    m_k = min(config.max_batch, remaining, len(candidates))

    scores = None
    if config.strategy == "random":
        rng = rng_for(config.seed, 0x73656C, state.k)
        chosen = np.sort(rng.choice(candidates, size=m_k, replace=False))
    else:
        scores = context.score_round(state, pool.ids[candidates],
                                     pool_phis[candidates])
        chosen = candidates[select_top_m(scores, m_k)]

    ids, xs, phis = pool.ids[chosen], pool.xs[chosen], pool_phis[chosen]
    batch = slice(state.n_records, state.n_records + m_k)
    state.ids[batch] = ids
    state.xs[batch] = xs
    state.phis[batch] = phis
    state.ts[batch], state.ys[batch], state.ps[batch] = \
        _assign_and_observe(env, config, ids, xs, phis)
    state.n_records += m_k
    state.unqueried[chosen] = False
    state.k += 1
    return state, scores


@dataclass(frozen=True)
class _ActiveContext:
    """The log's phi rows and e_obs head, plus per-round scoring for the active strategy."""

    config: ProtocolConfig
    obs_phis: np.ndarray
    propensity: object

    def score_round(self, state, ids, cand_phis):
        """Score table over the unqueried units (ids, phi rows), from the stream so far."""
        n = state.n_records
        labeled_yts = pseudo_outcome_values(state.ts[:n], state.ys[:n], state.ps[:n])
        cfg = self.config
        return score_pool(ids, cand_phis, state.phis[:n], labeled_yts, self.obs_phis,
                          self.propensity, cfg.weights, cfg.estimator_lambda,
                          cfg.seed, state.k)


def run_protocol(config, env, pool_units, obs=None, out_dir=None):
    """Run the budget loop on a Pool end to end and fit the final estimator.

    Selection works in positions of pool_units; the per-unit random draws,
    the score dumps and the result's unit_ids carry the pool's unit ids. The
    loop fills budget-sized arrays in place; the result holds them as one
    read-only RctStream (seq 1..n) and one frozen RidgeSolution fitted with
    config.estimator_lambda. The pool itself is never modified. Its phi rows
    (the result's pool_phis) are mapped once for scoring, assignment and the
    final fit: one phi per unit per run.
    obs is an ObsLog (None or no rows: no log). A run that reads it, active
    or fusion, maps it and fits e_obs once, for scoring and fusion weights.
    """
    pool = pool_units
    if config.mode == "fusion" and not obs:
        raise ValueError("fusion mode requires an observational log")

    fmap = env.feature_map
    pool_phis = fmap.apply_many(pool.xs)
    state = RoundState.empty(min(config.budget, len(pool)), pool, fmap.output_dim)
    obs_phis, propensity = np.zeros((0, fmap.output_dim)), None
    if obs and (config.strategy == "active" or config.mode == "fusion"):
        obs_phis = fmap.apply_many(obs.xs)
        propensity = fit_propensity(obs, obs_phis)
    context = _ActiveContext(config, obs_phis, propensity) \
        if config.strategy == "active" else None

    all_scores = []
    batch_sizes = []
    while state.n_records < config.budget:
        before = state.n_records
        state, scores = run_round(state, config, env, pool, pool_phis, context)
        gained = state.n_records - before
        if gained == 0:
            break  # pool exhausted
        batch_sizes.append(gained)
        if scores is not None:
            all_scores.append(scores)
            if out_dir is not None:
                _dump_scores(out_dir, len(batch_sizes), scores,
                             state.ids[before:state.n_records])

    n = state.n_records
    stream = RctStream(xs=state.xs[:n], ts=state.ts[:n], ys=state.ys[:n],
                       ps=state.ps[:n], seq=np.arange(1, n + 1))
    phis = state.phis[:n]
    yts = pseudo_outcome_values(stream.ts, stream.ys, stream.ps)
    weights = compute_alignment_weights(phis, stream.ts, propensity)[1] \
        if config.mode == "fusion" else None
    solution = fit_ridge_arrays(phis, yts, config.estimator_lambda, weights=weights)

    return ProtocolResult(solution=solution, stream=stream, phis=phis, yts=yts,
                          unit_ids=state.ids[:n], scores=all_scores,
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
