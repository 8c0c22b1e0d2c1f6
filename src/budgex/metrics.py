"""Evaluation and empirical verification of the statistical guarantees.

PEHE against ground truth, normalized AUUC on randomized held-out data,
deviation-bound coverage audits and martingale-CLT normality diagnostics, all
in phi: each sample is mapped once, and theta_hat and theta* read its rows.
The log-log budget scaling slope is fitted by `budgex sweep`'s summary.
`replicate` is the one place a replication is drawn (pool at derive_seed(seed,
0x706C), log at derive_seed(seed, 0x6F62) for active runs only): sweep cells
call it at their cell seed, the audits at derive_seed(master_seed, 0x726570, r).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._rng import derive_seed, rng_for
from .envs import sample_obs, sample_pool
from .estimator import (ConfidenceParams, beta_bound, default_sigma,
                        ellipsoid_radius, sandwich_from_arrays)
from .protocol import run_protocol


def pehe(theta_hat, env, phis):
    """Root-mean-square CATE error of theta_hat over phi rows drawn from P_X."""
    if len(phis) == 0:
        raise ValueError("evaluation sample is empty")
    err = phis @ theta_hat - phis @ env.theta_star
    return float(np.sqrt(np.mean(err**2)))


def pehe_exact_segments(theta_hat, env):
    """Exact marginal PEHE for segment environments (no sampling error)."""
    phis = env.feature_map.apply_many(env.marginal.support_points())
    probs = np.asarray(env.marginal.probs)
    err = phis @ theta_hat - phis @ env.theta_star
    return float(np.sqrt(np.sum(probs * err**2)))


# ---------------------------------------------------------------------------
# Uplift curve / normalized AUUC


@dataclass(frozen=True)
class UpliftCurve:
    gains: np.ndarray  # f(1..N)
    auuc_normalized: float


class ZeroGlobalLiftError(ValueError):
    """f(N) = 0: the normalized area is undefined."""


def uplift_curve(scores, ts, ys, ids=None):
    """Cumulative incremental gain at each rank, then the normalized area.

    Units are sorted by descending score (ties by ascending id). Ranks where
    either cumulative arm is empty contribute f(k) = 0.
    """
    scores = np.asarray(scores, dtype=float)
    ts = np.asarray(ts)
    ys = np.asarray(ys, dtype=float)
    n = len(scores)
    if n < 2:
        raise ValueError("need at least 2 units")
    ids = np.arange(n) if ids is None else np.asarray(ids)
    order = np.lexsort((ids, -scores))
    t_sorted = ts[order]
    y_sorted = ys[order]
    nt = np.cumsum(t_sorted)
    nc = np.cumsum(1 - t_sorted)
    yt = np.cumsum(y_sorted * t_sorted)
    yc = np.cumsum(y_sorted * (1 - t_sorted))
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (yt / nt - yc / nc) * (nt + nc)
    f = np.where((nt == 0) | (nc == 0), 0.0, f)
    if f[-1] == 0.0:
        raise ZeroGlobalLiftError("global lift f(N) is zero; AUUC undefined")
    auuc = float(np.sum(f / abs(f[-1])) / n)
    return UpliftCurve(gains=f, auuc_normalized=auuc)


def randomized_eval_set(env, n, seed):
    """A fresh holdout (phi, t, y) with t ~ Bern(1/2), for AUUC evaluation."""
    rng = rng_for(seed, 0x6576616C)
    phis = env.feature_map.apply_many(env.sample_x(n, rng))
    ts = (rng.random(n) < 0.5).astype(int)
    ys = env.draw_outcomes(phis, ts, rng.random(n))
    return phis, ts, ys


def auuc(theta_hat, env, n, seed):
    """Normalized AUUC of the scores <theta_hat, phi> on a randomized holdout
    of n units drawn at seed; NaN when the holdout's global lift is zero."""
    phis, ts, ys = randomized_eval_set(env, n, seed)
    try:
        return uplift_curve(phis @ theta_hat, ts, ys).auuc_normalized
    except ZeroGlobalLiftError:
        return float("nan")


# ---------------------------------------------------------------------------
# Replication harnesses


def replicate(env, policy, shift, config, n_pool, n_obs):
    """One protocol run on a fresh pool, seeded by config.seed; the log is
    drawn only for an active config with a policy and n_obs > 0."""
    pool = sample_pool(env, n_pool, derive_seed(config.seed, 0x706C))
    obs = (sample_obs(env, policy, shift, n_obs, derive_seed(config.seed, 0x6F62))
           if config.strategy == "active" and policy is not None and n_obs > 0
           else None)
    return run_protocol(config, env, pool_units=pool, obs=obs)


def _audit_runs(env, config, n_pool, replications, master_seed):
    """The audits' replications, lazily: replication r runs without a log at
    seed derive_seed(master_seed, 0x726570, r)."""
    if replications < 1:
        raise ValueError(f"need at least 1 replication, got {replications}")
    return (replicate(env, None, None,
                      replace(config, seed=derive_seed(master_seed, 0x726570, r)),
                      n_pool, 0)
            for r in range(replications))


@dataclass(frozen=True)
class BoundCheckResult:
    replications: int
    violations: int
    delta: float
    radii: np.ndarray
    betas: np.ndarray
    pehe_values: np.ndarray
    pehe_bounds: np.ndarray

    @property
    def rate(self):
        return self.violations / self.replications


def bound_violation_audit(env, config, n_pool, replications, delta, master_seed=0):
    """Count replications where ||theta_hat - theta*||_V exceeds the width
    beta, with sigma = default_sigma(config.bounds) and S = env.S.

    Also records, per replication, the measured PEHE over the pool and the
    bound beta * sqrt(mean pool leverage) for the PEHE-bound check.
    """
    runs = _audit_runs(env, config, n_pool, replications, master_seed)
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if config.estimator_lambda <= 0:
        raise ValueError("the coverage audit requires lambda > 0")
    params = ConfidenceParams(sigma=default_sigma(config.bounds), S=env.S, delta=delta)
    radii = np.empty(replications)
    betas = np.empty(replications)
    pehes = np.empty(replications)
    pbounds = np.empty(replications)
    for r, result in enumerate(runs):
        sol, pool_phis = result.solution, result.pool_phis
        radii[r] = ellipsoid_radius(sol, env.theta_star)
        betas[r] = beta_bound(params, sol)
        lev = np.einsum("ij,ij->i", pool_phis,
                        np.linalg.solve(sol.V, pool_phis.T).T)
        pehes[r] = pehe(sol.theta_hat, env, pool_phis)
        pbounds[r] = betas[r] * np.sqrt(max(np.mean(lev), 0.0))
    violations = int(np.sum(radii > betas))
    return BoundCheckResult(replications=replications, violations=violations,
                            delta=delta, radii=radii, betas=betas,
                            pehe_values=pehes, pehe_bounds=pbounds)


@dataclass(frozen=True)
class NormalityDiagnostic:
    z_scores: np.ndarray
    ks_statistic: float
    small_budget_warning: bool


def clt_diagnostic(env, config, n_pool, replications, x, master_seed=0):
    """Standardized errors sqrt(B)(tau_hat - tau)/se across replications."""
    runs = _audit_runs(env, config, n_pool, replications, master_seed)
    phi = env.feature_map.apply_many([x])[0]
    if np.allclose(phi, 0.0):
        raise ValueError("phi(x) = 0: asymptotic variance degenerates")
    tau_x = float(phi @ env.theta_star)
    zs = np.empty(replications)
    for r, result in enumerate(runs):
        sw = sandwich_from_arrays(result.phis, result.yts, result.solution)
        se2 = float(phi @ sw.avar @ phi)
        b = len(result.stream)
        tau_hat = float(phi @ result.solution.theta_hat)
        zs[r] = np.sqrt(b) * (tau_hat - tau_x) / np.sqrt(se2)
    ks = ks_distance_normal(zs)
    small_b = len(result.stream) < 100 * env.feature_map.output_dim
    return NormalityDiagnostic(z_scores=zs, ks_statistic=ks,
                               small_budget_warning=small_b)


def ks_distance_normal(zs):
    """Two-sided one-sample Kolmogorov-Smirnov distance of zs from N(0, 1):
    max_i max(i/n - F(z_(i)), F(z_(i)) - (i-1)/n) over the sorted sample."""
    z = np.sort(np.asarray(zs, dtype=float))
    n = len(z)
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    return float(max(np.max(np.arange(1.0, n + 1) / n - cdf),
                     np.max(cdf - np.arange(0.0, n) / n)))
