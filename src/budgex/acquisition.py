"""Acquisition scoring for pool-based active experimentation.

Three per-candidate signals -- bootstrap-ensemble prediction variance (v),
pool-vs-current domain discriminability (d), and historical overlap deficit
(o) -- are rank-normalized over the current pool and combined into a single
weighted score used for top-m selection.

v comes from a fixed ensemble: MEMBERS ridge fits with the run's penalty, on
resamples of RESAMPLE_FRACTION of the labeled rows drawn from the stream of
(run seed, round k), so replications and seeds resample independently.
d and o come from logistic heads fitted by ridge-penalized IRLS (ESL 4.4):
Newton steps from zero on the weighted mean cross-entropy + (RIDGE / 2) ||w||^2
(bias free), halved while they raise it, until no step component exceeds
TOLERANCE or the step promises a drop below float64's resolution of the loss,
or RuntimeError at MAX_ITER.
"""

from dataclasses import dataclass

import numpy as np

from ._rng import rng_for
from .core import ObsLog, sigmoid
from .estimator import fit_ridge_arrays

# ---------------------------------------------------------------------------
# Logistic heads (shared by domain classifier and propensity model)

RIDGE = 1e-3
TOLERANCE = 1e-8
MAX_ITER = 50


def _fit_logistic(phis, labels, sw):
    """(w, b) of the module's penalized loss under sample weights sw (sum 1);
    one (d+1) x (d+1) solve per Newton step. A step that raises the loss
    (beyond rounding) is halved until it does not, so no step can saturate
    every sigmoid and leave the bias without curvature."""
    phis = np.asarray(phis, dtype=float)
    if not (np.all(np.isfinite(phis)) and np.all(np.isfinite(labels))) \
            or np.all(labels == labels[0]):
        raise ValueError("a logistic head needs finite rows and both classes")
    design = np.vstack([phis.T, np.ones(len(phis))])  # one row per weight, bias last
    penalty = np.append(np.full(phis.shape[1], RIDGE), 0.0)

    def logits_and_loss(theta):
        z = theta @ design
        # labels are 0/1: the cross-entropy is softplus of the signed logit
        return z, sw @ np.logaddexp(0.0, (1.0 - 2.0 * labels) * z) \
            + 0.5 * penalty @ theta**2

    theta = np.zeros(len(design))
    z, current = logits_and_loss(theta)
    for _ in range(MAX_ITER):
        s = sigmoid(z)
        grad = design @ (sw * (s - labels)) + penalty * theta
        hess = (design * (sw * s * (1.0 - s))) @ design.T + np.diag(penalty)
        step = np.linalg.solve(hess, grad)
        # grad @ step, the squared Newton decrement, is twice the drop the step
        # promises; below float64's resolution of the loss no step can help
        if np.max(np.abs(step)) < TOLERANCE or grad @ step <= 1e-15 * current:
            theta -= step
            return theta[:-1], float(theta[-1])
        while (trial := logits_and_loss(theta - step))[1] > current * (1.0 + 1e-12):
            step *= 0.5
        theta, (z, current) = theta - step, trial
    raise RuntimeError(f"logistic head did not converge in {MAX_ITER} Newton steps")


@dataclass(frozen=True)
class LogisticHead:
    """An affine logistic head: the domain classifier (label 1 = target pool)
    or the e_obs propensity model (label 1 = treated in the log)."""

    weights: np.ndarray
    bias: float

    def predict(self, phis):
        return sigmoid(np.atleast_2d(phis) @ self.weights + self.bias)


def train_domain_classifier(pool_phis, current_phis):
    """Fit pool (label 1) vs current sample (label 0) by IRLS on the class-
    balanced mean cross-entropy + (RIDGE / 2) ||w||^2, steps below TOLERANCE
    within MAX_ITER. Balance keeps unequal sizes from faking a shift; the
    penalty keeps w finite where the classes separate perfectly."""
    n1, n0 = len(pool_phis), len(current_phis)
    if n1 == 0 or n0 == 0:
        raise ValueError("both classes must be nonempty")
    return LogisticHead(*_fit_logistic(np.vstack([pool_phis, current_phis]),
                                       np.repeat([1.0, 0.0], [n1, n0]),
                                       np.repeat([0.5 / n1, 0.5 / n0], [n1, n0])))


def fit_propensity(obs, phis):
    """Fit e_obs on an ObsLog (labels obs.ts) from its phi rows, mapped by the
    caller; randomized records are rejected. IRLS on the mean cross-entropy +
    (RIDGE / 2) ||w||^2, steps below TOLERANCE within MAX_ITER; the penalty
    keeps e_obs inside (0, 1) on a log that phi separates perfectly."""
    if not isinstance(obs, ObsLog):
        raise ValueError("propensity model must be trained on an OBS log only")
    if not len(obs) or len(phis) != len(obs):
        raise ValueError("need a nonempty observational log and one phi row per row")
    return LogisticHead(*_fit_logistic(phis, obs.ts, np.full(len(obs), 1.0 / len(obs))))


def overlap_deficit_many(propensity, phis):
    """o_u = 2 |e_obs(phi_u) - 0.5| per row; near 1 where history was deterministic."""
    return 2.0 * np.abs(propensity.predict(phis) - 0.5)


# ---------------------------------------------------------------------------
# Ensemble uncertainty

MEMBERS = 15
RESAMPLE_FRACTION = 0.8


def ensemble_variance(labeled_phis, labeled_yts, candidate_phis, lam, seed, k):
    """Population variance of member CATE predictions per candidate.

    MEMBERS ridge fits with penalty lam, each on a bootstrap resample of
    RESAMPLE_FRACTION of the labeled pseudo-outcome set, drawn from the
    stream of (run seed, round k). With no labeled data, every member
    predicts 0 (cold start).
    """
    n = len(labeled_phis)
    if n == 0:
        return np.zeros(len(candidate_phis))
    rng = rng_for(seed, 0x656E73, k)
    m = max(1, int(round(RESAMPLE_FRACTION * n)))
    preds = np.empty((MEMBERS, len(candidate_phis)))
    for j in range(MEMBERS):
        idx = rng.integers(0, n, size=m)
        preds[j] = candidate_phis @ fit_ridge_arrays(labeled_phis[idx],
                                                     labeled_yts[idx], lam).theta_hat
    return preds.var(axis=0)


# ---------------------------------------------------------------------------
# Rank normalization and composite score


def rank_normalize(values):
    """eta(a_u) = (1/n) * #{a_u' <= a_u}; ties share the <=-count rank."""
    v = np.asarray(values, dtype=float)
    if len(v) == 0:
        raise ValueError("cannot rank an empty pool")
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    # for each value, the number of entries <= it
    counts = np.searchsorted(sorted_v, v, side="right")
    return counts / len(v)


@dataclass(frozen=True)
class AcquisitionWeights:
    alpha: float = 0.5
    beta: float = 1.0
    gamma: float = 0.7

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("weights must be nonnegative")
        if self.alpha == self.beta == self.gamma == 0:
            raise ValueError("at least one acquisition weight must be positive")


# One row per scored unit; the field names are the scores_round_*.csv columns.
SCORE_DTYPE = np.dtype([("id", np.int64), ("v", float), ("d", float), ("o", float),
                        ("eta_v", float), ("eta_d", float), ("eta_o", float),
                        ("S", float)])


def composite_scores(unit_ids, v, d, o, weights):
    """Rank-normalize the raw signals over the pool and combine into a score table."""
    table = np.empty(len(unit_ids), dtype=SCORE_DTYPE)
    table["id"] = unit_ids
    for raw, value in (("v", v), ("d", d), ("o", o)):
        table[raw] = value
        table["eta_" + raw] = rank_normalize(value)
    table["S"] = (weights.alpha * table["eta_v"] + weights.beta * table["eta_d"]
                  + weights.gamma * table["eta_o"])
    return table


def select_top_m(table, m):
    """Rows of the m highest scores; exact ties break by lowest unit id."""
    if m > len(table):
        raise ValueError(f"m = {m} exceeds remaining pool size {len(table)}")
    return np.lexsort((table["id"], -table["S"]))[:m]


def score_pool(ids, cand_phis, labeled_phis, labeled_yts, obs_phis, propensity,
               weights, lam, seed, k):
    """Round k's scoring in the run of this seed: train round models, score
    every candidate.

    ids and cand_phis are the candidates (the unqueried units) as unit ids
    and feature rows, already mapped; labeled_phis and labeled_yts are the
    randomized stream so far as features and pseudo-outcomes; lam is the
    run's ridge penalty.
    """
    # v: bootstrap ensemble over the labeled randomized stream
    v = ensemble_variance(labeled_phis, labeled_yts, cand_phis, lam, seed, k)

    # d: pool vs obs + rct, retrained from zero each round
    current = np.vstack([obs_phis, labeled_phis])
    d = train_domain_classifier(cand_phis, current).predict(cand_phis) if len(current) \
        else np.full(len(ids), 0.5)

    # o: overlap deficit from the OBS-trained propensity head
    o = overlap_deficit_many(propensity, cand_phis) if propensity is not None \
        else np.zeros(len(ids))

    return composite_scores(ids, v, d, o, weights)
