"""Acquisition scoring for pool-based active experimentation.

Three per-candidate signals -- bootstrap-ensemble prediction variance (v),
pool-vs-current domain discriminability (d), and historical overlap deficit
(o) -- are rank-normalized over the current pool and combined into a single
weighted score used for top-m selection.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._rng import rng_for
from .core import ObsLog, sigmoid
from .estimator import fit_ridge_arrays

# ---------------------------------------------------------------------------
# Logistic heads (shared by domain classifier and propensity model)


def _train_logistic(phis, labels, lr, steps, sample_weight=None):
    """Full-batch gradient descent on (weighted) mean cross-entropy, zero init."""
    w = np.zeros(phis.shape[1])
    b = 0.0
    sw = np.ones(len(labels)) if sample_weight is None else np.asarray(sample_weight)
    sw = sw / sw.sum()
    for _ in range(steps):
        s = sigmoid(phis @ w + b)
        g = (s - labels) * sw
        w -= lr * (phis.T @ g)
        b -= lr * g.sum()
    return w, b


@dataclass
class DomainClassifier:
    """Affine logistic head scoring membership in the target pool (label 1)."""

    weights: np.ndarray
    bias: float

    def score(self, phis):
        return sigmoid(np.atleast_2d(phis) @ self.weights + self.bias)


@dataclass(frozen=True)
class DomainTrainConfig:
    learning_rate: float = 1e-3
    max_steps: int = 100


def train_domain_classifier(pool_phis, current_phis, config=DomainTrainConfig()):
    """Fit pool (label 1) vs current training sample (label 0)."""
    if len(pool_phis) == 0 or len(current_phis) == 0:
        raise ValueError("both classes must be nonempty")
    phis = np.vstack([pool_phis, current_phis])
    labels = np.concatenate([np.ones(len(pool_phis)), np.zeros(len(current_phis))])
    # Balance the classes so unequal pool/history sizes do not masquerade
    # as a distribution shift signal.
    sw = np.concatenate(
        [
            np.full(len(pool_phis), 0.5 / len(pool_phis)),
            np.full(len(current_phis), 0.5 / len(current_phis)),
        ]
    )
    w, b = _train_logistic(
        phis, labels, config.learning_rate, config.max_steps, sample_weight=sw
    )
    return DomainClassifier(weights=w, bias=b)


@dataclass
class PropensityModel:
    """e_obs head; must only ever be fitted on observational records."""

    weights: np.ndarray
    bias: float
    trained_on: str = "obs"

    def predict(self, phis):
        return sigmoid(np.atleast_2d(phis) @ self.weights + self.bias)


def fit_propensity(obs, phis, lr=1.0, steps=2000):
    """Fit e_obs on an ObsLog (labels obs.ts) from its phi rows, mapped by the
    caller; randomized records are rejected."""
    if not isinstance(obs, ObsLog):
        raise ValueError("propensity model must be trained on an OBS log only")
    if not len(obs) or len(phis) != len(obs):
        raise ValueError("need a nonempty observational log and one phi row per row")
    w, b = _train_logistic(phis, obs.ts.astype(float), lr, steps)
    return PropensityModel(weights=w, bias=b, trained_on="obs")


def overlap_deficit_many(propensity, phis):
    """o_u = 2 |e_obs(phi_u) - 0.5| per row; near 1 where history was deterministic."""
    if propensity.trained_on != "obs":
        raise ValueError("overlap deficit requires an OBS-trained propensity model")
    return 2.0 * np.abs(propensity.predict(phis) - 0.5)


# ---------------------------------------------------------------------------
# Ensemble uncertainty


@dataclass(frozen=True)
class EnsembleSpec:
    n_members: int = 15
    resample_fraction: float = 0.8
    perturb_lambda: float = 0.0
    bootstrap: bool = True
    lam: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_members < 2:
            raise ValueError("need at least 2 ensemble members")
        if not (0.0 < self.resample_fraction <= 1.0):
            raise ValueError("resample_fraction must lie in (0, 1]")


def ensemble_variance(labeled_phis, labeled_yts, candidate_phis, spec):
    """Population variance of member CATE predictions per candidate.

    Members are ridge fits on bootstrap resamples of the labeled pseudo-
    outcome set. With no labeled data, every member predicts 0 (cold start).
    """
    n = len(labeled_phis)
    n_cand = len(candidate_phis)
    if n == 0:
        return np.zeros(n_cand)
    rng = rng_for(spec.seed, 0x656E73, n)
    preds = np.empty((spec.n_members, n_cand))
    m = max(1, int(round(spec.resample_fraction * n)))
    for j in range(spec.n_members):
        if spec.bootstrap:
            idx = rng.integers(0, n, size=m)
        else:
            idx = np.arange(n)
        lam_j = spec.lam
        if spec.perturb_lambda > 0:
            lam_j = spec.lam * np.exp(spec.perturb_lambda * rng.standard_normal())
        sol = fit_ridge_arrays(labeled_phis[idx], labeled_yts[idx], lam_j)
        preds[j] = candidate_phis @ sol.theta_hat
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
               weights, ensemble_spec, domain_config=DomainTrainConfig(),
               round_seed=0):
    """One round of scoring: train round models, score every candidate.

    ids and cand_phis are the candidates (the unqueried units) as unit ids
    and feature rows, already mapped; labeled_phis and labeled_yts are the
    randomized stream so far as features and pseudo-outcomes.
    """
    # v: bootstrap ensemble over the labeled randomized stream
    spec = replace(ensemble_spec, seed=ensemble_spec.seed + round_seed)
    v = ensemble_variance(labeled_phis, labeled_yts, cand_phis, spec)

    # d: pool vs obs + rct, retrained from zero each round
    current_phis = obs_phis if not len(labeled_phis) else (
        np.vstack([obs_phis, labeled_phis]) if len(obs_phis) else labeled_phis)
    if len(current_phis) == 0:
        d = np.full(len(ids), 0.5)
    else:
        clf = train_domain_classifier(cand_phis, current_phis, domain_config)
        d = clf.score(cand_phis)

    # o: overlap deficit from the OBS-trained propensity head
    o = overlap_deficit_many(propensity, cand_phis) if propensity is not None \
        else np.zeros(len(ids))

    return composite_scores(ids, v, d, o, weights)
