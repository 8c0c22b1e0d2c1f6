"""Acquisition scoring for pool-based active experimentation.

Three per-candidate signals -- leverage under the randomized design (v),
the pool-vs-current density ratio (d), and historical overlap deficit
(o) -- are rank-normalized over the current pool and combined into a single
weighted score used for top-m selection. v and d change with the stream, so
each round computes them; o reads a unit's phi row and the log only, so a run
computes it once per pool unit (0 with no log), a column that each round's
score_pool takes for its candidates.

v is the leverage phi^T V^-1 phi, with V = lam I + sum_t phi_t phi_t^T over the
randomized stream so far: the quantity under the root of the self-normalized
width beta ||phi||_V^-1 (Abbasi-Yadkori, Pal & Szepesvari 2011). It grows in
every direction that no labeled row spans. The round's ridge fit stays only for
its V, and v, d and o read x and the log's treatments, never a randomized
outcome: selection reads no Y~. So the CLT audit cannot test outcome-adaptive
selection until an outcome-dependent variant of v exists.
d is the uLSIF density ratio pool / current (Kanamori, Hido & Sugiyama 2009),
one solve per round from the current class's psi_gram: a run forms the log's
once and a round adds the stream's. Only o uses IRLS (ESL 4.4), for the log's
e_obs head, whose (weights, bias) fit_propensity returns: Newton steps from
zero on the mean cross-entropy + (RIDGE / 2) ||w||^2 (bias free), halved while
they raise it, until no step component exceeds TOLERANCE or the step promises
a drop below float64's resolution of the loss, or RuntimeError at MAX_ITER.
"""

from dataclasses import dataclass

import numpy as np

from .core import ObsLog, sigmoid
from .estimator import fit_ridge_arrays, pool_leverage

# ---------------------------------------------------------------------------
# Logistic propensity head (o)

RIDGE = 1e-3
TOLERANCE = 1e-8
MAX_ITER = 50


def _fit_logistic(phis, labels):
    """(w, b) of the module's penalized loss, the cross-entropy averaged over
    the rows; one (d+1) x (d+1) solve per Newton step. A step that raises the loss
    (beyond rounding) is halved until it does not, so no step can saturate
    every sigmoid and leave the bias without curvature."""
    phis = np.asarray(phis, dtype=float)
    if not (np.all(np.isfinite(phis)) and np.all(np.isfinite(labels))) \
            or np.all(labels == labels[0]):
        raise ValueError("a logistic head needs finite rows and both classes")
    design = np.vstack([phis.T, np.ones(len(phis))])  # one row per weight, bias last
    penalty = np.append(np.full(phis.shape[1], RIDGE), 0.0)
    # 1/n weights inside the products: dividing by n afterwards rounds differently
    sw = np.full(len(phis), 1.0 / len(phis))

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


def fit_propensity(obs, phis):
    """(weights, bias) of e_obs(phi) = sigmoid(phi weights + bias), fitted on an
    ObsLog (labels obs.ts, 1 = treated) from its phi rows, mapped by the caller;
    randomized records are rejected. The penalty of the module's IRLS keeps
    e_obs inside (0, 1) on a log that phi separates perfectly."""
    if not isinstance(obs, ObsLog):
        raise ValueError("propensity model must be trained on an OBS log only")
    if not len(obs) or len(phis) != len(obs):
        raise ValueError("need a nonempty observational log and one phi row per row")
    return _fit_logistic(phis, obs.ts)


def overlap_deficit_many(head, phis):
    """o_u = 2 |e_obs(phi_u) - 0.5| per row of phis, with head = (weights, bias)
    from fit_propensity; near 1 where history was deterministic."""
    weights, bias = head
    return 2.0 * np.abs(sigmoid(phis @ weights + bias) - 0.5)


# ---------------------------------------------------------------------------
# Closed-form signals: density ratio (d) and design leverage (v)


def psi_gram(phis):
    """sum psi psi^T over the rows of phis, psi = [phi, 1]; G[-1, -1] counts them."""
    psi = np.column_stack([phis, np.ones(len(phis))])
    return psi.T @ psi


def train_domain_classifier(pool_phis, current_gram):
    """alpha of the density ratio pool / current, psi^T alpha on psi = [phi, 1]:
    (H + RIDGE diag(1, .., 1, 0))^-1 h, with H = G / G[-1, -1] the mean of psi
    psi^T over the current rows, G their psi_gram, and h that of psi over the
    pool. The free bias gives identical classes a ratio of 1 at any sizes; the
    penalty bounds alpha on separable ones."""
    if not (len(pool_phis) and current_gram[-1, -1] > 0 and np.isfinite(pool_phis).all()
            and np.isfinite(current_gram).all()):
        raise ValueError("a density ratio needs two nonempty classes of finite rows")
    penalty = np.diag(np.append(np.full(len(current_gram) - 1, RIDGE), 0.0))
    return np.linalg.solve(current_gram / current_gram[-1, -1] + penalty,
                           np.append(pool_phis.mean(axis=0), 1.0))


def ensemble_variance(labeled_phis, labeled_yts, candidate_phis, lam):
    """v per candidate: the leverage phi^T V^-1 phi of the ridge fit with
    penalty lam (see the module docstring). With no labeled data every
    candidate gets 0 (cold start)."""
    if len(labeled_phis) == 0:
        return np.zeros(len(candidate_phis))
    return pool_leverage(fit_ridge_arrays(labeled_phis, labeled_yts, lam), candidate_phis)


# ---------------------------------------------------------------------------
# Rank normalization and composite score


def rank_normalize(values):
    """eta(a_u) = (1/n) * #{a_u' <= a_u}; ties share the <=-count rank, and
    every NaN gets rank 1 (NaNs sort last, as one tie run).

    One argsort: a value's count is the end of its tie run in sorted order,
    so an unstable sort gives the same ranks."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n == 0:
        raise ValueError("cannot rank an empty pool")
    order = np.argsort(v)
    s = v[order]
    starts = np.zeros(n, dtype=bool)  # where a tie run begins, past the first
    starts[1:] = (s[1:] != s[:-1]) & (s[:-1] == s[:-1])  # NaN != NaN: one run
    counts = np.append(np.flatnonzero(starts), n)  # the end of each run
    ranks = np.empty(n, dtype=np.intp)
    ranks[order] = counts[np.cumsum(starts)]
    return ranks / n


@dataclass(frozen=True)
class AcquisitionWeights:
    alpha: float = 0.5
    beta: float = 1.0
    gamma: float = 0.7

    def __post_init__(self):
        if not all(0.0 <= w < np.inf for w in (self.alpha, self.beta, self.gamma)):
            raise ValueError("weights must be finite and nonnegative")
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


def score_pool(ids, cand_phis, labeled_phis, labeled_yts, obs_gram, o, weights, lam):
    """One round's scoring: train the round's models, score every candidate.

    ids, cand_phis and o are the candidates (the unqueried units) as unit
    ids, feature rows, already mapped, and overlap deficits, computed once per
    run; labeled_phis and labeled_yts are the randomized stream so far as
    features and pseudo-outcomes; obs_gram is the log's psi_gram, formed once
    per run (zeros with no log); lam is the run's ridge penalty.
    """
    # v: the leverage under the labeled randomized stream's design; reads no Y~
    v = ensemble_variance(labeled_phis, labeled_yts, cand_phis, lam)

    # d: the candidates' density ratio against obs + rct, one solve per round
    current = obs_gram + psi_gram(labeled_phis)
    alpha = train_domain_classifier(cand_phis, current) if current[-1, -1] \
        else np.append(np.zeros(cand_phis.shape[1]), 0.5)  # cold start: d = 0.5
    d = cand_phis @ alpha[:-1] + alpha[-1]

    return composite_scores(ids, v, d, o, weights)
