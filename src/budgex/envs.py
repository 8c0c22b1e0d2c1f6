"""Synthetic two-source causal worlds, linear in phi.

Every world is a LinearEnv: Bernoulli outcomes with arm means
mu_t(phi) = m0 + <w_m, phi> +- <theta*, phi>/2, so the CATE is exactly
<theta*, phi(x)>. Construction refuses (theta, baseline) pairs that would push
a conditional mean outside [0, 1]. The outcome law reads phi rows: callers map
x once and pass phi on. HardInstance is the LinearEnv of the sqrt(d/B) scaling
floor: d equally likely segments, one-hot phi, m0 = 1/2, w_m = 0 and effects
+-Delta.

Observational logs are drawn under an explicit historical policy e_obs(phi)
(logistic or near-deterministic threshold) from the log's own covariate
marginal, which env_from_json builds once: the pool's marginal, or its tilt.
Conditional outcome laws are shared with the pool by construction.
"""

import json
from dataclasses import dataclass

import numpy as np

from ._rng import rng_for
from .core import FeatureMap, ObsLog, Pool, finite_numbers, sigmoid

C_KL = 16.0 / 3.0


class EnvSpecError(ValueError):
    """The environment specification violates a construction invariant, or a
    block of env.json, protocol.json or sweep.json names a kind that does not
    exist, has a key outside its schema or lacks one that it requires."""


# ---------------------------------------------------------------------------
# Covariate marginals


@dataclass(frozen=True)
class SegmentMarginal:
    """Categorical marginal over a finite support.

    By default the support is the segment indices 0..len(probs)-1; passing
    `points` places the atoms at explicit covariate vectors instead.
    """

    probs: tuple
    points: tuple = None

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):  # NaN fails too
            raise EnvSpecError("segment probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "probs", tuple(p))
        if self.points is not None:
            pts = np.atleast_2d(np.asarray(self.points, dtype=float))
            if len(pts) != len(p):
                raise EnvSpecError("need exactly one support point per probability")
            object.__setattr__(self, "points", tuple(map(tuple, pts)))

    def sample(self, n, rng):
        idx = rng.choice(len(self.probs), size=n, p=np.asarray(self.probs))
        return self.support_points()[idx]

    def support_points(self):
        if self.points is not None:
            return np.asarray(self.points, dtype=float)
        return np.arange(len(self.probs), dtype=float)[:, None]

    def tilted(self, direction, strength):
        direction = np.asarray(direction, dtype=float)
        if direction.shape != (len(self.probs),):
            raise EnvSpecError(f"tilt direction has shape {direction.shape}; the marginal "
                               f"has {len(self.probs)} support points")
        w = np.exp(strength * direction)
        p = np.asarray(self.probs) * w
        return SegmentMarginal(tuple(p / p.sum()), self.points)


@dataclass(frozen=True)
class BoxMarginal:
    """Uniform marginal on the axis-aligned box [lows, highs]."""

    lows: tuple
    highs: tuple

    def __post_init__(self):
        lo = np.asarray(self.lows, dtype=float)
        hi = np.asarray(self.highs, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise EnvSpecError("box bounds inconsistent")
        with np.errstate(over="ignore", invalid="ignore"):
            width = hi - lo
        if not np.all(np.isfinite(width)):  # NaN, infinite or overflowing bounds
            raise EnvSpecError(f"box widths must be finite, got {width.tolist()}")
        object.__setattr__(self, "lows", tuple(lo))
        object.__setattr__(self, "highs", tuple(hi))

    def sample(self, n, rng):
        """n rows drawn as Generator.uniform(lows, highs) draws them, bit for
        bit: lo + (hi - lo) * u for the same doubles u, in the same order."""
        lo = np.asarray(self.lows)
        u = rng.random((n, len(lo)))
        u *= np.asarray(self.highs) - lo
        u += lo
        return u

    def support_points(self):
        """Box corners; affine conditional means attain extremes there."""
        lo = np.asarray(self.lows)
        hi = np.asarray(self.highs)
        k = len(lo)
        corners = np.array(np.meshgrid(*[[lo[i], hi[i]] for i in range(k)])).T.reshape(-1, k)
        return corners

    def tilted(self, direction, strength):
        raise EnvSpecError("marginal tilt is only defined for segment marginals")


# ---------------------------------------------------------------------------
# Historical (OBS) assignment policies


@dataclass(frozen=True)
class LogisticPolicy:
    """e_obs(x) = sigmoid(<weights, phi(x)>)."""

    weights: tuple

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)):
            raise EnvSpecError("logistic policy weights must be finite")

    def propensity(self, phis):
        return sigmoid(phis @ np.asarray(self.weights))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Near-deterministic targeting: e_obs in {leak, 1 - leak} by a cut."""

    direction: tuple
    cutoff: float
    leak: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.leak <= 0.05):
            raise EnvSpecError("threshold leak must lie in [0, 0.05]")
        if not np.all(np.isfinite(np.append(self.direction, self.cutoff))):
            raise EnvSpecError("threshold direction and cutoff must be finite")

    def propensity(self, phis):
        above = (phis @ np.asarray(self.direction)) > self.cutoff
        return np.where(above, 1.0 - self.leak, self.leak)


# ---------------------------------------------------------------------------
# Environments


class _BernoulliEnv:
    """Binary outcomes around a LinearEnv's arm means; a class of its own only
    because perfbench's tracer names its draw_outcomes span after it."""

    def draw_outcomes(self, phis, ts, uniforms):
        """y = 1{u < mu_t(phi)} per phi row -- one uniform consumed per unit."""
        m = np.where(np.asarray(ts) == 1, *self.arm_means(phis))
        return (np.asarray(uniforms) < m).astype(float)


class LinearEnv(_BernoulliEnv):
    """tau(x) = <theta, phi(x)>, mu_t(x) = m(x) +- tau(x)/2 with m(x) affine in phi."""

    def __init__(self, theta_star, feature_map, norm_budget, marginal,
                 baseline_intercept=0.5, baseline_weights=None):
        self.theta_star = np.asarray(theta_star, dtype=float)
        self.feature_map = feature_map
        self.S = float(norm_budget)
        self.marginal = marginal
        self.m0 = float(baseline_intercept)
        self.wm = (np.zeros(feature_map.output_dim) if baseline_weights is None
                   else np.asarray(baseline_weights, dtype=float))
        if self.theta_star.shape != (feature_map.output_dim,):
            raise EnvSpecError("theta dimension must match the feature map")
        norm = np.linalg.norm(self.theta_star)
        if not norm <= self.S + 1e-12 < np.inf:  # a NaN S fails too
            raise EnvSpecError(f"||theta||_2 = {norm:.4f} exceeds S = {self.S}, or S is not finite")
        self._check_means()

    def arm_means(self, phis):
        """(mu_1, mu_0) per phi row; einsum, as BLAS rounds phis @ w by batch size."""
        base = self.m0 + np.einsum("ij,j->i", phis, self.wm)
        half = 0.5 * np.einsum("ij,j->i", phis, self.theta_star)
        return base + half, base - half

    def sample_x(self, n, rng):
        return self.marginal.sample(n, rng)

    def _check_means(self):
        """Maps the support once, which also validates the norm bound L there."""
        mu1, mu0 = self.arm_means(self.feature_map.apply_many(self.marginal.support_points()))
        for t, m in ((0, mu0), (1, mu1)):
            if np.any(m < -1e-12) or np.any(m > 1.0 + 1e-12):
                raise EnvSpecError(
                    f"conditional mean mu_{t} leaves [0, 1] (range "
                    f"[{m.min():.4f}, {m.max():.4f}]); no clipping is permitted"
                )


class HardInstance(LinearEnv):
    """d equally likely segments, phi(x^(j)) = e_j, theta_j = sign_j * Delta,
    m0 = 1/2 and w_m = 0."""

    def __init__(self, d, delta, theta_signs, norm_budget=None):
        if not (0.0 <= delta <= 0.5):
            raise EnvSpecError(f"Delta must lie in [0, 1/2], got {delta}")
        signs = np.asarray(theta_signs, dtype=float)
        if signs.shape != (d,) or not np.all(np.abs(signs) == 1.0):
            raise EnvSpecError("theta_signs must be a length-d vector over {-1, +1}")
        # LinearEnv checks ||theta||_2 = sqrt(d) * Delta against S
        super().__init__(signs * delta,
                         FeatureMap(kind="segment-one-hot", output_dim=d, norm_bound=1.0),
                         np.sqrt(d) * delta if norm_budget is None else norm_budget,
                         SegmentMarginal(tuple(np.full(d, 1.0 / d))))


def default_hard_delta(d, budget):
    """Delta matching the scaling-floor construction: min{1/4, sqrt(d/(16 C_KL B))}.
    No CLI caller yet: it is the Delta_B of the minimax floor, for a d-axis audit."""
    return min(0.25, np.sqrt(d / (16.0 * C_KL * budget)))


# ---------------------------------------------------------------------------
# Sampling operations


def sample_pool(env, n_pool, seed):
    """A Pool of n_pool i.i.d. units from the target marginal, ids 0..n_pool-1."""
    if n_pool < 1:
        raise ValueError("n_pool must be >= 1")
    rng = rng_for(seed, 0x706F6F6C)
    return Pool(ids=np.arange(n_pool), xs=env.sample_x(n_pool, rng))


def sample_obs(env, policy, marginal, n_obs, seed):
    """Historical ObsLog: x from the log's marginal (env.marginal, or the tilt
    env_from_json built), t ~ Bern(e_obs(x)), and the env's outcome laws."""
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    rng = rng_for(seed, 0x6F6273)
    xs = marginal.sample(n_obs, rng)
    phis = env.feature_map.apply_many(xs)
    e = policy.propensity(phis)
    ts = (rng.random(n_obs) < e).astype(int)
    ys = env.draw_outcomes(phis, ts, rng.random(n_obs))
    return ObsLog(xs=xs, ts=ts, ys=ys)


# ---------------------------------------------------------------------------
# JSON environment specs (env.json), written down once as env_from_json's key
# lists: seed, n_obs, n_pool and env (kind "hard" or "linear"), with optional
# obs_policy ("logistic" or "threshold") and obs_shift ("none" or "tilt"). Each
# tagged block holds "kind" and that kind's own keys, and no other key. A key
# list names each key a block may hold; a trailing "?" marks one it may omit.


def known_keys(doc, where, *keys):
    """doc, once it has every key of keys but those marked "?" and no other:
    a misspelt key and a missing one are errors."""
    names = {key.rstrip("?") for key in keys}
    if not set(doc) <= names:
        raise EnvSpecError(f"unknown key(s) in {where}: {sorted(set(doc) - names)}")
    missing = [key for key in keys if not key.endswith("?") and key not in doc]
    if missing:
        raise EnvSpecError(f"{where} needs {missing}")
    return doc


def kind_of(doc, where, keys_by_kind):
    """doc's kind, once it is a key of keys_by_kind and doc has no key outside
    "kind" and that kind's keys: a key only a sibling kind reads is an error."""
    kind = doc.get("kind")
    if kind not in keys_by_kind:
        raise EnvSpecError(f"unknown {where} kind {kind!r}; known: {list(keys_by_kind)}")
    known_keys(doc, f"{where} ({kind})", "kind", *keys_by_kind[kind])
    return kind


def env_from_json(doc):
    """(env, obs_policy, obs_marginal) from an env.json document; obs_marginal is
    the log's covariate marginal, env.marginal or its tilt. A key outside the
    schema, a missing required key, a bool and a NaN or infinite number are
    ValueErrors, and shapes and invariants fail here, before any draw."""
    known_keys(finite_numbers(doc, "env.json"), "env.json", "seed?", "n_obs?", "n_pool?",
               "env", "obs_policy?", "obs_shift?")
    for key in ("seed", "n_obs", "n_pool"):
        if key in doc and type(doc[key]) is not int:
            raise EnvSpecError(f"env.json {key} must be an integer, got {doc[key]!r}")
    e = doc["env"]
    if kind_of(e, "env.json env", {
            "hard": ("d", "delta", "theta_signs", "S?"),
            "linear": ("theta_star", "S", "baseline_intercept", "baseline_weights",
                       "feature_map", "marginal")}) == "hard":
        env = HardInstance(d=e["d"], delta=e["delta"], theta_signs=e["theta_signs"],
                           norm_budget=e.get("S"))
    else:
        fmj = known_keys(e["feature_map"], "env.json feature_map", "kind", "output_dim",
                         "norm_bound", "weight?", "offset?")
        fmap = FeatureMap(kind=fmj["kind"], output_dim=fmj["output_dim"],
                          norm_bound=fmj["norm_bound"], weight=fmj.get("weight"),
                          offset=fmj.get("offset"))
        mj = e["marginal"]
        if kind_of(mj, "env.json marginal", {"segments": ("probs", "points?"),
                                             "box": ("lows", "highs")}) == "segments":
            pts = mj.get("points")
            marginal = SegmentMarginal(tuple(mj["probs"]),
                                       None if pts is None else tuple(map(tuple, pts)))
        else:
            marginal = BoxMarginal(tuple(mj["lows"]), tuple(mj["highs"]))
        env = LinearEnv(theta_star=e["theta_star"], feature_map=fmap, norm_budget=e["S"],
                        marginal=marginal, baseline_intercept=e["baseline_intercept"],
                        baseline_weights=e["baseline_weights"])

    policy = None
    if "obs_policy" in doc:
        pj = doc["obs_policy"]
        if kind_of(pj, "env.json obs_policy", {"logistic": ("weights",),
                                               "threshold": ("direction", "cutoff",
                                                             "leak?")}) == "logistic":
            policy = LogisticPolicy(tuple(pj["weights"]))
            name, vector = "weights", policy.weights
        else:
            policy = ThresholdPolicy(tuple(pj["direction"]), pj["cutoff"], pj.get("leak", 0.0))
            name, vector = "direction", policy.direction
        if np.shape(vector) != (env.feature_map.output_dim,):
            raise EnvSpecError(f"obs_policy {name} has shape {np.shape(vector)}; phi has "
                               f"{env.feature_map.output_dim} coordinates")
    sj = doc.get("obs_shift", {"kind": "none"})
    if kind_of(sj, "env.json obs_shift", {"none": (),
                                          "tilt": ("direction", "strength")}) == "tilt":
        return env, policy, env.marginal.tilted(sj["direction"], sj["strength"])
    return env, policy, env.marginal


def load_env(path):
    """(env, obs_policy, obs_marginal, doc) of the env.json file at path."""
    with open(path) as fh:
        doc = json.load(fh)
    return *env_from_json(doc), doc
