"""Synthetic two-source causal worlds, linear in phi.

Every world is a LinearEnv: Bernoulli outcomes with arm means
mu_t(phi) = m0 + <w_m, phi> +- <theta*, phi>/2, so the CATE is exactly
<theta*, phi(x)>. Construction refuses (theta, baseline) pairs that would push
a conditional mean outside [0, 1]. The outcome law reads phi rows: callers map
x once and pass phi on. HardInstance is the LinearEnv of the sqrt(d/B) scaling
floor: d equally likely segments, one-hot phi, m0 = 1/2, w_m = 0 and effects
+-Delta.

Observational logs are drawn under an explicit historical policy e_obs(phi)
(logistic or near-deterministic threshold) and an optionally tilted covariate
marginal; conditional outcome laws are shared with the pool by construction.
"""

import json
from dataclasses import dataclass

import numpy as np

from ._rng import rng_for
from .core import FeatureMap, ObsLog, Pool, known_keys, sigmoid

C_KL = 16.0 / 3.0


class EnvSpecError(ValueError):
    """The environment specification violates a construction invariant."""


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
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
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
        object.__setattr__(self, "lows", tuple(lo))
        object.__setattr__(self, "highs", tuple(hi))

    def sample(self, n, rng):
        lo = np.asarray(self.lows)
        hi = np.asarray(self.highs)
        return rng.uniform(lo, hi, size=(n, len(lo)))

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
    """e_obs(x) = sigmoid(sharpness * <weights, phi(x)>)."""

    weights: tuple
    sharpness: float = 1.0

    def propensity(self, phis):
        return sigmoid(self.sharpness * (phis @ np.asarray(self.weights)))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Near-deterministic targeting: e_obs in {leak, 1 - leak} by a cut."""

    direction: tuple
    cutoff: float
    leak: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.leak <= 0.05):
            raise EnvSpecError("threshold leak must lie in [0, 0.05]")

    def propensity(self, phis):
        above = (phis @ np.asarray(self.direction)) > self.cutoff
        return np.where(above, 1.0 - self.leak, self.leak)


@dataclass(frozen=True)
class MarginalShift:
    """How the OBS covariate marginal differs from the pool marginal."""

    kind: str = "none"  # "none" | "tilt"
    direction: tuple = ()
    strength: float = 0.0

    def apply(self, marginal):
        if self.kind == "none":
            return marginal
        if self.kind == "tilt":
            return marginal.tilted(self.direction, self.strength)
        raise EnvSpecError(f"unknown marginal shift kind {self.kind!r}")


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
        if np.linalg.norm(self.theta_star) > self.S + 1e-12:
            raise EnvSpecError(f"||theta||_2 = {np.linalg.norm(self.theta_star):.4f} exceeds S = {self.S}")
        self._check_means()

    def arm_means(self, phis):
        """(mu_1, mu_0) per phi row."""
        base = self.m0 + phis @ self.wm
        half = 0.5 * (phis @ self.theta_star)
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
        self.d = d
        self.delta = float(delta)
        # LinearEnv checks ||theta||_2 = sqrt(d) * Delta against S
        super().__init__(signs * delta,
                         FeatureMap(kind="segment-one-hot", output_dim=d, norm_bound=1.0),
                         np.sqrt(d) * delta if norm_budget is None else norm_budget,
                         SegmentMarginal(tuple(np.full(d, 1.0 / d))))


def default_hard_delta(d, budget):
    """Delta matching the scaling-floor construction: min{1/4, sqrt(d/(16 C_KL B))}."""
    return min(0.25, np.sqrt(d / (16.0 * C_KL * budget)))


# ---------------------------------------------------------------------------
# Sampling operations


def sample_pool(env, n_pool, seed):
    """A Pool of n_pool i.i.d. units from the target marginal, ids 0..n_pool-1."""
    if n_pool < 1:
        raise ValueError("n_pool must be >= 1")
    rng = rng_for(seed, 0x706F6F6C)
    return Pool(ids=np.arange(n_pool), xs=env.sample_x(n_pool, rng))


def sample_obs(env, policy, shift, n_obs, seed):
    """Historical ObsLog: shifted marginal, t ~ Bern(e_obs(x)), shared outcome laws."""
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    rng = rng_for(seed, 0x6F6273)
    marginal = shift.apply(env.marginal)
    xs = marginal.sample(n_obs, rng)
    phis = env.feature_map.apply_many(xs)
    e = policy.propensity(phis)
    ts = (rng.random(n_obs) < e).astype(int)
    ys = env.draw_outcomes(phis, ts, rng.random(n_obs))
    return ObsLog(xs=xs, ts=ts, ys=ys)


# ---------------------------------------------------------------------------
# JSON environment specs (env.json)


def env_to_json(env, obs_policy=None, obs_shift=None, seed=0, n_obs=0, n_pool=0):
    doc = {"seed": seed, "n_obs": n_obs, "n_pool": n_pool}
    if isinstance(env, HardInstance):  # before LinearEnv: a HardInstance is one
        doc["env"] = {
            "kind": "hard",
            "d": env.d,
            "delta": env.delta,
            "theta_signs": [int(np.sign(t)) for t in env.theta_star],
            "S": env.S,
        }
    elif isinstance(env, LinearEnv):
        fm = env.feature_map
        doc["env"] = {
            "kind": "linear",
            "theta_star": list(env.theta_star),
            "S": env.S,
            "baseline_intercept": env.m0,
            "baseline_weights": list(env.wm),
            "feature_map": {
                "kind": fm.kind,
                "output_dim": fm.output_dim,
                "norm_bound": fm.norm_bound,
                "weight": None if fm.weight is None else np.asarray(fm.weight).tolist(),
                "offset": None if fm.offset is None else np.asarray(fm.offset).tolist(),
            },
            "marginal": _marginal_to_json(env.marginal),
        }
    else:
        raise TypeError(f"cannot serialize environment {type(env).__name__}")
    if obs_policy is not None:
        doc["obs_policy"] = _policy_to_json(obs_policy)
    if obs_shift is not None:
        doc["obs_shift"] = {
            "kind": obs_shift.kind,
            "direction": list(obs_shift.direction),
            "strength": obs_shift.strength,
        }
    return doc


def _marginal_to_json(m):
    if isinstance(m, SegmentMarginal):
        doc = {"kind": "segments", "probs": list(m.probs)}
        if m.points is not None:
            doc["points"] = [list(p) for p in m.points]
        return doc
    return {"kind": "box", "lows": list(m.lows), "highs": list(m.highs)}


def _policy_to_json(p):
    if isinstance(p, LogisticPolicy):
        return {"kind": "logistic", "weights": list(p.weights), "sharpness": p.sharpness}
    return {"kind": "threshold", "direction": list(p.direction), "cutoff": p.cutoff, "leak": p.leak}


def env_from_json(doc):
    """Rebuild (env, obs_policy, obs_shift) from an env.json document.
    A key that env_to_json does not write is a ValueError."""
    known_keys(doc, "env.json", "seed", "n_obs", "n_pool", "env", "obs_policy",
               "obs_shift")
    e = doc["env"]
    if e["kind"] == "hard":
        known_keys(e, "env.json env", "kind", "d", "delta", "theta_signs", "S")
        env = HardInstance(d=e["d"], delta=e["delta"], theta_signs=e["theta_signs"],
                           norm_budget=e.get("S"))
    elif e["kind"] == "linear":
        known_keys(e, "env.json env", "kind", "theta_star", "S", "baseline_intercept",
                   "baseline_weights", "feature_map", "marginal")
        fmj = known_keys(e["feature_map"], "env.json feature_map", "kind", "output_dim",
                         "norm_bound", "weight", "offset")
        fmap = FeatureMap(kind=fmj["kind"], output_dim=fmj["output_dim"],
                          norm_bound=fmj["norm_bound"], weight=fmj.get("weight"),
                          offset=fmj.get("offset"))
        mj = e["marginal"]
        if mj["kind"] == "segments":
            known_keys(mj, "env.json marginal", "kind", "probs", "points")
            pts = mj.get("points")
            marginal = SegmentMarginal(
                tuple(mj["probs"]), None if pts is None else tuple(map(tuple, pts))
            )
        elif mj["kind"] == "box":
            known_keys(mj, "env.json marginal", "kind", "lows", "highs")
            marginal = BoxMarginal(tuple(mj["lows"]), tuple(mj["highs"]))
        else:
            raise EnvSpecError(f"unknown marginal kind {mj['kind']!r}")
        env = LinearEnv(theta_star=e["theta_star"], feature_map=fmap, norm_budget=e["S"],
                        marginal=marginal, baseline_intercept=e["baseline_intercept"],
                        baseline_weights=e["baseline_weights"])
    else:
        raise EnvSpecError(f"unknown environment kind {e['kind']!r}")

    policy = None
    if "obs_policy" in doc:
        pj = doc["obs_policy"]
        if pj["kind"] == "logistic":
            known_keys(pj, "env.json obs_policy", "kind", "weights", "sharpness")
            policy = LogisticPolicy(tuple(pj["weights"]), pj.get("sharpness", 1.0))
            name, vector = "weights", policy.weights
        elif pj["kind"] == "threshold":
            known_keys(pj, "env.json obs_policy", "kind", "direction", "cutoff", "leak")
            policy = ThresholdPolicy(tuple(pj["direction"]), pj["cutoff"], pj.get("leak", 0.0))
            name, vector = "direction", policy.direction
        else:
            raise EnvSpecError(f"unknown policy kind {pj['kind']!r}")
        if np.shape(vector) != (env.feature_map.output_dim,):
            raise EnvSpecError(f"obs_policy {name} has shape {np.shape(vector)}; phi has "
                               f"{env.feature_map.output_dim} coordinates")
    shift = MarginalShift()
    if "obs_shift" in doc:
        sj = known_keys(doc["obs_shift"], "env.json obs_shift", "kind", "direction",
                        "strength")
        shift = MarginalShift(kind=sj["kind"], direction=tuple(sj.get("direction", ())),
                              strength=sj.get("strength", 0.0))
        shift.apply(env.marginal)  # a bad kind, direction or marginal fails before any draw
    return env, policy, shift


def load_env(path):
    with open(path) as fh:
        doc = json.load(fh)
    env, policy, shift = env_from_json(doc)
    return env, policy, shift, doc
