"""Tests for the synthetic two-source world generators."""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from budgex.cli import protocol_config_from_json
from budgex.core import FeatureMap
from budgex.envs import (BoxMarginal, EnvSpecError, HardInstance, LinearEnv,
                         LogisticPolicy, SegmentMarginal, ThresholdPolicy,
                         default_hard_delta, env_from_json, sample_obs,
                         sample_pool)
from budgex._rng import rng_for


def hard_env(d=2, delta=0.25, signs=None):
    return HardInstance(d=d, delta=delta,
                        theta_signs=signs or [1] * (d - 1) + [-1])


class TestSamplePool:
    def test_segment_counts_near_uniform(self):
        env = HardInstance(d=4, delta=0.1, theta_signs=(1, 1, -1, -1))
        pool = sample_pool(env, 4000, seed=7)
        counts = np.bincount(pool.xs[:, 0].astype(int), minlength=4)
        sd = np.sqrt(4000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 1000) < 4 * sd)

    def test_single_unit(self):
        pool = sample_pool(hard_env(), 1, seed=0)
        assert len(pool) == 1
        assert pool.ids[0] == 0

    def test_determinism(self):
        env = hard_env()
        a = sample_pool(env, 100, seed=3)
        b = sample_pool(env, 100, seed=3)
        assert a.xs.tolist() == b.xs.tolist()

    def test_ids_are_consecutive(self):
        pool = sample_pool(hard_env(), 50, seed=1)
        assert pool.ids.tolist() == list(range(50))


class TestSampleObs:
    def test_deterministic_threshold_policy(self):
        env = hard_env(d=2)
        policy = ThresholdPolicy(direction=(1.0, 0.0), cutoff=0.5, leak=0.0)
        obs = sample_obs(env, policy, env.marginal, 2000, seed=11)
        for x, t in zip(obs.xs, obs.ts):
            expected = 1 if int(x[0]) == 0 else 0
            assert t == expected

    def test_balanced_logistic_policy(self):
        env = hard_env(d=2)
        policy = LogisticPolicy(weights=(0.0, 0.0))
        obs = sample_obs(env, policy, env.marginal, 4000, seed=5)
        treated = int(obs.ts.sum())
        assert abs(treated - 2000) < 4 * np.sqrt(4000 * 0.25)

    def test_determinism(self):
        env = hard_env()
        policy = LogisticPolicy(weights=(1.0, -1.0))
        a = sample_obs(env, policy, env.marginal, 200, seed=9)
        b = sample_obs(env, policy, env.marginal, 200, seed=9)
        assert all(np.array_equal(getattr(a, c), getattr(b, c))
                   for c in ("xs", "ts", "ys"))

    def test_outcome_laws_shared_with_pool(self):
        """P(Y=1 | x, t) matches the environment's conditional mean."""
        env = hard_env(d=2, delta=0.3, signs=(1, -1))
        policy = LogisticPolicy(weights=(0.0, 0.0))
        obs = sample_obs(env, policy, env.marginal, 100_000, seed=21)
        for j in (0, 1):
            for t in (0, 1):
                ys = obs.ys[(obs.xs[:, 0].astype(int) == j) & (obs.ts == t)]
                mu = float(env.arm_means(env.feature_map.apply_many([[float(j)]]))[1 - t][0])
                se = np.sqrt(mu * (1 - mu) / len(ys))
                assert abs(np.mean(ys) - mu) < 3 * se


class TestDrawOutcome:
    def test_hard_instance_means(self):
        env = hard_env(d=2, delta=0.25, signs=(1, -1))
        mu1, mu0 = env.arm_means(env.feature_map.apply_many([[0.0]]))
        assert float(mu1[0]) == 0.625
        assert float(mu0[0]) == 0.375

    def test_monte_carlo_mean(self):
        env = hard_env(d=2, delta=0.25, signs=(1, -1))
        rng = rng_for(13)
        n = 100_000
        ys = env.draw_outcomes(env.feature_map.apply_many(np.zeros((n, 1))),
                               np.ones(n, dtype=int),
                               rng.random(n))
        assert abs(ys.mean() - 0.625) < 3 * np.sqrt(0.625 * 0.375 / n)

    def test_single_draw_is_binary(self):
        env = hard_env()
        y = float(env.draw_outcomes(env.feature_map.apply_many([[0.0]]), [1],
                                    [rng_for(3).random()])[0])
        assert y in (0.0, 1.0)


def affine_box_env():
    fmap = FeatureMap(kind="affine-projection", output_dim=3, norm_bound=4.0,
                      weight=[[0.4, -0.3, 0.2, 0.1], [0.1, 0.5, -0.2, 0.3],
                              [-0.3, 0.2, 0.4, -0.1]],
                      offset=[0.1, -0.2, 0.05])
    return LinearEnv(theta_star=(0.1, -0.05, 0.08), feature_map=fmap,
                     norm_budget=1.0, marginal=BoxMarginal((-1.0,) * 4, (1.0,) * 4),
                     baseline_weights=(0.03, 0.0, -0.02))


def identity_box_env():
    fmap = FeatureMap(kind="identity", output_dim=3, norm_bound=2.0)
    return LinearEnv(theta_star=(0.2, -0.1, 0.15), feature_map=fmap,
                     norm_budget=1.0, marginal=BoxMarginal((-1.0,) * 3, (1.0,) * 3),
                     baseline_intercept=0.45, baseline_weights=(0.05, 0.02, -0.04))


def written_out_mu(env, xs, t):
    """mu_t(x) = m(x) +- tau(x)/2, one arm at a time and without arm_means."""
    sign = 1.0 if t == 1 else -1.0
    if isinstance(env, HardInstance):
        return 0.5 + sign * 0.5 * env.theta_star[xs[:, 0].astype(int)]
    phis = env.feature_map.apply_many(xs)
    base = env.m0 + np.einsum("ij,j->i", phis, env.wm)
    return base + sign * 0.5 * np.einsum("ij,j->i", phis, env.theta_star)


class TestArmMeans:
    """Both arms come from one phi, bit for bit the written-out mu_t."""

    @pytest.mark.parametrize("make_env", [
        identity_box_env, affine_box_env,
        lambda: hard_env(d=4, delta=0.2, signs=(1, -1, 1, -1))],
        ids=["identity", "affine", "hard"])
    def test_draw_outcomes_equals_two_mu_calls(self, make_env):
        env = make_env()
        rng = rng_for(12)
        xs = env.sample_x(3000, rng)
        ts = (rng.random(3000) < 0.5).astype(int)
        m1, m0 = written_out_mu(env, xs, 1), written_out_mu(env, xs, 0)
        phis = env.feature_map.apply_many(xs)
        np.testing.assert_array_equal(env.arm_means(phis)[0], m1)
        np.testing.assert_array_equal(env.arm_means(phis)[1], m0)
        means = np.where(ts == 1, m1, m0)
        # u == mean gives y = 0 and u one ulp below gives y = 1 exactly when
        # draw_outcomes compares against these very means
        assert not env.draw_outcomes(phis, ts, means).any()
        assert env.draw_outcomes(phis, ts, np.nextafter(means, 0.0)).all()


def test_box_world_arm_means_ignore_the_batch():
    """A unit's mu_1 and mu_0 are the same bits in a batch of 1,000 rows as
    alone: phis @ w rounded 25 of these mu_1 and 28 of the mu_0 apart."""
    env = LinearEnv(theta_star=(0.08, -0.06, 0.05, -0.04, 0.03),
                    feature_map=FeatureMap(kind="identity", output_dim=5,
                                           norm_bound=np.sqrt(5)),
                    norm_budget=0.2, marginal=BoxMarginal((-1.0,) * 5, (1.0,) * 5))
    phis = env.feature_map.apply_many(env.sample_x(1000, rng_for(1)))
    mu1, mu0 = env.arm_means(phis)
    alone = np.array([env.arm_means(phis[i:i + 1]) for i in range(len(phis))])
    assert mu1.tobytes() == alone[:, 0, 0].tobytes()
    assert mu0.tobytes() == alone[:, 1, 0].tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: st.lists(st.sampled_from([-1, 1]),
                                                     min_size=d, max_size=d)),
       st.floats(0.0, 0.5))
def test_hard_instance_is_the_written_out_law_on_every_segment(signs, delta):
    """Over all d one-hot rows, the hard instance's arm means are
    0.5 +- 0.5 * theta_j bit for bit, and draw_outcomes compares u with them."""
    env = HardInstance(d=len(signs), delta=delta, theta_signs=signs)
    phis = env.feature_map.apply_many(env.marginal.support_points())
    theta = np.array([s * delta for s in signs])
    written = {1: 0.5 + 0.5 * theta, 0: 0.5 - 0.5 * theta}
    mu1, mu0 = env.arm_means(phis)
    assert mu1.tobytes() == written[1].tobytes()
    assert mu0.tobytes() == written[0].tobytes()
    for t, means in written.items():
        ts = np.full(len(signs), t)
        assert not env.draw_outcomes(phis, ts, means).any()
        assert env.draw_outcomes(phis, ts, np.nextafter(means, 0.0)).all()


class TestTrueCate:
    def test_hard_instance_segments(self):
        env = hard_env(d=2, delta=0.25, signs=(1, -1))
        assert (env.feature_map.apply_many([[0.0]]) @ env.theta_star)[0] == 0.25
        assert (env.feature_map.apply_many([[1.0]]) @ env.theta_star)[0] == -0.25

    def test_linear_env_dot_product(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=2.0)
        env = LinearEnv(theta_star=(0.2, -0.1), feature_map=fmap, norm_budget=1.0,
                        marginal=BoxMarginal((-1.0, -1.0), (1.0, 1.0)))
        assert abs((fmap.apply_many([[1.0, 1.0]]) @ env.theta_star)[0] - 0.1) < 1e-15

    def test_cate_equals_mean_difference(self):
        env = hard_env(d=3, delta=0.2, signs=(1, -1, 1))
        xs = np.array([[0.0], [1.0], [2.0]])
        mu1, mu0 = env.arm_means(env.feature_map.apply_many(xs))
        np.testing.assert_allclose(mu1 - mu0, env.feature_map.apply_many(xs) @ env.theta_star)

    def test_linear_realizability_exact(self):
        """On sampled box rows with a nonzero baseline, arm_means is the law:
        mu_1 - mu_0 = <theta*, phi> and (mu_1 + mu_0)/2 = m0 + <w_m, phi>, with
        theta*, m0 and w_m written out. The largest gap measured on these rows
        was eps/2 for the difference and eps/4 for the mean (eps = 2^-52), so
        atol is 4 eps. Dropping the 1/2 in arm_means moves the difference by
        up to 0.14 here, and dropping w_m moves the mean by up to 0.037."""
        atol = 4 * np.finfo(float).eps
        for make_env, theta, m0, wm in [
                (affine_box_env, (0.1, -0.05, 0.08), 0.5, (0.03, 0.0, -0.02)),
                (identity_box_env, (0.2, -0.1, 0.15), 0.45, (0.05, 0.02, -0.04))]:
            env = make_env()
            phis = env.feature_map.apply_many(env.sample_x(10_000, rng_for(4)))
            mu1, mu0 = env.arm_means(phis)
            np.testing.assert_allclose(mu1 - mu0, phis @ np.array(theta),
                                       rtol=0, atol=atol)
            np.testing.assert_allclose((mu1 + mu0) / 2, m0 + phis @ np.array(wm),
                                       rtol=0, atol=atol)


class TestSpecValidation:
    def test_delta_above_half_rejected(self):
        with pytest.raises(EnvSpecError):
            HardInstance(d=2, delta=0.6, theta_signs=(1, -1))

    def test_bad_signs_rejected(self):
        with pytest.raises(EnvSpecError):
            HardInstance(d=2, delta=0.2, theta_signs=(1, 0))

    def test_norm_budget_below_theta_rejected(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=2.0)
        with pytest.raises(EnvSpecError):
            LinearEnv(theta_star=(1.0, 1.0), feature_map=fmap, norm_budget=0.5,
                      marginal=BoxMarginal((-1.0, -1.0), (1.0, 1.0)))

    def test_mean_outside_unit_interval_rejected(self):
        """No clipping: a baseline pushing mu past [0, 1] is a spec error."""
        fmap = FeatureMap(kind="identity", output_dim=1, norm_bound=1.0)
        with pytest.raises(EnvSpecError):
            LinearEnv(theta_star=(1.0,), feature_map=fmap, norm_budget=1.0,
                      marginal=BoxMarginal((-1.0,), (1.0,)),
                      baseline_intercept=0.9)

    @pytest.mark.parametrize("make", [
        lambda: SegmentMarginal((0.5, 0.6)),
        lambda: SegmentMarginal((1.2, -0.2)),
        lambda: SegmentMarginal((float("nan"), 1.0)),
        lambda: BoxMarginal((0.0, 1.0), (1.0, 0.0)),
        lambda: BoxMarginal((0.0,), (1.0, 1.0)),
        lambda: ThresholdPolicy(direction=(1.0,), cutoff=0.0, leak=0.1),
        lambda: LinearEnv(theta_star=(0.1, 0.1), norm_budget=1.0,
                          feature_map=FeatureMap("identity", 1, 1.0),
                          marginal=BoxMarginal((-1.0,), (1.0,)))],
        ids=["probs-sum", "negative-prob", "nan-prob", "box-lo-above-hi", "box-shapes",
             "leak", "theta-dimension"])
    def test_construction_invariants(self, make):
        with pytest.raises(EnvSpecError):
            make()

    @pytest.mark.parametrize("draw", [lambda env: sample_pool(env, 0, seed=1),
                                      lambda env: sample_obs(env, ThresholdPolicy((1.0, 0.0), 0.5),
                                                             env.marginal, 0, seed=1)],
                             ids=["n_pool", "n_obs"])
    def test_sample_size_below_one_rejected(self, draw):
        with pytest.raises(ValueError, match=">= 1"):
            draw(hard_env())

    def test_hard_delta_default(self):
        # large d at tiny budget hits the 1/4 cap
        assert default_hard_delta(100, 10) == 0.25
        assert default_hard_delta(4, 10) == pytest.approx(
            np.sqrt(4 / (16.0 * (16.0 / 3.0) * 10)))
        b = 4000
        expected = np.sqrt(8 / (16.0 * (16.0 / 3.0) * b))
        assert abs(default_hard_delta(8, b) - expected) < 1e-12


class TestMarginals:
    def test_segment_tilt_reweights(self):
        m = SegmentMarginal((0.5, 0.5))
        t = m.tilted((1.0, 0.0), np.log(3.0))
        np.testing.assert_allclose(t.probs, (0.75, 0.25))

    @pytest.mark.parametrize("direction", [(1.0,), (1.0, 0.0, -1.0, 0.0, 1.0), ((1.0,) * 4,)])
    def test_tilt_direction_must_match_the_support(self, direction):
        """(1.0,) on four segments used to broadcast: every segment got the same
        weight, so the "tilted" marginal stayed uniform."""
        with pytest.raises(EnvSpecError, match="tilt direction"):
            SegmentMarginal((0.25,) * 4).tilted(direction, 2.0)

    def test_box_tilt_rejected(self):
        with pytest.raises(EnvSpecError):
            BoxMarginal((-1.0,), (1.0,)).tilted((1.0,), 0.5)

    def test_hard_marginal_uniformity_chi_square(self):
        env = HardInstance(d=4, delta=0.1, theta_signs=(1, 1, -1, -1))
        pvals = []
        for seed in range(5):
            pool = sample_pool(env, 2000, seed=seed)
            counts = np.bincount(pool.xs[:, 0].astype(int), minlength=4)
            pvals.append(stats.chisquare(counts).pvalue)
        assert min(pvals) > 1e-4

    def test_explicit_support_points(self):
        pts = ((-1.0, 0.5), (1.0, -0.5))
        m = SegmentMarginal((0.3, 0.7), pts)
        np.testing.assert_array_equal(m.support_points(), np.asarray(pts))
        xs = m.sample(500, rng_for(2))
        assert set(map(tuple, xs)) <= set(pts)

    def test_points_survive_tilt(self):
        pts = ((0.0,), (1.0,))
        t = SegmentMarginal((0.5, 0.5), pts).tilted((1.0, 0.0), 0.7)
        assert t.points == pts

    def test_points_length_mismatch_rejected(self):
        with pytest.raises(EnvSpecError):
            SegmentMarginal((0.5, 0.5), ((0.0,),))

    @pytest.mark.parametrize("lows, highs", [
        ((np.nan,), (1.0,)), ((0.0,), (np.nan,)), ((0.0,), (np.inf,)),
        ((-np.inf,), (0.0,)), ((np.inf,), (np.inf,)), ((-1.0, -1e308), (1.0, 1e308)),
    ])
    def test_box_width_must_be_finite(self, lows, highs):
        """NaN and infinite bounds, and +-1e308 whose width overflows, fail at
        construction without a warning; they used to fail only at the first
        draw, with numpy's OverflowError."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EnvSpecError, match="box widths must be finite"):
                BoxMarginal(lows, highs)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 2**63 - 1),
           st.lists(st.tuples(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150),
                              st.booleans()), min_size=1, max_size=5))
    def test_box_sample_is_generator_uniform_bit_for_bit(self, n, seed, dims):
        """BoxMarginal.sample scales rng.random in place; Generator.uniform on
        the same bounds is the reference, for every byte of the draw and the
        state of the stream after it. A True flag makes a zero-width dimension."""
        lows = [min(a, b) for a, b, _ in dims]
        highs = [lo if flat else max(a, b) for lo, (a, b, flat) in zip(lows, dims)]
        box = BoxMarginal(tuple(lows), tuple(highs))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = box.sample(n, rng)
        want = ref.uniform(np.asarray(lows), np.asarray(highs), size=(n, len(dims)))
        assert got.shape == want.shape == (n, len(dims))
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref.random()


NO_SHIFT = {"kind": "none"}


def linear_doc(theta_star, marginal, feature_map=None, baseline_weights=(0.0, 0.0),
               **blocks):
    """A fresh env.json document of a linear world with S = 1 and m0 = 1/2;
    blocks adds obs_policy and obs_shift."""
    return {"seed": 0, "n_obs": 0, "n_pool": 0,
            "env": {"kind": "linear", "theta_star": list(theta_star), "S": 1.0,
                    "baseline_intercept": 0.5,
                    "baseline_weights": list(baseline_weights),
                    "feature_map": feature_map or {
                        "kind": "identity", "output_dim": 2, "norm_bound": 2.0,
                        "weight": None, "offset": None},
                    "marginal": marginal},
            **blocks}


def hard_doc(signs, S, seed=0, n_obs=0, n_pool=0, **blocks):
    """A fresh env.json document of a hard instance with Delta = 0.2."""
    return {"seed": seed, "n_obs": n_obs, "n_pool": n_pool,
            "env": {"kind": "hard", "d": len(signs), "delta": 0.2,
                    "theta_signs": list(signs), "S": S},
            **blocks}


class TestEnvJson:
    def test_hard_round_trip(self):
        env = HardInstance(d=3, delta=0.2, theta_signs=(1, -1, 1))
        doc = hard_doc([1, -1, 1], 0.34641016151377546, seed=5, n_obs=10, n_pool=20)
        env2, policy, obs_marginal = env_from_json(doc)
        np.testing.assert_allclose(env2.theta_star, env.theta_star)
        assert policy is None
        assert obs_marginal is env2.marginal

    def test_linear_round_trip_with_policy(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=2.0)
        pts = ((-1.0, -0.5), (1.0, 0.5))
        env = LinearEnv(theta_star=(0.2, 0.1), feature_map=fmap, norm_budget=1.0,
                        marginal=SegmentMarginal((0.4, 0.6), pts))
        policy = ThresholdPolicy(direction=(0.0, 1.0), cutoff=0.0, leak=0.02)
        doc = linear_doc((0.2, 0.1), {"kind": "segments", "probs": [0.4, 0.6],
                                      "points": [[-1.0, -0.5], [1.0, 0.5]]},
                         obs_policy={"kind": "threshold", "direction": [0.0, 1.0],
                                     "cutoff": 0.0, "leak": 0.02},
                         obs_shift={"kind": "tilt", "direction": [1.0, 0.0],
                                    "strength": 0.8})
        env2, policy2, obs_marginal2 = env_from_json(doc)
        np.testing.assert_allclose(env2.theta_star, env.theta_star)
        assert env2.marginal.points == pts
        assert policy2 == policy
        assert obs_marginal2 == env.marginal.tilted((1.0, 0.0), 0.8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(EnvSpecError):
            env_from_json({"env": {"kind": "cubic"}})

    def box_doc(self):
        return linear_doc((0.2, 0.1), {"kind": "box", "lows": [-1.0, -1.0],
                                       "highs": [1.0, 1.0]},
                          obs_policy={"kind": "threshold", "direction": [1.0, 0.0],
                                      "cutoff": 0.0, "leak": 0.05},
                          obs_shift=dict(NO_SHIFT))

    def segment_doc(self):
        return linear_doc((0.2, 0.1), {"kind": "segments", "probs": [0.4, 0.6],
                                       "points": [[-1.0, 0.0], [1.0, 0.0]]},
                          obs_policy={"kind": "logistic", "weights": [2.0, 0.0]})

    def hard_doc(self):
        return hard_doc([1, -1], 0.28284271247461906, seed=1, n_obs=10, n_pool=10)

    @pytest.mark.parametrize("world, block, key", [
        ("box_doc", None, "obs_shfit"),
        ("hard_doc", "env", "Delta"),
        ("box_doc", "env", "theta"),
        ("box_doc", "feature_map", "norm"),
        ("box_doc", "marginal", "low"),
        ("segment_doc", "marginal", "prob"),
        ("box_doc", "obs_policy", "leek"),
        ("segment_doc", "obs_policy", "sharpnes"),
        ("segment_doc", "obs_policy", "sharpness"),
        ("box_doc", "obs_shift", "strenght"),
    ])
    def test_unknown_keys_rejected(self, world, block, key):
        """A misspelt key used to be dropped: "leek" gave leak=0 and a
        top-level "obs_shfit" gave no covariate shift, without an error. A
        logistic log's "sharpness" is folded into its weights, so it is
        unknown too."""
        doc = getattr(self, world)()
        env_from_json(doc)
        target = doc if block is None else doc[block] if block in doc \
            else doc["env"][block]
        target[key] = 0.05
        with pytest.raises(ValueError, match=f"'{key}'"):
            env_from_json(doc)

    @pytest.mark.parametrize("key", ["direction", "strength"])
    def test_tilt_without_a_key_rejected(self, key):
        """A tilt without its strength used to parse to strength 0, an
        untilted log, and one without its direction failed on its shape."""
        doc = self.hard_doc()
        doc["obs_shift"] = {"kind": "tilt", "direction": [1.0, -1.0], "strength": 0.5}
        env_from_json(doc)
        del doc["obs_shift"][key]
        with pytest.raises(EnvSpecError, match=f"'{key}'"):
            env_from_json(doc)

    def test_unknown_marginal_kind_rejected(self):
        doc = self.box_doc()
        doc["env"]["marginal"]["kind"] = "boxes"
        with pytest.raises(EnvSpecError, match="boxes"):
            env_from_json(doc)


@pytest.mark.parametrize("parse, doc, key", [
    (protocol_config_from_json,
     {"budget": 5, "randomization": {"kind": "constant", "weights": [0.1, 0.0]}},
     "weights"),
    (protocol_config_from_json,
     {"budget": 5, "randomization": {"kind": "affine", "weights": [0.1], "p": 0.3}}, "p"),
    (env_from_json, hard_doc([1, -1], 0.3, obs_shift={"kind": "none", "strength": 3.0}),
     "strength"),
    (env_from_json, {"env": {"kind": "hard", "d": 2, "delta": 0.2, "theta_signs": [1, -1],
                             "theta_star": [0.2, -0.2]}}, "theta_star"),
    (env_from_json, linear_doc((0.2, 0.1), {"kind": "segments", "probs": [0.4, 0.6],
                                            "points": [[-1.0, 0.0], [1.0, 0.0]],
                                            "lows": [-1.0, -1.0]}), "lows"),
    (env_from_json, hard_doc([1, -1], 0.3, obs_policy={
        "kind": "threshold", "direction": [1.0, 0.0], "cutoff": 0.5,
        "weights": [1.0, 0.0]}), "weights"),
], ids=["constant-weights", "affine-p", "none-strength", "hard-theta_star",
        "segments-lows", "threshold-weights"])
def test_a_key_only_a_sibling_kind_reads_is_rejected(parse, doc, key):
    """Each tagged block used to accept the union of its kinds' keys, so
    {"kind": "none", "strength": 3.0} drew an unshifted log without an error."""
    with pytest.raises(ValueError, match=f"'{key}'"):
        parse(doc)


def parsed_worlds():
    """Parsed (env, policy, obs_marginal) worlds of every feature map and marginal kind."""
    logistic = {"kind": "logistic", "weights": [2.0, -1.0]}
    affine = {"kind": "affine-projection", "output_dim": 2, "norm_bound": 3.0,
              "weight": [[0.5, 0.2, -0.3], [0.1, -0.4, 0.6]], "offset": [0.1, 0.0]}
    docs = {
        "identity-box": linear_doc(
            (0.2, -0.1), {"kind": "box", "lows": [-1.0, -1.0], "highs": [1.0, 1.0]},
            baseline_weights=(0.05, -0.05), obs_policy=logistic, obs_shift=NO_SHIFT),
        "affine-box": linear_doc(
            (0.2, -0.1), {"kind": "box", "lows": [-1.0, -1.0, 0.0],
                          "highs": [1.0, 1.0, 0.5]},
            feature_map=affine, baseline_weights=(0.05, -0.05), obs_policy=logistic,
            obs_shift=NO_SHIFT),
        "segment-points": linear_doc(
            (0.2, -0.1), {"kind": "segments", "probs": [0.3, 0.7],
                          "points": [[-1.0, 0.5], [0.8, -0.2]]},
            baseline_weights=(0.05, -0.05), obs_policy=logistic,
            obs_shift={"kind": "tilt", "direction": [1.0, 1.0], "strength": 0.5}),
        "hard": hard_doc(
            [1, -1, 1], 0.34641016151377546,
            obs_policy={"kind": "threshold", "direction": [1.0, 0.0, 0.0],
                        "cutoff": 0.5, "leak": 0.02},
            obs_shift={"kind": "tilt", "direction": [1.0, -1.0, 0.0], "strength": 0.7}),
    }
    return {name: env_from_json(doc) for name, doc in docs.items()}


@pytest.mark.parametrize("name", sorted(parsed_worlds()))
def test_parsed_world_survives_a_process_boundary(name):
    """Sweep workers get the parsed world by pickle: the copy maps and draws
    bit for bit as the original does."""
    world = parsed_worlds()[name]
    env, policy, obs_marginal = world
    copy_env, copy_policy, copy_marginal = pickle.loads(pickle.dumps(world))
    assert (copy_policy, copy_marginal) == (policy, obs_marginal)
    rng = rng_for(5)
    xs = env.sample_x(200, rng)
    ts = (rng.random(200) < 0.5).astype(int)
    u = rng.random(200)
    phis = env.feature_map.apply_many(xs)
    assert copy_env.feature_map.apply_many(xs).tobytes() == phis.tobytes()
    assert copy_env.draw_outcomes(phis, ts, u).tobytes() == env.draw_outcomes(phis, ts, u).tobytes()
    assert copy_policy.propensity(phis).tobytes() == policy.propensity(phis).tobytes()
