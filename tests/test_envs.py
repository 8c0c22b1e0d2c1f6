"""Tests for the synthetic two-source world generators."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from budgex.core import FeatureMap
from budgex.envs import (BoxMarginal, EnvSpecError, HardInstance, LinearEnv,
                         LogisticPolicy, MarginalShift, SegmentMarginal,
                         ThresholdPolicy, default_hard_delta, env_from_json,
                         env_to_json, sample_obs, sample_pool)
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
        obs = sample_obs(env, policy, MarginalShift(), 2000, seed=11)
        for x, t in zip(obs.xs, obs.ts):
            expected = 1 if int(x[0]) == 0 else 0
            assert t == expected

    def test_balanced_logistic_policy(self):
        env = hard_env(d=2)
        policy = LogisticPolicy(weights=(0.0, 0.0))
        obs = sample_obs(env, policy, MarginalShift(), 4000, seed=5)
        treated = int(obs.ts.sum())
        assert abs(treated - 2000) < 4 * np.sqrt(4000 * 0.25)

    def test_determinism(self):
        env = hard_env()
        policy = LogisticPolicy(weights=(1.0, -1.0))
        a = sample_obs(env, policy, MarginalShift(), 200, seed=9)
        b = sample_obs(env, policy, MarginalShift(), 200, seed=9)
        assert all(np.array_equal(getattr(a, c), getattr(b, c))
                   for c in ("xs", "ts", "ys"))

    def test_outcome_laws_shared_with_pool(self):
        """P(Y=1 | x, t) matches the environment's conditional mean."""
        env = hard_env(d=2, delta=0.3, signs=(1, -1))
        policy = LogisticPolicy(weights=(0.0, 0.0))
        obs = sample_obs(env, policy, MarginalShift(), 100_000, seed=21)
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
    base = env.m0 + env.feature_map.apply_many(xs) @ env.wm
    return base + sign * 0.5 * (env.feature_map.apply_many(xs) @ env.theta_star)


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
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=2.0)
        env = LinearEnv(theta_star=(0.3, -0.2), feature_map=fmap, norm_budget=1.0,
                        marginal=BoxMarginal((-1.0, -1.0), (1.0, 1.0)))
        xs = env.sample_x(10_000, rng_for(4))
        taus = fmap.apply_many(xs) @ env.theta_star
        direct = fmap.apply_many(xs) @ np.array([0.3, -0.2])
        assert np.max(np.abs(taus - direct)) == 0.0


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


class TestEnvJson:
    def test_hard_round_trip(self):
        env = HardInstance(d=3, delta=0.2, theta_signs=(1, -1, 1))
        doc = env_to_json(env, seed=5, n_obs=10, n_pool=20)
        env2, policy, shift = env_from_json(doc)
        np.testing.assert_allclose(env2.theta_star, env.theta_star)
        assert policy is None
        assert shift.kind == "none"

    def test_linear_round_trip_with_policy(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=2.0)
        pts = ((-1.0, -0.5), (1.0, 0.5))
        env = LinearEnv(theta_star=(0.2, 0.1), feature_map=fmap, norm_budget=1.0,
                        marginal=SegmentMarginal((0.4, 0.6), pts))
        policy = ThresholdPolicy(direction=(0.0, 1.0), cutoff=0.0, leak=0.02)
        shift = MarginalShift(kind="tilt", direction=(1.0, 0.0), strength=0.8)
        doc = env_to_json(env, obs_policy=policy, obs_shift=shift)
        env2, policy2, shift2 = env_from_json(doc)
        np.testing.assert_allclose(env2.theta_star, env.theta_star)
        assert env2.marginal.points == pts
        assert policy2 == policy
        assert shift2 == shift

    def test_unknown_kind_rejected(self):
        with pytest.raises(EnvSpecError):
            env_from_json({"env": {"kind": "cubic"}})

    def box_doc(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=2.0)
        env = LinearEnv(theta_star=(0.2, 0.1), feature_map=fmap, norm_budget=1.0,
                        marginal=BoxMarginal((-1.0, -1.0), (1.0, 1.0)))
        return env_to_json(env, obs_policy=ThresholdPolicy((1.0, 0.0), 0.0, 0.05),
                           obs_shift=MarginalShift())

    def segment_doc(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=2.0)
        env = LinearEnv(theta_star=(0.2, 0.1), feature_map=fmap, norm_budget=1.0,
                        marginal=SegmentMarginal((0.4, 0.6), ((-1.0, 0.0), (1.0, 0.0))))
        return env_to_json(env, obs_policy=LogisticPolicy((1.0, 0.0), 2.0))

    def hard_doc(self):
        return env_to_json(HardInstance(d=2, delta=0.2, theta_signs=(1, -1)), seed=1,
                           n_obs=10, n_pool=10)

    @pytest.mark.parametrize("world, block, key", [
        ("box_doc", None, "obs_shfit"),
        ("hard_doc", "env", "Delta"),
        ("box_doc", "env", "theta"),
        ("box_doc", "feature_map", "norm"),
        ("box_doc", "marginal", "low"),
        ("segment_doc", "marginal", "prob"),
        ("box_doc", "obs_policy", "leek"),
        ("segment_doc", "obs_policy", "sharpnes"),
        ("box_doc", "obs_shift", "strenght"),
    ])
    def test_unknown_keys_rejected(self, world, block, key):
        """A misspelt key used to be dropped: "leek" gave leak=0 and a
        top-level "obs_shfit" gave no covariate shift, without an error."""
        doc = getattr(self, world)()
        env_from_json(doc)
        target = doc if block is None else doc[block] if block in doc \
            else doc["env"][block]
        target[key] = 0.05
        with pytest.raises(ValueError, match=f"'{key}'"):
            env_from_json(doc)

    def test_unknown_marginal_kind_rejected(self):
        doc = self.box_doc()
        doc["env"]["marginal"]["kind"] = "boxes"
        with pytest.raises(EnvSpecError, match="boxes"):
            env_from_json(doc)


def parsed_worlds():
    """Parsed (env, policy, shift) worlds of every feature map and marginal kind."""
    def linear(fmap, marginal, shift):
        env = LinearEnv(theta_star=(0.2, -0.1), feature_map=fmap, norm_budget=1.0,
                        marginal=marginal, baseline_weights=(0.05, -0.05))
        return env_to_json(env, obs_policy=LogisticPolicy((1.0, -0.5), 2.0),
                           obs_shift=shift)

    box = BoxMarginal((-1.0, -1.0, 0.0), (1.0, 1.0, 0.5))
    affine = FeatureMap(kind="affine-projection", output_dim=2, norm_bound=3.0,
                        weight=[[0.5, 0.2, -0.3], [0.1, -0.4, 0.6]], offset=[0.1, 0.0])
    docs = {
        "identity-box": linear(FeatureMap(kind="identity", output_dim=2, norm_bound=2.0),
                               BoxMarginal((-1.0, -1.0), (1.0, 1.0)), MarginalShift()),
        "affine-box": linear(affine, box, MarginalShift()),
        "segment-points": linear(FeatureMap(kind="identity", output_dim=2, norm_bound=2.0),
                                 SegmentMarginal((0.3, 0.7), ((-1.0, 0.5), (0.8, -0.2))),
                                 MarginalShift("tilt", (1.0, 1.0), 0.5)),
        "hard": env_to_json(HardInstance(d=3, delta=0.2, theta_signs=(1, -1, 1)),
                            obs_policy=ThresholdPolicy((1.0, 0.0, 0.0), 0.5, 0.02),
                            obs_shift=MarginalShift("tilt", (1.0, -1.0, 0.0), 0.7)),
    }
    return {name: env_from_json(doc) for name, doc in docs.items()}


@pytest.mark.parametrize("name", sorted(parsed_worlds()))
def test_parsed_world_survives_a_process_boundary(name):
    """Sweep workers get the parsed world by pickle: the copy maps and draws
    bit for bit as the original does."""
    world = parsed_worlds()[name]
    env, policy, shift = world
    copy_env, copy_policy, copy_shift = pickle.loads(pickle.dumps(world))
    assert (copy_policy, copy_shift) == (policy, shift)
    rng = rng_for(5)
    xs = env.sample_x(200, rng)
    ts = (rng.random(200) < 0.5).astype(int)
    u = rng.random(200)
    phis = env.feature_map.apply_many(xs)
    assert copy_env.feature_map.apply_many(xs).tobytes() == phis.tobytes()
    assert copy_env.draw_outcomes(phis, ts, u).tobytes() == env.draw_outcomes(phis, ts, u).tobytes()
    assert copy_policy.propensity(phis).tobytes() == policy.propensity(phis).tobytes()
