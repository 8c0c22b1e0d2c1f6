"""Tests for the acquisition signals, rank map, and top-m selection."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from budgex import acquisition
from budgex.acquisition import (AcquisitionWeights, LogisticHead,
                                composite_scores, ensemble_variance, fit_propensity,
                                overlap_deficit_many, rank_normalize, score_pool,
                                select_top_m, train_domain_classifier)
from budgex.core import FeatureMap, ObsLog, RctStream, sigmoid
from budgex.envs import (BoxMarginal, LinearEnv, LogisticPolicy, MarginalShift,
                         SegmentMarginal, ThresholdPolicy, sample_obs,
                         sample_pool)
from budgex.estimator import pseudo_outcome_values
from budgex.protocol import ProtocolConfig, run_protocol
from budgex._rng import rng_for

IDENTITY_1 = FeatureMap(kind="identity", output_dim=1, norm_bound=10.0)
IDENTITY_2 = FeatureMap(kind="identity", output_dim=2, norm_bound=10.0)
NO_LABELS = (np.zeros((0, 1)), np.zeros(0))  # empty randomized stream, d = 1


class TestEnsembleVariance:
    def test_identical_members_zero_variance(self):
        """Identical labeled rows: every resample is the same set, so every
        member is the same fit."""
        phis = np.ones((4, 1))
        yts = np.full(4, 2.0)
        v = ensemble_variance(phis, yts, np.ones((3, 1)), 1.0, 0, 1)
        np.testing.assert_array_equal(v, 0.0)

    def test_cold_start_zero_everywhere(self):
        v = ensemble_variance(*NO_LABELS, np.ones((7, 1)), 1.0, 0, 0)
        np.testing.assert_array_equal(v, 0.0)

    def test_runs_at_two_seeds_draw_different_bootstrap_keys(self, monkeypatch):
        """Round k resamples from the stream of (run seed, k): replications
        and --seed values do not share bootstrap indices."""
        env, pool, obs = box_threshold_world(11, n_pool=200, n_obs=200)
        keys = {}
        for seed in (11, 9999):
            seen = keys[seed] = []
            monkeypatch.setattr(acquisition, "rng_for",
                                lambda *key, seen=seen: seen.append(key) or rng_for(*key))
            cfg = ProtocolConfig(budget=60, max_batch=20, strategy="active", seed=seed)
            run_protocol(cfg, env, pool_units=pool, obs=obs)
        assert len(keys[11]) == len(keys[9999]) == 2  # rounds 2 and 3 have labels
        assert not set(keys[11]) & set(keys[9999])

    def test_bootstrap_variance_matches_enumeration(self, monkeypatch):
        """Two conflicting labels: member predictions are -4/(lam+2), 0, or
        +4/(lam+2) with probabilities 1/4, 1/2, 1/4 over resample draws, so
        the variance of member predictions converges to 8/(lam+2)^2."""
        monkeypatch.setattr(acquisition, "MEMBERS", 800)
        lam = 1.0
        phis = np.ones((2, 1))
        yts = np.array([2.0, -2.0])
        v = float(ensemble_variance(phis, yts, np.ones((1, 1)), lam, 3, 1)[0])
        assert v > 0.0
        assert abs(v - 8.0 / (lam + 2.0) ** 2) < 0.15


class TestDomainClassifier:
    def test_identical_distributions_stay_near_chance(self):
        rng = rng_for(51)
        pool = rng.standard_normal((400, 2))
        current = rng.standard_normal((400, 2))
        clf = train_domain_classifier(pool, current)
        held_out = rng.standard_normal((1000, 2))
        assert abs(float(clf.predict(held_out).mean()) - 0.5) < 0.05

    def test_identical_classes_score_half(self):
        rng = rng_for(53)
        rows = rng.standard_normal((10, 2))
        clf = train_domain_classifier(rows, rows.copy())
        np.testing.assert_allclose(clf.predict(rng.standard_normal((5, 2))), 0.5,
                                   rtol=0, atol=1e-12)

    def test_separable_classes_scored_apart(self):
        pool = np.column_stack([np.full(200, 3.0), np.zeros(200)])
        current = np.column_stack([np.full(200, -3.0), np.zeros(200)])
        clf = train_domain_classifier(pool, current)
        assert float(clf.predict(pool).mean()) > 0.9

    def test_class_imbalance_does_not_fake_shift(self):
        """Same marginal in both classes but 5x more pool rows: scores must
        not order units by how common they are."""
        rng = rng_for(57)
        base = rng.standard_normal((200, 2))
        clf = train_domain_classifier(np.repeat(base, 5, axis=0), base)
        scores = clf.predict(base)
        assert abs(float(scores.mean()) - 0.5) < 0.02

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            train_domain_classifier(np.zeros((0, 2)), np.ones((3, 2)))

    def test_score_formula(self):
        clf = LogisticHead(weights=np.array([1.0, 0.0]), bias=0.0)
        phi = IDENTITY_2.apply_many([[np.log(3.0), 0.0]])[0]
        assert clf.predict(phi)[0] == pytest.approx(0.75)
        zero = LogisticHead(weights=np.zeros(2), bias=0.0)
        assert zero.predict(IDENTITY_2.apply_many([[1.0, 1.0]])[0])[0] == 0.5
        saturated = LogisticHead(weights=np.zeros(2), bias=1e4)
        phi = IDENTITY_2.apply_many([[0.0, 0.0]])[0]
        assert saturated.predict(phi)[0] == pytest.approx(1.0)


FEATURE = st.floats(-3.0, 3.0)


def draw_rows(data, n, d):
    return np.array(data.draw(st.lists(st.lists(FEATURE, min_size=d, max_size=d),
                                       min_size=n, max_size=n)))


def assert_stationary(phis, labels, sample_weight, w, b):
    """(w, b) zeroes the gradient of the weighted mean cross-entropy
    + (1e-3 / 2) ||w||^2, with the bias unpenalized."""
    assert np.all(np.isfinite(w)) and np.isfinite(b)
    sw = sample_weight / np.sum(sample_weight)
    r = sw * (sigmoid(phis @ w + b) - labels)
    grad = np.append(phis.T @ r + 1e-3 * w, r.sum())
    assert np.max(np.abs(grad)) < 1e-8


class TestLogisticHeadFit:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 4), st.booleans(), st.data())
    def test_propensity_head_is_stationary(self, n, d, separable, data):
        """Random labels, or labels a hyperplane separates perfectly."""
        phis = draw_rows(data, n, d)
        if separable:
            u = np.array(data.draw(st.lists(FEATURE, min_size=d, max_size=d)))
            ts = (phis @ u > 0).astype(int)
        else:
            ts = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                             max_size=n)))
        assume(0 < ts.sum() < n)
        model = fit_propensity(ObsLog(xs=phis, ts=ts, ys=np.zeros(n)), phis)
        assert_stationary(phis, ts, np.ones(n), model.weights, model.bias)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 4),
           st.floats(0.0, 8.0), st.data())
    def test_balanced_domain_head_is_stationary(self, n_pool, n_cur, d, shift, data):
        """Class-balanced weights; a shift above 6 separates the classes."""
        pool = draw_rows(data, n_pool, d) + shift
        current = draw_rows(data, n_cur, d)
        clf = train_domain_classifier(pool, current)
        sw = np.concatenate([np.full(n_pool, 0.5 / n_pool),
                             np.full(n_cur, 0.5 / n_cur)])
        labels = np.concatenate([np.ones(n_pool), np.zeros(n_cur)])
        assert_stationary(np.vstack([pool, current]), labels, sw, clf.weights,
                          clf.bias)

    def test_non_finite_input_rejected(self):
        rng = rng_for(87)
        rows = rng.standard_normal((10, 2))
        rows[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            train_domain_classifier(rows, rng.standard_normal((10, 2)))
        obs = ObsLog(xs=np.zeros((10, 1)), ts=np.arange(10) % 2, ys=np.zeros(10))
        with pytest.raises(ValueError, match="finite"):
            fit_propensity(obs, rows)
        with pytest.raises(ValueError, match="finite"):
            acquisition._fit_logistic(np.ones((2, 1)), np.array([1.0, np.nan]),
                                      np.full(2, 0.5))

    def test_one_class_log_rejected(self):
        obs = ObsLog(xs=np.zeros((4, 1)), ts=np.ones(4, dtype=int), ys=np.zeros(4))
        with pytest.raises(ValueError, match="both classes"):
            fit_propensity(obs, IDENTITY_1.apply_many(obs.xs))

    def test_large_features_do_not_saturate_the_fit(self):
        """Features near 100 in size: a full Newton step from zero pushes
        every logit past the sigmoid's range, and the bias then has no
        curvature left (a singular Hessian). Halving that step keeps the
        fit on its way to the stationary point."""
        rng = rng_for(559)
        phis = rng.uniform(-100.0, 100.0, (12, 2))
        ts = (phis @ rng.standard_normal(2) > 0).astype(int)
        model = fit_propensity(ObsLog(xs=phis, ts=ts, ys=np.zeros(12)), phis)
        assert_stationary(phis, ts, np.ones(12), model.weights, model.bias)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(acquisition, "MAX_ITER", 1)
        pool = np.column_stack([np.full(20, 3.0), np.zeros(20)])
        current = np.column_stack([np.full(20, -3.0), np.zeros(20)])
        with pytest.raises(RuntimeError, match="converge"):
            train_domain_classifier(pool, current)

    @pytest.mark.parametrize("seed", [9, 11, 23])
    def test_converges_at_feature_scale_1e4(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(4, 12)
        X = rng.uniform(-1e4, 1e4, (n, 4))
        y = (rng.random(n) < 0.5)
        acquisition._fit_logistic(X, y.astype(float), np.full(n, 1.0 / n))


def box_threshold_world(seed, n_pool=2000, n_obs=2000):
    """The 5-d box world and a log treated iff x_0 > 0, up to a 0.02 leak."""
    fmap = FeatureMap(kind="identity", output_dim=5, norm_bound=np.sqrt(5.0))
    env = LinearEnv(theta_star=(0.08, -0.06, 0.05, -0.04, 0.03), feature_map=fmap,
                    norm_budget=0.2, marginal=BoxMarginal((-1.0,) * 5, (1.0,) * 5))
    policy = ThresholdPolicy(direction=(1.0, 0.0, 0.0, 0.0, 0.0), cutoff=0.0,
                             leak=0.02)
    return (env, sample_pool(env, n_pool, seed),
            sample_obs(env, policy, MarginalShift(), n_obs, seed + 1))


def gradient_descent_fit(phis, labels, lr=1.0, steps=2000):
    """The propensity fit that IRLS replaced: full-batch gradient descent on
    the unpenalized mean cross-entropy, from zero."""
    w, b = np.zeros(phis.shape[1]), 0.0
    for _ in range(steps):
        g = (sigmoid(phis @ w + b) - labels) / len(labels)
        w -= lr * (phis.T @ g)
        b -= lr * g.sum()
    return w, b


class TestBoxThresholdLog:
    def test_overlap_ranking_matches_gradient_descent_fit(self):
        env, pool, obs = box_threshold_world(89)
        obs_phis = env.feature_map.apply_many(obs.xs)
        pool_phis = env.feature_map.apply_many(pool.xs)
        o = overlap_deficit_many(fit_propensity(obs, obs_phis), pool_phis)
        w, b = gradient_descent_fit(obs_phis, obs.ts)
        o_old = overlap_deficit_many(LogisticHead(weights=w, bias=b), pool_phis)
        assert stats.spearmanr(o, o_old).statistic >= 0.99

    def test_first_round_domain_signal_is_not_flat(self):
        """The raw d of the first active round spans more than 0.01; an
        unconverged head leaves it within 1e-3 of 0.5 for rank_normalize
        to stretch into noise."""
        env, pool, obs = box_threshold_world(97)
        cfg = ProtocolConfig(budget=100, max_batch=50, strategy="active", seed=98)
        result = run_protocol(cfg, env, pool_units=pool, obs=obs)
        assert np.ptp(result.scores[0]["d"]) > 0.01


class TestPropensityAndOverlap:
    def test_overlap_deficit_values(self):
        m = LogisticHead(weights=np.zeros(1), bias=0.0)
        assert overlap_deficit_many(m, IDENTITY_1.apply_many([[0.0]]))[0] == 0.0
        m9 = LogisticHead(weights=np.zeros(1),
                          bias=float(np.log(9.0)))  # e_hat = 0.9
        assert overlap_deficit_many(m9, IDENTITY_1.apply_many([[0.0]]))[0] == pytest.approx(0.8)
        m99 = LogisticHead(weights=np.zeros(1), bias=float(np.log(99.0)))
        assert overlap_deficit_many(m99, IDENTITY_1.apply_many([[0.0]]))[0] == pytest.approx(0.98)

    def test_fit_rejects_randomized_records(self):
        stream = RctStream(xs=[[0.0]], ts=[1], ys=[1.0], ps=[0.5], seq=[1])
        with pytest.raises(ValueError, match="OBS"):
            fit_propensity(stream, IDENTITY_1.apply_many([[0.0]]))

    def test_fit_recovers_strong_targeting(self):
        rng = rng_for(61)
        xs = np.where(rng.random(800) < 0.5, 1.0, -1.0)
        ts = (xs > 0).astype(int)  # deterministic targeting on the sign
        obs = ObsLog(xs=xs[:, None], ts=ts, ys=np.zeros(len(ts)))
        model = fit_propensity(obs, IDENTITY_1.apply_many(obs.xs))
        assert overlap_deficit_many(model, IDENTITY_1.apply_many([[1.0]]))[0] > 0.9
        assert overlap_deficit_many(model, IDENTITY_1.apply_many([[-1.0]]))[0] > 0.9


class TestRankNormalize:
    def test_distinct_values(self):
        np.testing.assert_allclose(rank_normalize([3.0, 1.0, 2.0]),
                                   [1.0, 1.0 / 3.0, 2.0 / 3.0])

    def test_ties_share_rank(self):
        np.testing.assert_allclose(rank_normalize([2.0, 2.0, 1.0]),
                                   [1.0, 1.0, 1.0 / 3.0])

    def test_single_element(self):
        np.testing.assert_array_equal(rank_normalize([42.0]), [1.0])

    def test_range_and_max(self):
        rng = rng_for(67)
        for _ in range(20):
            vals = rng.standard_normal(rng.integers(1, 40))
            eta = rank_normalize(vals)
            assert np.all(eta > 0.0) and np.all(eta <= 1.0)
            assert eta.max() == 1.0

    def test_monotone_transform_invariance(self):
        rng = rng_for(71)
        for g in (lambda x: x**3, np.exp):
            vals = rng.standard_normal(30)
            np.testing.assert_allclose(rank_normalize(vals),
                                       rank_normalize(g(vals)))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            rank_normalize([])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 2.5]),
                              st.floats(allow_nan=False)), min_size=1, max_size=30))
    def test_monotone_and_tied_values_share_one_rank(self, values):
        v = np.array(values)
        eta = rank_normalize(v)
        pairs = eta[:, None], eta[None, :]
        assert np.all((pairs[0] < pairs[1])[v[:, None] < v[None, :]])
        assert np.all((pairs[0] == pairs[1])[v[:, None] == v[None, :]])
        np.testing.assert_array_equal(eta, (v[None, :] <= v[:, None]).sum(axis=1) / len(v))


class TestCompositeAndSelection:
    def test_weighted_sum(self):
        bds = composite_scores(np.array([0]), [1.0], [0.5], [0.5],
                               AcquisitionWeights(0.5, 1.0, 0.7))
        # single unit: every eta is 1.0, so S = 0.5 + 1.0 + 0.7
        assert bds["S"][0] == pytest.approx(2.2)

    def test_documented_arithmetic(self):
        w = AcquisitionWeights(0.5, 1.0, 0.7)
        assert w.alpha * 1.0 + w.beta * 0.5 + w.gamma * 0.5 == pytest.approx(1.35)

    def test_projection_weights(self):
        rng = rng_for(73)
        v, d, o = rng.random(6), rng.random(6), rng.random(6)
        bds = composite_scores(np.arange(6), v, d, o, AcquisitionWeights(1.0, 0.0, 0.0))
        np.testing.assert_allclose(bds["S"], rank_normalize(v))

    def test_breakdown_identity(self):
        rng = rng_for(79)
        w = AcquisitionWeights(0.5, 1.0, 0.7)
        bds = composite_scores(np.arange(5), rng.random(5), rng.random(5),
                               rng.random(5), w)
        for b in bds:
            assert b["S"] == pytest.approx(
                w.alpha * b["eta_v"] + w.beta * b["eta_d"] + w.gamma * b["eta_o"])

    def test_select_top_m(self):
        bds = composite_scores(np.array([0, 1, 2]), [0.9, 0.5, 0.7],
                               [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                               AcquisitionWeights(1.0, 0.0, 0.0))
        assert set(bds["id"][select_top_m(bds, 2)]) == {0, 2}

    def test_tie_break_by_lowest_id(self):
        bds = composite_scores(np.array([2, 0, 1]), [1.0, 1.0, 1.0],
                               [1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                               AcquisitionWeights(0.5, 1.0, 0.7))
        assert list(bds["id"][select_top_m(bds, 2)]) == [0, 1]

    def test_select_whole_pool(self):
        bds = composite_scores(np.arange(4), np.arange(4.0), np.arange(4.0),
                               np.arange(4.0), AcquisitionWeights())
        assert len(select_top_m(bds, 4)) == 4

    def test_oversized_selection_rejected(self):
        bds = composite_scores(np.array([0]), [1.0], [1.0], [1.0],
                               AcquisitionWeights())
        with pytest.raises(ValueError):
            select_top_m(bds, 2)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            AcquisitionWeights(0.0, 0.0, 0.0)

    def test_monotone_transform_leaves_selection_unchanged(self):
        rng = rng_for(83)
        for _ in range(10):
            v, d, o = rng.random(20), rng.random(20), rng.random(20)
            base = composite_scores(np.arange(20), v, d, o, AcquisitionWeights())
            warped = composite_scores(np.arange(20), v**3, np.exp(d), o,
                                      AcquisitionWeights())
            assert list(base["S"]) == list(warped["S"])
            assert list(select_top_m(base, 5)) == list(select_top_m(warped, 5))


class TestScorePool:
    def pool_and_obs(self, seed):
        from budgex.core import FeatureMap
        from budgex.envs import LinearEnv
        fmap = FeatureMap(kind="identity", output_dim=1, norm_bound=2.0)
        env = LinearEnv(theta_star=(0.3,), feature_map=fmap, norm_budget=1.0,
                        marginal=SegmentMarginal((0.3, 0.4, 0.3),
                                                 ((-1.0,), (0.0,), (1.0,))))
        policy = LogisticPolicy(weights=(3.0,), sharpness=2.0)
        pool = sample_pool(env, 60, seed)
        obs = sample_obs(env, policy, MarginalShift(), 300, seed + 1)
        return env, fmap, pool, obs, policy

    def test_scoring_determinism(self):
        env, fmap, pool, obs, _ = self.pool_and_obs(5)
        obs_phis = fmap.apply_many(obs.xs)
        prop = fit_propensity(obs, obs_phis)
        cand_phis = fmap.apply_many(pool.xs)
        a = score_pool(pool.ids, cand_phis, *NO_LABELS, obs_phis, prop,
                       AcquisitionWeights(), 1.0, 9, 0)
        b = score_pool(pool.ids, cand_phis, *NO_LABELS, obs_phis, prop,
                       AcquisitionWeights(), 1.0, 9, 0)
        assert np.array_equal(a, b)

    def test_overlap_targeting_beats_pool_average(self):
        """gamma-only selection concentrates where history was deterministic."""
        wins = 0
        for seed in range(50):
            env, fmap, pool, obs, policy = self.pool_and_obs(100 + 3 * seed)
            obs_phis = fmap.apply_many(obs.xs)
            prop = fit_propensity(obs, obs_phis)
            bds = score_pool(pool.ids, fmap.apply_many(pool.xs), *NO_LABELS,
                             obs_phis, prop,
                             AcquisitionWeights(0.0, 0.0, 0.7), 1.0, 1, 0)
            chosen = bds["id"][select_top_m(bds, 15)]
            phis = fmap.apply_many(pool.xs)
            true_dev = np.abs(policy.propensity(phis) - 0.5)
            sel_mask = np.isin(pool.ids, chosen)
            if true_dev[sel_mask].mean() >= true_dev.mean():
                wins += 1
        assert wins >= 45

    def test_queried_units_excluded(self):
        env, fmap, pool, obs, _ = self.pool_and_obs(7)
        obs_phis = fmap.apply_many(obs.xs)
        prop = fit_propensity(obs, obs_phis)
        bds = score_pool(pool.ids[1:], fmap.apply_many(pool.xs[1:]), *NO_LABELS,
                         obs_phis, prop, AcquisitionWeights(), 1.0, 0, 0)
        assert 0 not in set(bds["id"])
        assert len(bds) == len(pool) - 1
