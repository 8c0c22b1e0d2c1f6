"""Tests for the acquisition signals, rank map, and top-m selection."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from budgex import acquisition
from budgex.acquisition import (AcquisitionWeights,
                                composite_scores, ensemble_variance, fit_propensity,
                                overlap_deficit_many, psi_gram, rank_normalize,
                                score_pool, select_top_m, train_domain_classifier)
from budgex.core import FeatureMap, ObsLog, RctStream, sigmoid
from budgex.envs import (BoxMarginal, HardInstance, LinearEnv, LogisticPolicy,
                         SegmentMarginal, ThresholdPolicy, sample_obs, sample_pool)
from budgex.protocol import ProtocolConfig, run_protocol
from budgex._rng import rng_for

IDENTITY_1 = FeatureMap(kind="identity", output_dim=1, norm_bound=10.0)
IDENTITY_2 = FeatureMap(kind="identity", output_dim=2, norm_bound=10.0)
NO_LABELS = (np.zeros((0, 1)), np.zeros(0))  # empty randomized stream, d = 1


class TestEnsembleVariance:
    def test_cold_start_zero_everywhere(self):
        v = ensemble_variance(*NO_LABELS, np.ones((7, 1)), 1.0)
        np.testing.assert_array_equal(v, 0.0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.floats(0.1, 10.0), st.data())
    def test_equals_the_leverage_of_the_ridge_design(self, n, d, lam, data):
        """v is c^T (lam I + Phi^T Phi)^-1 c per candidate c, by a brute-force
        inverse per candidate."""
        entries = st.floats(-2.0, 2.0)
        phis = np.array(data.draw(st.lists(entries, min_size=n * d, max_size=n * d))
                        ).reshape(n, d)
        yts = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
        cands = np.array(data.draw(st.lists(entries, min_size=3 * d, max_size=3 * d))
                         ).reshape(3, d)
        reference = [c @ np.linalg.inv(lam * np.eye(d) + phis.T @ phis) @ c
                     for c in cands]
        np.testing.assert_allclose(ensemble_variance(phis, yts, cands, lam), reference,
                                   rtol=1e-6, atol=1e-9)

    def test_unlabeled_segments_rank_above_labeled_ones(self):
        """On a one-hot design, v is 1/lam in a segment with no labeled row and
        1/(lam + n_j) in one with n_j rows: after round 1, every candidate of
        an unlabeled segment scores strictly above every labeled-segment one."""
        env = HardInstance(d=8, delta=0.2, theta_signs=(1, -1) * 4)
        pool = sample_pool(env, 200, seed=4)
        result = run_protocol(ProtocolConfig(budget=10, max_batch=5, seed=4), env,
                              pool_units=pool)
        segment = result.pool_phis.argmax(axis=1)
        labeled = np.isin(segment, segment[result.unit_ids[:5]])
        table = result.scores[1]
        v_labeled = table["v"][labeled[table["id"]]]
        v_unlabeled = table["v"][~labeled[table["id"]]]
        assert len(v_labeled) and len(v_unlabeled)
        assert v_unlabeled.min() > v_labeled.max()


class TestSelectionReadsNoOutcome:
    def test_worlds_that_differ_only_in_theta_star_select_alike(self):
        """v, d and o read x and the log's treatments, never a randomized
        outcome: the same pool and log pick the same units with the same
        scores whatever the effect."""
        env, pool, obs = box_threshold_world(seed=8, n_pool=300, n_obs=300)
        flipped = LinearEnv(theta_star=-env.theta_star, feature_map=env.feature_map,
                            norm_budget=env.S, marginal=env.marginal)
        config = ProtocolConfig(budget=60, max_batch=20, seed=8)
        a, b = (run_protocol(config, world, pool_units=pool, obs=obs)
                for world in (env, flipped))
        np.testing.assert_array_equal(a.unit_ids, b.unit_ids)
        assert not np.array_equal(a.yts, b.yts)
        assert [t.tobytes() for t in a.scores] == [t.tobytes() for t in b.scores]


def ratio(alpha, phis):
    """The density ratio psi^T alpha, psi = [phi, 1], of each row, as score_pool takes d."""
    return phis @ alpha[:-1] + alpha[-1]


class TestDomainClassifier:
    def test_identical_distributions_stay_near_chance(self):
        rng = rng_for(51)
        pool = rng.standard_normal((400, 2))
        current = rng.standard_normal((400, 2))
        alpha = train_domain_classifier(pool, psi_gram(current))
        held_out = rng.standard_normal((1000, 2))
        assert abs(float(ratio(alpha, held_out).mean()) - 1.0) < 0.05

    def test_identical_classes_score_one(self):
        rng = rng_for(53)
        rows = rng.standard_normal((10, 2))
        alpha = train_domain_classifier(rows, psi_gram(rows.copy()))
        np.testing.assert_allclose(ratio(alpha, rng.standard_normal((5, 2))), 1.0,
                                   rtol=0, atol=1e-12)

    def test_separable_classes_scored_apart(self):
        pool = np.column_stack([np.full(200, 3.0), np.zeros(200)])
        current = np.column_stack([np.full(200, -3.0), np.zeros(200)])
        alpha = train_domain_classifier(pool, psi_gram(current))
        assert float(ratio(alpha, pool).mean()) > 0.9

    def test_class_imbalance_does_not_fake_shift(self):
        """Same marginal in both classes but 5x more pool rows: scores must
        not order units by how common they are."""
        rng = rng_for(57)
        base = rng.standard_normal((200, 2))
        alpha = train_domain_classifier(np.repeat(base, 5, axis=0), psi_gram(base))
        scores = ratio(alpha, base)
        assert abs(float(scores.mean()) - 1.0) < 0.02

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 4),
           st.floats(0.0, 8.0), st.data())
    def test_ratio_solves_its_penalized_normal_equations(self, n_pool, n_cur, d, shift,
                                                          data):
        """(H + 1e-3 diag(1, .., 1, 0)) alpha = h, with H the mean of psi psi^T
        over the current rows and h the mean of psi over the pool, psi = [phi, 1];
        a shift above 6 separates the classes."""
        pool = np.column_stack([draw_rows(data, n_pool, d) + shift, np.ones(n_pool)])
        current = np.column_stack([draw_rows(data, n_cur, d), np.ones(n_cur)])
        alpha = train_domain_classifier(pool[:, :-1], psi_gram(current[:, :-1]))
        penalty = np.diag(np.append(np.full(d, 1e-3), 0.0))
        lhs = sum(np.outer(psi, psi) for psi in current) / n_cur + penalty
        h = pool.sum(axis=0) / n_pool
        assert np.all(np.isfinite(alpha))
        np.testing.assert_allclose(lhs @ alpha, h, rtol=0,
                                   atol=1e-9 * np.max(np.abs(h)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_one_hot_ratio_is_the_smoothed_count_ratio(self, k, data):
        """On one-hot segment rows with pool frequencies q_s and current
        frequencies c_s, every row of segment s gets (q_s + 1e-3 alpha_b) /
        (c_s + 1e-3), alpha_b the bias: monotone in the segment counts. The
        free bias makes the ratio average 1 over the current rows."""
        segments = st.lists(st.integers(0, k - 1), min_size=1, max_size=60)
        pool_seg = np.array(data.draw(segments))
        cur_seg = np.array(data.draw(segments))
        alpha = train_domain_classifier(np.eye(k)[pool_seg], psi_gram(np.eye(k)[cur_seg]))
        q = np.bincount(pool_seg, minlength=k) / len(pool_seg)
        c = np.bincount(cur_seg, minlength=k) / len(cur_seg)
        np.testing.assert_allclose(ratio(alpha, np.eye(k)),
                                   (q + 1e-3 * alpha[-1]) / (c + 1e-3), rtol=1e-9)
        assert c @ ratio(alpha, np.eye(k)) == pytest.approx(1.0, rel=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 30), st.integers(0, 30), st.integers(1, 4),
           st.booleans(), st.data())
    def test_gram_solve_is_the_stacked_rows_solve(self, n_pool, n_log, n_stream, d,
                                                    one_hot, data):
        """alpha from the current rows' psi_gram equals the solve from the
        stacked rows psi = [phi, 1] (the form that stacked the log under the
        stream each round): bit for bit on one-hot rows, whose Gram entries are
        counts, and within 1e-12 relative on continuous rows. The log's Gram
        plus the stream's, as score_pool adds them, is the stacked rows' Gram:
        bit for bit on one-hot rows, within 1e-12 of its largest entry else."""
        assume(n_log + n_stream > 0)

        def rows(n):
            if one_hot:
                segments = data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
                return np.eye(d)[np.array(segments, dtype=int)]
            return draw_rows(data, n, d).reshape(n, d)

        pool, log, stream = rows(n_pool), rows(n_log), rows(n_stream)
        current = np.vstack([log, stream])
        psi = np.column_stack([current, np.ones(len(current))])
        h = np.column_stack([pool, np.ones(n_pool)]).mean(axis=0)
        penalty = np.diag(np.append(np.full(d, 1e-3), 0.0))
        stacked = np.linalg.solve(psi.T @ psi / len(psi) + penalty, h)
        whole = train_domain_classifier(pool, psi_gram(current))
        split_gram = psi_gram(log) + psi_gram(stream)
        if one_hot:
            assert split_gram.tobytes() == psi_gram(current).tobytes()
            assert whole.tobytes() == stacked.tobytes()
            assert train_domain_classifier(pool, split_gram).tobytes() == stacked.tobytes()
        else:
            np.testing.assert_allclose(whole, stacked, rtol=1e-12, atol=0)
            gram = psi_gram(current)
            np.testing.assert_allclose(split_gram, gram, rtol=0,
                                       atol=1e-12 * np.max(np.abs(gram)))

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            train_domain_classifier(np.zeros((0, 2)), psi_gram(np.ones((3, 2))))

    def test_score_formula(self):
        clf = (np.array([1.0, 0.0]), 0.0)
        phi = IDENTITY_2.apply_many([[np.log(3.0), 0.0]])
        assert overlap_deficit_many(clf, phi)[0] == pytest.approx(0.5)  # e_obs = 0.75
        zero = (np.zeros(2), 0.0)
        assert overlap_deficit_many(zero, IDENTITY_2.apply_many([[1.0, 1.0]]))[0] == 0.0
        saturated = (np.zeros(2), 1e4)
        phi = IDENTITY_2.apply_many([[0.0, 0.0]])
        assert overlap_deficit_many(saturated, phi)[0] == pytest.approx(1.0)


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
        assert_stationary(phis, ts, np.ones(n), *model)

    def test_non_finite_input_rejected(self):
        rng = rng_for(87)
        rows = rng.standard_normal((10, 2))
        rows[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            train_domain_classifier(rows, psi_gram(rng.standard_normal((10, 2))))
        obs = ObsLog(xs=np.zeros((10, 1)), ts=np.arange(10) % 2, ys=np.zeros(10))
        with pytest.raises(ValueError, match="finite"):
            fit_propensity(obs, rows)
        with pytest.raises(ValueError, match="finite"):
            acquisition._fit_logistic(np.ones((2, 1)), np.array([1.0, np.nan]))

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
        assert_stationary(phis, ts, np.ones(12), *model)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(acquisition, "MAX_ITER", 1)
        phis = np.column_stack([np.repeat([3.0, -3.0], 20), np.zeros(40)])
        ts = np.repeat([1, 0], 20)
        with pytest.raises(RuntimeError, match="converge"):
            fit_propensity(ObsLog(xs=phis, ts=ts, ys=np.zeros(40)), phis)

    @pytest.mark.parametrize("seed", [9, 11, 23])
    def test_converges_at_feature_scale_1e4(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(4, 12)
        X = rng.uniform(-1e4, 1e4, (n, 4))
        y = (rng.random(n) < 0.5)
        acquisition._fit_logistic(X, y.astype(float))


def box_threshold_world(seed, n_pool=2000, n_obs=2000):
    """The 5-d box world and a log treated iff x_0 > 0, up to a 0.02 leak."""
    fmap = FeatureMap(kind="identity", output_dim=5, norm_bound=np.sqrt(5.0))
    env = LinearEnv(theta_star=(0.08, -0.06, 0.05, -0.04, 0.03), feature_map=fmap,
                    norm_budget=0.2, marginal=BoxMarginal((-1.0,) * 5, (1.0,) * 5))
    policy = ThresholdPolicy(direction=(1.0, 0.0, 0.0, 0.0, 0.0), cutoff=0.0,
                             leak=0.02)
    return (env, sample_pool(env, n_pool, seed),
            sample_obs(env, policy, env.marginal, n_obs, seed + 1))


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
        o_old = overlap_deficit_many((w, b), pool_phis)
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
        m = (np.zeros(1), 0.0)
        assert overlap_deficit_many(m, IDENTITY_1.apply_many([[0.0]]))[0] == 0.0
        m9 = (np.zeros(1), float(np.log(9.0)))  # e_hat = 0.9
        assert overlap_deficit_many(m9, IDENTITY_1.apply_many([[0.0]]))[0] == pytest.approx(0.8)
        m99 = (np.zeros(1), float(np.log(99.0)))
        assert overlap_deficit_many(m99, IDENTITY_1.apply_many([[0.0]]))[0] == pytest.approx(0.98)

    def test_fit_needs_one_phi_row_per_log_row(self):
        obs = ObsLog(xs=np.zeros((4, 1)), ts=[0, 1, 0, 1], ys=np.zeros(4))
        with pytest.raises(ValueError, match="one phi row per row"):
            fit_propensity(obs, np.zeros((3, 1)))

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
    @given(st.lists(st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 2.5, np.nan, np.inf, -np.inf]),
                              st.floats()), min_size=1, max_size=30))
    def test_monotone_and_tied_values_share_one_rank(self, values):
        """The bits of the <=-count over the sorted values, NaNs (sorted
        last) included: every NaN gets rank 1."""
        v = np.array(values)
        eta = rank_normalize(v)
        counted = np.searchsorted(np.sort(v), v, side="right") / len(v)
        np.testing.assert_array_equal(eta.view(np.int64), counted.view(np.int64))
        if np.isnan(v).any():
            return
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
        policy = LogisticPolicy(weights=(6.0,))
        pool = sample_pool(env, 60, seed)
        obs = sample_obs(env, policy, env.marginal, 300, seed + 1)
        return env, fmap, pool, obs, policy

    def test_scoring_determinism(self):
        env, fmap, pool, obs, _ = self.pool_and_obs(5)
        obs_phis = fmap.apply_many(obs.xs)
        prop = fit_propensity(obs, obs_phis)
        cand_phis = fmap.apply_many(pool.xs)
        a = score_pool(pool.ids, cand_phis, *NO_LABELS, psi_gram(obs_phis),
                       overlap_deficit_many(prop, cand_phis), AcquisitionWeights(), 1.0)
        b = score_pool(pool.ids, cand_phis, *NO_LABELS, psi_gram(obs_phis),
                       overlap_deficit_many(prop, cand_phis), AcquisitionWeights(), 1.0)
        assert np.array_equal(a, b)

    def test_overlap_targeting_beats_pool_average(self):
        """gamma-only selection concentrates where history was deterministic."""
        wins = 0
        for seed in range(50):
            env, fmap, pool, obs, policy = self.pool_and_obs(100 + 3 * seed)
            obs_phis = fmap.apply_many(obs.xs)
            prop = fit_propensity(obs, obs_phis)
            bds = score_pool(pool.ids, fmap.apply_many(pool.xs), *NO_LABELS,
                             psi_gram(obs_phis),
                             overlap_deficit_many(prop, fmap.apply_many(pool.xs)),
                             AcquisitionWeights(0.0, 0.0, 0.7), 1.0)
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
                         psi_gram(obs_phis),
                         overlap_deficit_many(prop, fmap.apply_many(pool.xs[1:])),
                         AcquisitionWeights(), 1.0)
        assert 0 not in set(bds["id"])
        assert len(bds) == len(pool) - 1
