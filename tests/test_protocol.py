"""Tests for the round-based budgeted experimentation loop."""

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from budgex.acquisition import (SCORE_DTYPE, AcquisitionWeights, fit_propensity,
                                score_pool, select_top_m)
from budgex.core import (FeatureMap, NormBoundError, ObsLog, Pool,
                         PropensityBounds, read_jsonl, write_jsonl)
from budgex.envs import (HardInstance, LinearEnv, LogisticPolicy,
                         MarginalShift, SegmentMarginal, ThresholdPolicy,
                         sample_obs, sample_pool)
from budgex.estimator import pseudo_outcome_values
from budgex.protocol import (AffinePolicy, ConstantPolicy, ProtocolConfig,
                             VarianceOptimalPolicy, _assign_and_observe,
                             _dump_scores, clip_probability, optimal_p,
                             run_protocol)
from budgex._rng import rng_for

BOUNDS = PropensityBounds(0.2, 0.8)


def hard4():
    return HardInstance(d=4, delta=0.2, theta_signs=(1, -1, 1, -1))


def weak_overlap_world(seed, n_pool=300, n_obs=400):
    """Small tilted two-source world for active-strategy tests."""
    pts = [(-1.0, -0.6), (-1.0, 0.6), (0.0, -0.2), (0.0, 0.2),
           (1.0, -0.6), (1.0, 0.6)]
    probs = (0.1, 0.1, 0.3, 0.3, 0.1, 0.1)
    fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=1.5)
    env = LinearEnv(theta_star=(0.2, 0.5), feature_map=fmap, norm_budget=1.0,
                    marginal=SegmentMarginal(probs, tuple(pts)))
    policy = ThresholdPolicy(direction=(0.0, 1.0), cutoff=0.0, leak=0.02)
    shift = MarginalShift(kind="tilt",
                          direction=(-1.0, -1.0, 0.0, 0.0, -1.0, -1.0),
                          strength=1.0)
    pool = sample_pool(env, n_pool, seed)
    obs = sample_obs(env, policy, shift, n_obs, seed + 1)
    return env, pool, obs


class TestClipAndOptimalP:
    def test_clip_values(self):
        assert clip_probability(0.05, BOUNDS) == 0.2
        assert clip_probability(0.5, BOUNDS) == 0.5
        assert clip_probability(0.95, BOUNDS) == 0.8

    def test_optimal_p_equal_moments(self):
        assert optimal_p(3.0, 3.0, BOUNDS) == 0.5

    def test_optimal_p_formula(self):
        wide = PropensityBounds(0.01, 0.99)
        assert optimal_p(4.0, 1.0, wide) == pytest.approx(2.0 / 3.0)

    def test_optimal_p_clips_at_floor(self):
        assert optimal_p(0.0, 1.0, BOUNDS) == 0.2

    def test_optimal_p_degenerate_case(self):
        assert optimal_p(0.0, 0.0, BOUNDS) == 0.5

    def test_negative_moment_rejected(self):
        with pytest.raises(ValueError):
            optimal_p(-1.0, 1.0, BOUNDS)

    def test_policy_matches_optimal_p_bitwise(self):
        env = hard4()
        xs = env.marginal.support_points()
        phis = env.feature_map.apply_many(xs)
        raw = VarianceOptimalPolicy().raw(phis, env)
        a, bm = env.arm_means(phis)
        written_out = np.sqrt(a) / (np.sqrt(a) + np.sqrt(bm))
        assert raw.tobytes() == written_out.tobytes()
        assert clip_probability(raw, BOUNDS).tobytes() == \
            optimal_p(a, bm, BOUNDS).tobytes()


class TestConfigValidation:
    def test_strategy_names(self):
        with pytest.raises(ValueError):
            ProtocolConfig(budget=10, strategy="greedy")

    def test_zero_weights_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ProtocolConfig(budget=10, strategy="active",
                           weights=AcquisitionWeights(0.0, 0.0, 0.0))

    def test_boundary_values_accepted(self):
        """Non-integer sizes and a lambda outside [0, inf) are rejected (TestRun
        in test_cli); numpy integers and lambda 0 are accepted."""
        cfg = ProtocolConfig(budget=np.int64(10), max_batch=np.int32(4),
                             estimator_lambda=0.0)
        assert (cfg.budget, cfg.max_batch, cfg.estimator_lambda) == (10, 4, 0.0)


class TestRunProtocol:
    def test_non_finite_covariate_fails_loudly(self, tmp_path):
        env, pool, _ = weak_overlap_world(5, n_pool=50)
        xs = pool.xs.copy()
        xs[7, 0] = np.nan  # json writes NaN and reads it back
        write_jsonl(tmp_path / "pool.jsonl", Pool(ids=pool.ids, xs=xs))
        cfg = ProtocolConfig(budget=10, max_batch=5, strategy="random", seed=1)
        with pytest.raises(NormBoundError):
            run_protocol(cfg, env, read_jsonl(tmp_path / "pool.jsonl", "pool"))

    def test_batch_sizes_follow_min_rule(self):
        env = hard4()
        cfg = ProtocolConfig(budget=10, max_batch=4, strategy="random", seed=1)
        pool = sample_pool(env, 50, seed=2)
        result = run_protocol(cfg, env, pool_units=pool)
        assert result.batch_sizes == [4, 4, 2]

    def test_zero_budget_gives_prior_estimator(self):
        env = hard4()
        cfg = ProtocolConfig(budget=0, strategy="random", seed=1)
        result = run_protocol(cfg, env, pool_units=sample_pool(env, 10, 3))
        assert len(result.stream.ts) == 0
        np.testing.assert_array_equal(result.solution.theta_hat, np.zeros(4))

    def test_budget_exactness(self):
        env = hard4()
        for budget, n_pool in ((30, 100), (50, 50), (80, 40)):
            cfg = ProtocolConfig(budget=budget, max_batch=7, strategy="random",
                                 seed=4)
            result = run_protocol(cfg, env, pool_units=sample_pool(env, n_pool, 5))
            assert len(result.stream.ts) == min(budget, n_pool)
            assert sum(result.batch_sizes) == len(result.stream.ts)

    def test_pool_selection_without_replacement(self):
        env = hard4()
        cfg = ProtocolConfig(budget=40, max_batch=6, strategy="random", seed=6)
        pool = sample_pool(env, 60, seed=7)
        result = run_protocol(cfg, env, pool_units=pool)
        assert len(set(result.unit_ids)) == len(result.unit_ids) == 40
        assert pool.ids.tolist() == list(range(60))  # the input is left as it was

    def test_result_carries_the_pool_phi_rows(self):
        env = hard4()
        cfg = ProtocolConfig(budget=20, max_batch=6, strategy="random", seed=8)
        pool = sample_pool(env, 30, seed=9)
        result = run_protocol(cfg, env, pool_units=pool)
        np.testing.assert_array_equal(result.pool_phis,
                                      env.feature_map.apply_many(pool.xs))

    def test_treated_fraction_near_half(self):
        env = hard4()
        cfg = ProtocolConfig(budget=2000, strategy="random",
                             randomization=ConstantPolicy(0.5), seed=8)
        result = run_protocol(cfg, env, pool_units=sample_pool(env, 2500, 9))
        assert abs(result.stream.ts.mean() - 0.5) < 4 * np.sqrt(0.25 / 2000)

    def test_per_segment_counts_random_strategy(self):
        env = hard4()
        cfg = ProtocolConfig(budget=400, strategy="random", seed=10)
        result = run_protocol(cfg, env, pool_units=sample_pool(env, 4000, 11))
        counts = np.bincount(result.stream.xs[:, 0].astype(int), minlength=4)
        sd = np.sqrt(400 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 100) < 4 * sd)

    def test_random_selection_uniform_over_pool(self):
        env = hard4()
        hits = np.zeros(50)
        for seed in range(400):
            cfg = ProtocolConfig(budget=5, strategy="random", seed=seed)
            result = run_protocol(cfg, env, pool_units=sample_pool(env, 50, 12))
            hits[result.unit_ids] += 1
        assert stats.chisquare(hits).pvalue > 1e-4

    def test_determinism(self):
        env, pool, obs = weak_overlap_world(13)
        cfg = ProtocolConfig(budget=40, max_batch=10, strategy="active", seed=14)
        a = run_protocol(cfg, env, pool_units=pool, obs=obs)
        b = run_protocol(cfg, env, pool_units=pool, obs=obs)
        np.testing.assert_array_equal(a.unit_ids, b.unit_ids)
        np.testing.assert_array_equal(a.stream.ts, b.stream.ts)
        np.testing.assert_array_equal(a.solution.theta_hat, b.solution.theta_hat)

    def test_emitted_probabilities_respect_bounds(self):
        env = hard4()
        cfg = ProtocolConfig(budget=50, strategy="random",
                             randomization=AffinePolicy((1.0, 0.0, -1.0, 0.0),
                                                        bias=0.5),
                             seed=15)
        result = run_protocol(cfg, env, pool_units=sample_pool(env, 80, 16))
        assert np.all(result.stream.ps >= BOUNDS.f_min)
        assert np.all(result.stream.ps <= BOUNDS.f_max)

    def test_variance_optimal_policy_uses_moments(self):
        env = hard4()
        cfg = ProtocolConfig(budget=30, strategy="random",
                             randomization=VarianceOptimalPolicy(), seed=17)
        result = run_protocol(cfg, env, pool_units=sample_pool(env, 60, 18))
        a, bm = env.arm_means(result.phis)
        expected = clip_probability(np.sqrt(a) / (np.sqrt(a) + np.sqrt(bm)),
                                    BOUNDS)
        np.testing.assert_allclose(result.stream.ps, expected)

    def test_pool_exhaustion_stops_gracefully(self):
        env = hard4()
        cfg = ProtocolConfig(budget=100, strategy="random", seed=19)
        result = run_protocol(cfg, env, pool_units=sample_pool(env, 25, 20))
        assert len(result.stream.ts) == 25

    def test_active_run_exhausts_the_pool_on_the_schedule(self, tmp_path):
        """A budget above the pool size queries every unit in rounds
        [M, ..., M, r]; each round scores exactly the units still unqueried,
        so the last table scores the r units it then takes."""
        env, pool, obs = weak_overlap_world(19, n_pool=25)
        cfg = ProtocolConfig(budget=100, max_batch=7, strategy="active", seed=20)
        result = run_protocol(cfg, env, pool_units=pool, obs=obs, out_dir=tmp_path)
        assert result.batch_sizes == [7, 7, 7, 4]
        assert sorted(result.unit_ids.tolist()) == pool.ids.tolist()
        assert [len(table) for table in result.scores] == [25, 18, 11, 4]
        assert sorted(result.scores[-1]["id"].tolist()) == \
            sorted(result.unit_ids[21:].tolist())
        assert sorted(os.listdir(tmp_path)) == \
            [f"scores_round_{k}.csv" for k in range(1, 5)]


WORLD_21 = weak_overlap_world(21)


class TestRandomizationIndependence:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 60),
           st.sampled_from(["random", "active"]), st.permutations(range(300)))
    def test_assignment_keyed_by_unit_not_selection_order(self, seed, max_batch,
                                                          strategy, order):
        """A unit's (t, y) depends on the run seed and its id alone: whatever
        strategy, batch size, round or pool order selects it, it gets the
        draws it gets when the whole pool is assigned in one batch."""
        env, pool, obs = WORLD_21
        shuffled = Pool(ids=pool.ids[list(order)], xs=pool.xs[list(order)])
        cfg = ProtocolConfig(budget=60, max_batch=max_batch, strategy=strategy,
                             seed=seed)
        result = run_protocol(cfg, env, pool_units=shuffled, obs=obs)
        ts, ys, _ = _assign_and_observe(env, cfg, pool.ids,
                                        env.feature_map.apply_many(pool.xs))
        at = np.searchsorted(pool.ids, result.unit_ids)
        assert result.stream.ts.tolist() == ts[at].tolist()
        assert result.stream.ys.tolist() == ys[at].tolist()


class TestIdsAreNotPositions:
    """A unit's id is its name, not its position in the pool arrays."""

    @staticmethod
    def by_id(result):
        return {int(i): (int(t), float(y))
                for i, t, y in zip(result.unit_ids, result.stream.ts, result.stream.ys)}

    def test_active_selection_ignores_pool_order(self):
        env, pool, obs = weak_overlap_world(31)
        perm = rng_for(32).permutation(len(pool))
        shuffled = Pool(ids=pool.ids[perm], xs=pool.xs[perm])
        cfg = ProtocolConfig(budget=60, max_batch=20, strategy="active", seed=33)
        base = run_protocol(cfg, env, pool_units=pool, obs=obs)
        moved = run_protocol(cfg, env, pool_units=shuffled, obs=obs)
        assert set(moved.unit_ids) == set(base.unit_ids)
        assert self.by_id(moved) == self.by_id(base)

    def test_active_strategy_on_offset_ids(self):
        env, pool, obs = weak_overlap_world(34)
        offset = Pool(ids=pool.ids + 100, xs=pool.xs)
        cfg = ProtocolConfig(budget=60, max_batch=20, strategy="active", seed=35)
        base = run_protocol(cfg, env, pool_units=pool, obs=obs)
        shifted = run_protocol(cfg, env, pool_units=offset, obs=obs)
        assert len(shifted.unit_ids) == 60
        assert set(shifted.unit_ids) <= set(offset.ids)
        # later rounds may differ: the per-unit draws are keyed by id
        np.testing.assert_array_equal(shifted.unit_ids[:20], base.unit_ids[:20] + 100)

    @settings(max_examples=20, deadline=None)
    @given(world_seed=st.integers(0, 2**16), perm_seed=st.integers(0, 2**16),
           n_pool=st.integers(20, 60), budget=st.integers(1, 20),
           max_batch=st.integers(1, 10))
    # scored in pool order, one segment's identical phi rows get domain scores
    # a last digit apart, and ranking them moves the pick
    @example(world_seed=1874, perm_seed=0, n_pool=20, budget=1, max_batch=1)
    def test_active_selection_invariant_to_any_permutation(
            self, world_seed, perm_seed, n_pool, budget, max_batch):
        env, pool, obs = weak_overlap_world(world_seed, n_pool=n_pool, n_obs=200)
        perm = rng_for(perm_seed).permutation(n_pool)
        shuffled = Pool(ids=pool.ids[perm], xs=pool.xs[perm])
        cfg = ProtocolConfig(budget=budget, max_batch=max_batch,
                             strategy="active", seed=world_seed + 1)
        base = run_protocol(cfg, env, pool_units=pool, obs=obs)
        moved = run_protocol(cfg, env, pool_units=shuffled, obs=obs)
        assert set(moved.unit_ids) == set(base.unit_ids)
        assert self.by_id(moved) == self.by_id(base)

    def test_random_strategy_keeps_each_units_covariates(self):
        env = hard4()
        pool = sample_pool(env, 50, seed=36)
        reversed_pool = Pool(ids=pool.ids[::-1], xs=pool.xs[::-1])
        cfg = ProtocolConfig(budget=10, strategy="random", seed=37)
        result = run_protocol(cfg, env, pool_units=reversed_pool)
        np.testing.assert_array_equal(result.stream.xs, pool.xs[result.unit_ids])


@pytest.mark.parametrize("max_batch", [60, 6, 1])
@pytest.mark.parametrize("strategy, with_log, maps", [("random", False, 1),
                                                      ("active", True, 2)])
def test_a_run_maps_each_x_once(monkeypatch, max_batch, strategy, with_log, maps):
    """The pool is mapped once (and the log once, by an active run), however
    many rounds the budget takes: every round reads the pool's phi rows."""
    env, pool, obs = WORLD_21
    calls, apply_many = [], FeatureMap.apply_many
    monkeypatch.setattr(FeatureMap, "apply_many",
                        lambda fmap, xs: calls.append(len(xs)) or apply_many(fmap, xs))
    cfg = ProtocolConfig(budget=60, max_batch=max_batch, strategy=strategy, seed=3)
    run_protocol(cfg, env, pool_units=pool, obs=obs if with_log else None)
    assert len(calls) == maps


class TestObservationalLog:
    def log_maps(self, monkeypatch, cfg, obs, world_seed):
        """How many apply_many calls receive exactly the log's rows in one run."""
        env, pool, _ = weak_overlap_world(world_seed)
        seen = []
        apply_many = FeatureMap.apply_many

        def recording(fmap, xs):
            seen.append(np.array(xs, dtype=float))
            return apply_many(fmap, xs)

        monkeypatch.setattr(FeatureMap, "apply_many", recording)
        run_protocol(cfg, env, pool_units=pool, obs=obs)
        return sum(xs.shape == obs.xs.shape and np.array_equal(xs, obs.xs)
                   for xs in seen)

    def test_active_run_maps_the_log_once(self, monkeypatch):
        _, _, obs = weak_overlap_world(41)
        cfg = ProtocolConfig(budget=40, max_batch=20, strategy="active", seed=42)
        assert self.log_maps(monkeypatch, cfg, obs, 41) == 1

    def test_random_theory_run_never_maps_the_log(self, monkeypatch):
        _, _, obs = weak_overlap_world(43)
        cfg = ProtocolConfig(budget=40, max_batch=20, strategy="random", seed=44)
        assert self.log_maps(monkeypatch, cfg, obs, 43) == 0

    def test_log_without_rows_is_no_log(self):
        env, pool, _ = weak_overlap_world(45)
        empty = ObsLog(xs=np.zeros((0, 2)), ts=[], ys=[])
        cfg = ProtocolConfig(budget=40, max_batch=20, strategy="active", seed=46)
        a = run_protocol(cfg, env, pool_units=pool, obs=None)
        b = run_protocol(cfg, env, pool_units=pool, obs=empty)
        assert np.array_equal(a.unit_ids, b.unit_ids)
        assert all(np.array_equal(x, y) for x, y in zip(a.scores, b.scores))


class TestFiltrationSoundness:
    def test_round_scores_recomputable_from_truncated_stream(self):
        """Selection at round k must depend only on records queried before
        round k: recomputing scores from the truncated stream reproduces the
        stored score tables exactly."""
        env, pool, obs = weak_overlap_world(23)
        cfg = ProtocolConfig(budget=60, max_batch=20, strategy="active", seed=24)
        result = run_protocol(cfg, env, pool_units=pool, obs=obs)
        fmap = env.feature_map
        obs_phis = fmap.apply_many(obs.xs)
        prop = fit_propensity(obs, obs_phis)
        phis = fmap.apply_many(result.stream.xs)
        yts = pseudo_outcome_values(result.stream.ts, result.stream.ys, result.stream.ps)
        start = 0
        for k, (bds, m_k) in enumerate(zip(result.scores,
                                           result.batch_sizes)):
            keep = ~np.isin(pool.ids, result.unit_ids[:start])
            redone = score_pool(pool.ids[keep], fmap.apply_many(pool.xs[keep]),
                                phis[:start], yts[:start], obs_phis, prop,
                                cfg.weights, cfg.estimator_lambda, cfg.seed, k)
            assert np.array_equal(redone, bds)
            assert list(redone["id"][select_top_m(redone, m_k)]) == \
                list(result.unit_ids[start:start + m_k])
            start += m_k


class TestDesignShaping:
    def test_overlap_seeking_weights_shift_budget_to_deterministic_region(self):
        """Overlap-dominant weights spend the budget on the points where the
        historical logging policy was (nearly) deterministic: |x2| = 0.6."""
        wins = 0
        n_pairs = 50
        for s in range(n_pairs):
            env, pool, obs = weak_overlap_world(1000 + 17 * s)
            share = {}
            for strat, w in (("active", AcquisitionWeights(0.0, 0.1, 1.0)),
                             ("random", AcquisitionWeights())):
                cfg = ProtocolConfig(budget=60, max_batch=20, strategy=strat,
                                     weights=w, seed=2000 + s)
                res = run_protocol(cfg, env, pool_units=pool,
                                   obs=obs)
                share[strat] = np.mean(np.abs(res.stream.xs[:, 1]) > 0.5)
            if share["active"] > share["random"]:
                wins += 1
        assert wins >= 0.9 * n_pairs


def reference_dump(path, table, selected_ids):
    """The row-wise score dump: csv.writer over repr of each row's floats."""
    selected = np.isin(table["id"], selected_ids).tolist()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(table.dtype.names + ("selected",))
        for (uid, *values), sel in zip(table.tolist(), selected):
            w.writerow([uid, *map(repr, values), int(sel)])


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf,
               np.nan, 1e-5, 9.999999999999999e-06, -1e-5, 1e16, 9999999999999998.0,
               -1e16, 0.1, 1.0]
ID_EXTREMES = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0]


class TestScoreDump:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(ID_EXTREMES)
                              | st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max),
                              *[st.sampled_from(EDGE_FLOATS) | st.floats()] * 7),
                    max_size=200, unique_by=lambda row: row[0]),
           st.sampled_from(["none", "some", "all"]), st.randoms(use_true_random=False))
    def test_bytes_match_the_row_wise_writer(self, rows, which, rnd):
        table = np.array(rows, dtype=SCORE_DTYPE)
        ids = table["id"].tolist()
        selected = {"none": [], "all": ids,
                    "some": rnd.sample(ids, len(ids) // 2)}[which]
        selected = np.array(selected, dtype=np.int64)
        with tempfile.TemporaryDirectory() as out:
            _dump_scores(out, 3, table, selected)
            reference_dump(os.path.join(out, "reference.csv"), table, selected)
            with open(os.path.join(out, "scores_round_3.csv"), "rb") as fh:
                dumped = fh.read()
            with open(os.path.join(out, "reference.csv"), "rb") as fh:
                assert dumped == fh.read()
