"""Tests for the round-based budgeted experimentation loop."""

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy import stats

from budgex.acquisition import (SCORE_DTYPE, AcquisitionWeights, fit_propensity,
                                overlap_deficit_many, psi_gram, score_pool, select_top_m)
from budgex.core import (FeatureMap, NormBoundError, ObsLog, Pool,
                         PropensityBounds, read_jsonl, write_jsonl)
from budgex import protocol
from budgex.cli import _write_scores
from budgex.envs import (BoxMarginal, HardInstance, LinearEnv, LogisticPolicy,
                         SegmentMarginal, ThresholdPolicy, env_from_json, sample_obs,
                         sample_pool)
from budgex.estimator import pseudo_outcome_values
from budgex.protocol import (AffinePolicy, ConstantPolicy, ProtocolConfig,
                             _assign_and_observe, _dump_scores, clip_probability,
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
    obs_marginal = env.marginal.tilted((-1.0, -1.0, 0.0, 0.0, -1.0, -1.0), 1.0)
    pool = sample_pool(env, n_pool, seed)
    obs = sample_obs(env, policy, obs_marginal, n_obs, seed + 1)
    return env, pool, obs


class TestClipAndOptimalP:
    def test_clip_values(self):
        assert clip_probability(0.05, BOUNDS) == 0.2
        assert clip_probability(0.5, BOUNDS) == 0.5
        assert clip_probability(0.95, BOUNDS) == 0.8


class TestConfigValidation:
    @pytest.mark.parametrize("make", [
        lambda: ConstantPolicy(float("nan")), lambda: ConstantPolicy(float("inf")),
        lambda: AffinePolicy((float("nan"), 0.0)),
        lambda: AffinePolicy((0.1, 0.0), bias=float("-inf"))],
        ids=["nan-p", "inf-p", "nan-weight", "inf-bias"])
    def test_non_finite_policy_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: AcquisitionWeights(alpha=float("nan")),
        lambda: AcquisitionWeights(beta=float("inf")),
        lambda: AcquisitionWeights(gamma=-0.1),
        lambda: LinearEnv(theta_star=(0.1,), norm_budget=float("nan"),
                          feature_map=FeatureMap("identity", 1, 1.0),
                          marginal=BoxMarginal((-1.0,), (1.0,))),
        lambda: LinearEnv(theta_star=(0.1,), norm_budget=float("inf"),
                          feature_map=FeatureMap("identity", 1, 1.0),
                          marginal=BoxMarginal((-1.0,), (1.0,))),
        lambda: ThresholdPolicy(direction=(1.0,), cutoff=float("nan")),
        lambda: LogisticPolicy(weights=(1.0, float("nan")))],
        ids=["nan-alpha", "inf-beta", "negative-gamma", "nan-S", "inf-S", "nan-cutoff",
             "nan-logistic-weight"])
    def test_non_finite_or_negative_number_rejected_at_construction(self, make):
        """A NaN weight or S would score or audit with NaN: a NaN score ranks
        anywhere, and a NaN beta makes every violation test false."""
        with pytest.raises(ValueError, match="finite"):
            make()

    @pytest.mark.parametrize("sizes", [{"budget": -1}, {"budget": 10, "max_batch": 0}],
                             ids=["negative-budget", "zero-max_batch"])
    def test_size_below_its_bound_rejected(self, sizes):
        with pytest.raises(ValueError, match="budget|max_batch"):
            ProtocolConfig(**sizes)

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

    def test_pool_exhaustion_stops_gracefully(self):
        env = hard4()
        cfg = ProtocolConfig(budget=100, strategy="random", seed=19)
        result = run_protocol(cfg, env, pool_units=sample_pool(env, 25, 20))
        assert len(result.stream.ts) == 25

    def test_active_run_at_lambda_zero_rejected_before_round_1(self, monkeypatch):
        """Each round's leverage fit is a ridge at estimator_lambda: at 0 this
        run raised SingularDesignError in round 2."""
        env = hard4()
        pool = sample_pool(env, 200, 1)
        obs = sample_obs(env, LogisticPolicy((0.8, -0.8, 0.8, -0.8)), env.marginal, 200, 1)
        calls = []
        monkeypatch.setattr(protocol, "_assign_and_observe", lambda *args: calls.append(args))
        cfg = ProtocolConfig(budget=40, max_batch=10, estimator_lambda=0.0)
        with pytest.raises(ValueError, match="estimator_lambda > 0"):
            run_protocol(cfg, env, pool_units=pool, obs=obs)
        assert calls == []

    @pytest.mark.parametrize("strategy", ["random", "active"])
    def test_affine_weights_of_the_wrong_length_rejected_before_round_1(
            self, monkeypatch, strategy):
        """The check names both lengths: the policy's einsum raised numpy's
        broadcast error, in round 1."""
        env, pool, obs = weak_overlap_world(2, n_pool=40, n_obs=60)
        calls = []
        monkeypatch.setattr(protocol, "_assign_and_observe", lambda *args: calls.append(args))
        cfg = ProtocolConfig(budget=20, max_batch=10, strategy=strategy,
                             randomization=AffinePolicy((0.1, 0.0, 0.0)))
        with pytest.raises(ValueError, match="weights has length 3; phi has 2 coordinates"):
            run_protocol(cfg, env, pool_units=pool, obs=obs)
        assert calls == []

    def test_active_run_exhausts_the_pool_on_the_schedule(self, tmp_path):
        """A budget above the pool size queries every unit in rounds
        [M, ..., M, r]; each round scores exactly the units still unqueried,
        so the last table scores the r units it then takes."""
        env, pool, obs = weak_overlap_world(19, n_pool=25)
        cfg = ProtocolConfig(budget=100, max_batch=7, strategy="active", seed=20)
        result = run_protocol(cfg, env, pool_units=pool, obs=obs)
        _write_scores(tmp_path, result)
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
           st.sampled_from(["random", "active"]), st.permutations(range(300)),
           st.one_of(st.none(), st.tuples(st.floats(-1, 1), st.floats(-1, 1),
                                          st.floats(0, 1))))
    def test_assignment_keyed_by_unit_not_selection_order(self, seed, max_batch,
                                                          strategy, order, affine):
        """A unit's (p, t, y) depends on the run seed, its phi row and its id
        alone: whatever strategy, batch size, round or pool order selects it,
        it gets the draws it gets when the whole pool is assigned in one batch,
        and p is the clipped b + phi . w of the constant or affine policy."""
        env, pool, obs = WORLD_21
        shuffled = Pool(ids=pool.ids[list(order)], xs=pool.xs[list(order)])
        (w0, w1), b = ((0.0, 0.0), 0.5) if affine is None else (affine[:2], affine[2])
        cfg = ProtocolConfig(budget=60, max_batch=max_batch, strategy=strategy, seed=seed,
                             randomization=ConstantPolicy(b) if affine is None
                             else AffinePolicy((w0, w1), b))
        result = run_protocol(cfg, env, pool_units=shuffled, obs=obs)
        phis = env.feature_map.apply_many(pool.xs)
        ts, ys, ps = _assign_and_observe(env, cfg, pool.ids, phis)
        at = np.searchsorted(pool.ids, result.unit_ids)
        assert result.stream.ts.tolist() == ts[at].tolist()
        assert result.stream.ys.tolist() == ys[at].tolist()
        assert result.stream.ps.tobytes() == ps[at].tobytes()
        written_out = clip_probability(b + (phis[:, 0] * w0 + phis[:, 1] * w1), cfg.bounds)
        assert ps.tobytes() == written_out.tobytes()

    @pytest.mark.parametrize("max_batch", [1, 7])
    def test_affine_p_on_continuous_phi_ignores_the_batch(self, max_batch):
        """On a box world's continuous phi rows, a unit's affine p is the same
        in a batch of 1 or 7 as in the whole pool's: phis @ w rounded a one-row
        batch apart from a longer one in about a third of the rows."""
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=1.5)
        env = LinearEnv(theta_star=(0.2, -0.1), feature_map=fmap, norm_budget=1.0,
                        marginal=BoxMarginal((-1.0, -1.0), (1.0, 1.0)))
        pool = sample_pool(env, 80, 22)
        w0, w1, b = 0.3141592653589793, -0.2718281828459045, 0.4
        cfg = ProtocolConfig(budget=40, max_batch=max_batch, strategy="random", seed=23,
                             randomization=AffinePolicy((w0, w1), b))
        result = run_protocol(cfg, env, pool_units=pool)
        phis = fmap.apply_many(pool.xs)
        _, _, ps = _assign_and_observe(env, cfg, pool.ids, phis)
        at = np.searchsorted(pool.ids, result.unit_ids)
        assert result.stream.ps.tobytes() == ps[at].tobytes()
        written_out = clip_probability(b + (phis[:, 0] * w0 + phis[:, 1] * w1), cfg.bounds)
        assert ps.tobytes() == written_out.tobytes()


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

    @settings(max_examples=20, deadline=None)
    @given(world_seed=st.integers(0, 2**16), perm_seed=st.integers(0, 2**16),
           n_pool=st.integers(20, 60), budget=st.integers(1, 20),
           max_batch=st.integers(1, 10))
    def test_random_selection_invariant_to_any_permutation(
            self, world_seed, perm_seed, n_pool, budget, max_batch):
        """The random strategy draws pool positions, so the run holds the pool
        in unit-id order: drawn in file order, its picks moved with the rows."""
        env = hard4()
        pool = sample_pool(env, n_pool, world_seed)
        perm = rng_for(perm_seed).permutation(n_pool)
        shuffled = Pool(ids=pool.ids[perm], xs=pool.xs[perm])
        cfg = ProtocolConfig(budget=budget, max_batch=max_batch,
                             strategy="random", seed=world_seed + 1)
        base = run_protocol(cfg, env, pool_units=pool)
        moved = run_protocol(cfg, env, pool_units=shuffled)
        assert moved.unit_ids.tolist() == base.unit_ids.tolist()
        for column in ("ts", "ys", "ps"):
            assert getattr(moved.stream, column).tobytes() == \
                getattr(base.stream, column).tobytes()
        assert moved.solution.theta_hat.tobytes() == base.solution.theta_hat.tobytes()

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


def box8_logistic_world(seed, n_pool, n_obs):
    """An 8-d identity box world whose log follows a logistic policy."""
    fmap = FeatureMap(kind="identity", output_dim=8, norm_bound=np.sqrt(8.0))
    env = LinearEnv(theta_star=(0.05, -0.04, 0.03, -0.02) * 2, feature_map=fmap,
                    norm_budget=0.2, marginal=BoxMarginal((-1.0,) * 8, (1.0,) * 8))
    policy = LogisticPolicy(weights=(2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.6))
    return (env, sample_pool(env, n_pool, seed),
            sample_obs(env, policy, env.marginal, n_obs, seed + 1))


class TestOverlapColumn:
    """o reads a unit's phi row and the log only: a run computes it once over
    the pool, and every round scores a unit with that same value."""

    def test_computed_once_per_active_run_over_the_pool(self, monkeypatch):
        rows, overlap = [], protocol.overlap_deficit_many

        def recording(head, phis):
            rows.append(len(phis))
            return overlap(head, phis)

        monkeypatch.setattr(protocol, "overlap_deficit_many", recording)
        env, pool, obs = box8_logistic_world(4, 200, 300)
        for strategy in ("active", "random"):
            cfg = ProtocolConfig(budget=100, max_batch=7, strategy=strategy, seed=4)
            result = run_protocol(cfg, env, pool_units=pool, obs=obs)
        assert rows == [len(pool)]
        assert len(result.batch_sizes) == 15

    def test_every_round_scores_a_unit_with_one_o(self):
        """Bit for bit: predicting e_obs over each round's shrinking candidate
        matrix instead gives some units an o a few ulps apart across rounds
        (one unit of this pool), as BLAS rounds rows by their position."""
        env, pool, obs = box8_logistic_world(4, 200, 300)
        cfg = ProtocolConfig(budget=100, max_batch=7, strategy="active", seed=4)
        result = run_protocol(cfg, env, pool_units=pool, obs=obs)
        obs_phis = env.feature_map.apply_many(obs.xs)
        o = overlap_deficit_many(fit_propensity(obs, obs_phis), result.pool_phis)
        for table in result.scores:
            np.testing.assert_array_equal(table["o"], o[table["id"]])
        assert len(result.scores) == 15


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
        for bds, m_k in zip(result.scores, result.batch_sizes):
            keep = ~np.isin(pool.ids, result.unit_ids[:start])
            redone = score_pool(pool.ids[keep], fmap.apply_many(pool.xs[keep]),
                                phis[:start], yts[:start], psi_gram(obs_phis),
                                overlap_deficit_many(prop, fmap.apply_many(pool.xs[keep])),
                                cfg.weights, cfg.estimator_lambda)
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
            _dump_scores(out, [table], [selected])
            reference_dump(os.path.join(out, "reference.csv"), table, selected)
            with open(os.path.join(out, "scores_round_1.csv"), "rb") as fh:
                dumped = fh.read()
            with open(os.path.join(out, "reference.csv"), "rb") as fh:
                assert dumped == fh.read()


# Values an eta column may hold that are not its round's k/n, or sit 1 ulp off
# one; 8.98e307 * n overflows for n >= 2.
RANK_MISSES = [-0.0, np.nan, np.inf, -np.inf, 8.98e307]


@st.composite
def dumped_runs(draw):
    """A run's score tables and picks: each round scores a subset of one set
    of units, each unit with the same o in every round, and its eta columns
    mix exact ranks k/n with near-misses."""
    floats = st.sampled_from(EDGE_FLOATS) | st.floats()
    o_of = draw(st.lists(floats, min_size=1, max_size=40))
    tables, picks = [], []
    for _ in range(draw(st.integers(1, 4))):
        ids = draw(st.lists(st.integers(0, len(o_of) - 1), unique=True))
        n = len(ids)

        def eta():
            exact = draw(st.integers(0, n)) / n
            return draw(st.sampled_from([exact, exact, np.nextafter(exact, -np.inf),
                                         np.nextafter(exact, np.inf), *RANK_MISSES]))

        tables.append(np.array([(i, draw(floats), draw(floats), o_of[i], eta(), eta(), eta(),
                                 draw(floats)) for i in ids], dtype=SCORE_DTYPE))
        picks.append(np.array([i for i in ids if draw(st.booleans())], dtype=np.int64))
    return tables, picks


def assert_dumps_match_reference(out, tables, picks):
    for k, (table, selected) in enumerate(zip(tables, picks), 1):
        reference_dump(os.path.join(out, "reference.csv"), table, selected)
        with open(os.path.join(out, f"scores_round_{k}.csv"), "rb") as fh:
            dumped = fh.read()
        with open(os.path.join(out, "reference.csv"), "rb") as fh:
            assert dumped == fh.read(), f"round {k}"


@pytest.fixture(params=[{0}, {0, 1}], ids=["1-cpu", "2-cpus"])
def affinity(request, monkeypatch):
    """The CPUs _dump_scores may use: one writes every round in this process,
    two fork a child that writes every second round."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: request.param)


class TestRunScoreDump:
    """A run's dumps reuse the text of a rank within a round and of a unit's
    o across rounds, and split the rounds over the CPUs; the bytes are the
    row-wise writer's all the same."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dumped_runs())
    def test_multi_round_bytes_match_the_row_wise_writer(self, affinity, run):
        tables, picks = run
        with tempfile.TemporaryDirectory() as out:
            _dump_scores(out, tables, picks)
            assert sorted(os.listdir(out)) == \
                [f"scores_round_{k}.csv" for k in range(1, len(tables) + 1)]
            assert_dumps_match_reference(out, tables, picks)

    def test_active_box_run_dumps_match_the_row_wise_writer(self, affinity, tmp_path):
        """The golden active box run's sizes (pool 400, log 200, B=60, M=20),
        where every eta value is its round's k/n."""
        env, policy, obs_marginal = env_from_json({
            "env": {"kind": "linear", "theta_star": [0.08, -0.06, 0.05, -0.04, 0.03],
                    "S": 0.2, "baseline_intercept": 0.5, "baseline_weights": [0.0] * 5,
                    "feature_map": {"kind": "identity", "output_dim": 5,
                                    "norm_bound": np.sqrt(5.0)},
                    "marginal": {"kind": "box", "lows": [-1.0] * 5, "highs": [1.0] * 5}},
            "obs_policy": {"kind": "threshold", "direction": [1.0, 0.0, 0.0, 0.0, 0.0],
                           "cutoff": 0.0, "leak": 0.02}})
        cfg = ProtocolConfig(budget=60, max_batch=20, seed=3)
        result = run_protocol(cfg, env, pool_units=sample_pool(env, 400, 3),
                              obs=sample_obs(env, policy, obs_marginal, 200, 3))
        for table in result.scores:
            for name in ("eta_v", "eta_d", "eta_o"):
                k = table[name] * len(table)
                np.testing.assert_array_equal(np.rint(k) / len(table), table[name])
        _write_scores(tmp_path, result)
        picks = np.split(result.unit_ids, [20, 40])
        assert_dumps_match_reference(tmp_path, result.scores, picks)

    @pytest.mark.parametrize("k, message", [(1, "scores_round_1.csv"), (2, r"rounds \[2\]")],
                             ids=["parent-share", "child-share"])
    def test_a_failed_round_raises_and_leaves_no_child(self, tmp_path, monkeypatch, k,
                                                       message):
        """With two CPUs, round 1 is this process's and round 2 a forked
        child's; either one failing raises OSError once the child is reaped."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        tables = [np.zeros(3, dtype=SCORE_DTYPE), np.zeros(2, dtype=SCORE_DTYPE)]
        (tmp_path / f"scores_round_{k}.csv").mkdir()
        with pytest.raises(OSError, match=message):
            _dump_scores(tmp_path, tables, [np.zeros(1, dtype=np.int64)] * 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
