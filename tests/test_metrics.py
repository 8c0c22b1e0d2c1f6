"""Tests for evaluation metrics and the verification harnesses."""

import json
import math
import zlib
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from budgex import cli, metrics
from budgex.cli import main
from budgex.core import FeatureMap
from budgex.envs import (HardInstance, LinearEnv, SegmentMarginal, default_hard_delta,
                         env_from_json, sample_obs)
from budgex.metrics import (ZeroGlobalLiftError, bound_violation_audit,
                            clt_diagnostic, ks_distance_normal, pehe,
                            pehe_exact_segments, randomized_eval_set,
                            uplift_curve)
from budgex.protocol import ProtocolConfig
from budgex._rng import derive_seed, rng_for


def hard4(delta=0.2):
    return HardInstance(d=4, delta=delta, theta_signs=(1, -1, 1, -1))


def brute_force_auuc(scores, ts, ys, ids):
    """Independent reference implementation in exact rational arithmetic."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], ids[i]))
    f = []
    for k in range(1, len(order) + 1):
        top = order[:k]
        nt = sum(1 for i in top if ts[i] == 1)
        nc = k - nt
        if nt == 0 or nc == 0:
            f.append(Fraction(0))
            continue
        yt = sum(Fraction(ys[i]) for i in top if ts[i] == 1)
        yc = sum(Fraction(ys[i]) for i in top if ts[i] == 0)
        f.append((yt / nt - yc / nc) * k)
    if f[-1] == 0:
        raise ZeroGlobalLiftError("zero global lift")
    return sum(fk / abs(f[-1]) for fk in f) / len(order)


class TestPehe:
    def test_perfect_predictor(self):
        env = hard4()
        phis = env.feature_map.apply_many(env.sample_x(100, rng_for(1)))
        assert pehe(env.theta_star, env, phis) == 0.0

    def test_constant_offset(self):
        env = hard4()
        phis = env.feature_map.apply_many(env.sample_x(100, rng_for(2)))
        assert pehe(env.theta_star + 0.1, env, phis) == pytest.approx(0.1)

    def test_zero_predictor_on_hard_instance(self):
        env = hard4(delta=0.25)
        phis = env.feature_map.apply_many(env.sample_x(500, rng_for(3)))
        assert pehe(np.zeros(4), env, phis) == pytest.approx(0.25)

    def test_order_invariance(self):
        env = hard4()
        phis = env.feature_map.apply_many(env.sample_x(200, rng_for(4)))
        theta = 0.05 * np.arange(4)
        a = pehe(theta, env, phis)
        b = pehe(theta, env, phis[::-1])
        assert a == pytest.approx(b)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            pehe(np.zeros(4), hard4(), np.zeros((0, 4)))

    def test_exact_segment_variant(self):
        env = hard4(delta=0.25)
        assert pehe_exact_segments(np.zeros(4), env) == pytest.approx(0.25)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda d: st.tuples(
        st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d),
        st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d),
        st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))))
    def test_exact_segments_is_the_written_out_sum(self, drawn):
        """On one-hot phi and any segment probabilities, the exact PEHE is
        sqrt(sum_j p_j (theta_hat_j - theta*_j)^2) bit for bit."""
        weights, theta_star, theta_hat = map(np.array, drawn)
        d = len(weights)
        env = LinearEnv(theta_star=theta_star,
                        feature_map=FeatureMap(kind="segment-one-hot", output_dim=d,
                                               norm_bound=1.0),
                        norm_budget=np.linalg.norm(theta_star),
                        marginal=SegmentMarginal(tuple(weights / weights.sum())))
        p = np.asarray(env.marginal.probs)
        written = float(np.sqrt(np.sum(p * (theta_hat - theta_star) ** 2)))
        assert pehe_exact_segments(theta_hat, env) == written


class TestUpliftCurve:
    def test_hand_worked_example(self):
        # ranked t = (1,0,1,0), y = (1,0,1,0): f = (0, 2, 3, 4)
        curve = uplift_curve([4.0, 3.0, 2.0, 1.0], [1, 0, 1, 0], [1, 0, 1, 0])
        np.testing.assert_allclose(curve.gains, [0.0, 2.0, 3.0, 4.0])
        assert curve.auuc_normalized == pytest.approx(9.0 / 16.0)

    def test_matches_brute_force_on_example(self):
        scores, ts, ys = [4.0, 3.0, 2.0, 1.0], [1, 0, 1, 0], [1, 0, 1, 0]
        expected = brute_force_auuc(scores, ts, ys, list(range(4)))
        curve = uplift_curve(scores, ts, ys)
        assert curve.auuc_normalized == pytest.approx(float(expected))

    def test_tied_scores_follow_id_order(self):
        ts, ys = [1, 0, 0, 1], [1, 1, 0, 1]
        tied = uplift_curve([0.5] * 4, ts, ys, ids=[0, 1, 2, 3])
        expected = brute_force_auuc([0.5] * 4, ts, ys, [0, 1, 2, 3])
        assert tied.auuc_normalized == pytest.approx(float(expected))

    def test_rank_preserving_relabel_invariance(self):
        rng = rng_for(5)
        for _ in range(20):
            n = 8
            scores = rng.standard_normal(n)
            ts = rng.integers(0, 2, n)
            ys = rng.integers(0, 2, n).astype(float)
            if ts.min() == ts.max():
                continue
            try:
                a = uplift_curve(scores, ts, ys).auuc_normalized
                b = uplift_curve(np.tanh(scores), ts, ys).auuc_normalized
            except ZeroGlobalLiftError:
                continue
            assert a == pytest.approx(b)

    def test_better_ranking_scores_higher(self):
        """Ranking true responders first beats the reversed ranking."""
        ts = [1, 1, 0, 0, 1, 0]
        ys = [1, 1, 0, 0, 0, 1]
        good = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        best = uplift_curve(good, ts, ys).auuc_normalized
        worst = uplift_curve(good[::-1], ts, ys).auuc_normalized
        assert best >= worst

    def test_zero_global_lift_rejected(self):
        with pytest.raises(ZeroGlobalLiftError):
            uplift_curve([2.0, 1.0], [1, 0], [0.0, 0.0])

    def test_tiny_input_rejected(self):
        with pytest.raises(ValueError):
            uplift_curve([1.0], [1], [1.0])

    def test_exhaustive_agreement_n4(self):
        """All treatment/outcome patterns and all rankings at N = 4."""
        ids = list(range(4))
        checked = 0
        for ts in product((0, 1), repeat=4):
            for ys in product((0, 1), repeat=4):
                for perm in permutations((4.0, 3.0, 2.0, 1.0)):
                    try:
                        expected = brute_force_auuc(list(perm), ts,
                                                    [float(y) for y in ys], ids)
                    except ZeroGlobalLiftError:
                        with pytest.raises(ZeroGlobalLiftError):
                            uplift_curve(perm, ts, ys, ids=ids)
                        continue
                    got = uplift_curve(perm, ts, ys, ids=ids).auuc_normalized
                    assert got == pytest.approx(float(expected), abs=1e-12)
                    checked += 1
        assert checked > 1000

    def test_random_agreement_n8(self):
        rng = rng_for(6)
        checked = 0
        while checked < 100:
            scores = rng.standard_normal(8)
            ts = rng.integers(0, 2, 8)
            ys = rng.integers(0, 2, 8).astype(float)
            try:
                expected = brute_force_auuc(list(scores), list(ts), list(ys),
                                            list(range(8)))
            except ZeroGlobalLiftError:
                continue
            got = uplift_curve(scores, ts, ys).auuc_normalized
            assert got == pytest.approx(float(expected), abs=1e-12)
            checked += 1


class TestRandomizedEvalSet:
    def test_shapes_and_balance(self):
        env = hard4()
        phis, ts, ys = randomized_eval_set(env, 4000, seed=7)
        assert len(phis) == len(ts) == len(ys) == 4000
        assert abs(ts.mean() - 0.5) < 4 * np.sqrt(0.25 / 4000)


class TestAuuc:
    def test_zero_global_lift_is_nan(self):
        """theta* = 0 and m0 = 0 make every outcome 0, so f(N) = 0."""
        hard = hard4()
        env = LinearEnv(theta_star=np.zeros(4), feature_map=hard.feature_map,
                        norm_budget=1.0, marginal=hard.marginal, baseline_intercept=0.0)
        assert math.isnan(metrics.auuc(np.arange(4.0), env, 200, seed=3))


class TestBoundAudit:
    def test_small_audit_rate_and_pehe_bound(self):
        env = hard4(delta=default_hard_delta(4, 400))
        cfg = ProtocolConfig(budget=400, strategy="random",
                             estimator_lambda=1.0, seed=0)
        res = bound_violation_audit(env, cfg, n_pool=400, replications=50,
                                    delta=0.1, master_seed=11)
        assert res.rate <= 0.1
        held = res.radii <= res.betas
        assert np.all(res.pehe_values[held] <= res.pehe_bounds[held] + 1e-12)

    def test_delta_monotonicity(self):
        """Smaller delta widens beta and can only reduce violations."""
        env = hard4()
        cfg = ProtocolConfig(budget=100, strategy="random", seed=0)
        big = bound_violation_audit(env, cfg, 100, 30, delta=0.5, master_seed=3)
        small = bound_violation_audit(env, cfg, 100, 30, delta=0.05,
                                      master_seed=3)
        assert np.all(small.betas >= big.betas)
        assert small.violations <= big.violations

    def test_maps_each_pool_once_per_replication(self, monkeypatch):
        """The audit reads the run's pool phi rows instead of mapping again."""
        rows = []
        apply_many = FeatureMap.apply_many

        def recording(fmap, xs):
            rows.append(len(xs))
            return apply_many(fmap, xs)

        monkeypatch.setattr(FeatureMap, "apply_many", recording)
        cfg = ProtocolConfig(budget=40, strategy="random", seed=0)
        bound_violation_audit(hard4(), cfg, 60, 3, delta=0.1, master_seed=5)
        assert rows.count(60) == 3

    def test_invalid_delta_rejected(self):
        env = hard4()
        cfg = ProtocolConfig(budget=50, strategy="random", seed=0)
        with pytest.raises(ValueError):
            bound_violation_audit(env, cfg, 50, 5, delta=1.0)

    def test_lambda_zero_rejected(self):
        env = hard4()
        cfg = ProtocolConfig(budget=50, strategy="random",
                             estimator_lambda=0.0, seed=0)
        with pytest.raises(ValueError):
            bound_violation_audit(env, cfg, 50, 5, delta=0.1)


@pytest.mark.parametrize("audit", [
    lambda env, cfg: bound_violation_audit(env, cfg, 50, 0, delta=0.1).rate,
    lambda env, cfg: clt_diagnostic(env, cfg, 50, 0, x=[0.0]),
], ids=["bound_violation_audit", "clt_diagnostic"])
def test_zero_replications_rejected(audit):
    cfg = ProtocolConfig(budget=50, strategy="random", seed=0)
    with pytest.raises(ValueError, match="replication"):
        audit(hard4(), cfg)


class TestReplicate:
    """Sweep cells and both audits draw every replication through replicate."""

    def world(self):
        return env_from_json({
            "env": {"kind": "hard", "d": 4, "delta": 0.2, "theta_signs": [1, -1, 1, -1]},
            "obs_policy": {"kind": "logistic", "weights": [0.8, -0.8, 0.8, -0.8],
                           "sharpness": 2.0}})

    def test_audits_draw_once_per_replication_at_the_run_seeds(self, monkeypatch):
        seeds, draw = [], metrics.replicate
        monkeypatch.setattr(metrics, "replicate",
                            lambda *args: seeds.append(args[3].seed) or draw(*args))
        cfg = ProtocolConfig(budget=40, strategy="random")
        bound_violation_audit(hard4(), cfg, 60, 3, delta=0.1, master_seed=5)
        assert seeds == [derive_seed(5, 0x726570, r) for r in range(3)]
        seeds.clear()
        clt_diagnostic(hard4(), cfg, 60, 4, x=[0.0], master_seed=5)
        assert seeds == [derive_seed(5, 0x726570, r) for r in range(4)]

    def test_log_is_drawn_only_for_an_active_run(self, monkeypatch):
        env, policy, shift = self.world()
        drawn = []
        monkeypatch.setattr(metrics, "sample_obs",
                            lambda *args: drawn.append(args) or sample_obs(*args))
        for strategy, pol, n_obs in [("random", policy, 50), ("active", policy, 0),
                                     ("active", None, 50)]:
            cfg = ProtocolConfig(budget=10, max_batch=5, strategy=strategy)
            metrics.replicate(env, pol, shift, cfg, 30, n_obs)
        assert drawn == []
        metrics.replicate(env, policy, shift, ProtocolConfig(budget=10, seed=4), 30, 50)
        assert drawn == [(env, policy, shift, 50, derive_seed(4, 0x6F62))]

    def test_sweep_cell_row_is_recomputed_from_replicate(self, monkeypatch):
        world = self.world()
        env = world[0]
        base = ProtocolConfig(budget=0, max_batch=10)
        configs = []
        monkeypatch.setattr(cli, "replicate",
                            lambda *args: configs.append(args[3]) or metrics.replicate(*args))
        row = cli._sweep_cell((*world, base, 30, "active-full", 1, 7, 80, 60))

        seed = derive_seed(7, 30, zlib.crc32(b"active-full") & 0xFFFF, 1)
        cfg = replace(base, budget=30, seed=seed, weights=cli.STRATEGIES["active-full"])
        assert configs == [cfg]
        result = metrics.replicate(*world, cfg, 80, 60)
        theta_hat = result.solution.theta_hat
        phis, ts, ys = randomized_eval_set(env, 4000, derive_seed(7, 30, 1))
        v0 = result.solution.V - result.solution.lam * np.eye(4)
        assert row == [30, "active-full", 1, seed,
                       repr(pehe_exact_segments(theta_hat, env)),
                       repr(uplift_curve(phis @ theta_hat, ts, ys).auuc_normalized),
                       repr(float(np.linalg.eigvalsh(v0).min() / 30))]


class TestCltDiagnostic:
    def test_degenerate_point_rejected(self):
        from budgex.core import FeatureMap
        from budgex.envs import LinearEnv, SegmentMarginal
        env = LinearEnv(theta_star=(0.4,),
                        feature_map=FeatureMap(kind="identity", output_dim=1,
                                               norm_bound=2.0),
                        norm_budget=1.0,
                        marginal=SegmentMarginal((0.5, 0.5),
                                                 points=((0.0,), (1.0,))))
        cfg = ProtocolConfig(budget=100, strategy="random", seed=0)
        with pytest.raises(ValueError):
            clt_diagnostic(env, cfg, 100, 5, x=[0.0])

    def test_small_budget_flagged(self):
        env = HardInstance(d=1, delta=0.0, theta_signs=(1,))
        cfg = ProtocolConfig(budget=20, strategy="random",
                             estimator_lambda=0.0, seed=0)
        diag = clt_diagnostic(env, cfg, 20, 10, x=[0.0], master_seed=5)
        assert diag.small_budget_warning
        assert len(diag.z_scores) == 10

    def test_moderate_budget_roughly_normal(self):
        env = HardInstance(d=1, delta=0.0, theta_signs=(1,))
        cfg = ProtocolConfig(budget=400, strategy="random",
                             estimator_lambda=0.0, seed=0)
        diag = clt_diagnostic(env, cfg, 400, 200, x=[0.0], master_seed=7)
        assert diag.ks_statistic < 0.12
        assert not diag.small_budget_warning


class TestKsDistance:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-6.0, 6.0) | st.sampled_from([-1.0, 0.0, 0.5]),
                    min_size=1, max_size=500),
           st.floats(-3.0, 3.0), st.floats(0.05, 20.0))
    def test_matches_scipy_kstest(self, values, shift, scale):
        """The distance clt_diagnostic reports, against scipy's reference,
        on shifted and scaled samples with ties."""
        zs = shift + scale * np.asarray(values)
        expected = stats.kstest(zs, "norm").statistic
        assert abs(ks_distance_normal(zs) - expected) <= 1e-12


class TestScalingFit:
    def test_flat_input_gives_zero_slope(self):
        budgets = np.array([100, 200, 400, 800])
        means = np.full(4, 0.3)
        slope, _ = np.polyfit(np.log(budgets), np.log(means), 1)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_small_scaling_run_slope_negative(self, tmp_path):
        """The log-log slope of a budget sweep's mean PEHE, as its summary fits it."""
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"env": {"kind": "hard", "d": 4, "delta": 0.25,
                                           "theta_signs": [1, -1, 1, -1]}}))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "env": str(env), "budgets": [100, 200, 400, 800], "strategies": ["random"],
            "replications": 10, "protocol": {"estimator_lambda": 1.0}}))
        assert main(["sweep", "--sweep", str(sweep), "--out", str(tmp_path / "out"),
                     "--seed", "13"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["slopes"]["random"]["slope"] < -0.2
