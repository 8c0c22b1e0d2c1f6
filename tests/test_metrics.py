"""Tests for evaluation metrics and the verification harnesses."""

from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from budgex.core import FeatureMap
from budgex.envs import HardInstance, default_hard_delta
from budgex.metrics import (ZeroGlobalLiftError, bound_violation_audit,
                            clt_diagnostic, ks_distance_normal, pehe,
                            pehe_exact_segments, randomized_eval_set,
                            scaling_fit, uplift_curve)
from budgex.protocol import ProtocolConfig
from budgex._rng import rng_for


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
        xs = env.sample_x(100, rng_for(1))
        assert pehe(env.true_cate_many, env, xs) == 0.0

    def test_constant_offset(self):
        env = hard4()
        xs = env.sample_x(100, rng_for(2))
        shifted = lambda x: env.true_cate_many(x) + 0.1
        assert pehe(shifted, env, xs) == pytest.approx(0.1)

    def test_zero_predictor_on_hard_instance(self):
        env = hard4(delta=0.25)
        xs = env.sample_x(500, rng_for(3))
        zero = lambda x: np.zeros(len(np.atleast_2d(x)))
        assert pehe(zero, env, xs) == pytest.approx(0.25)

    def test_order_invariance(self):
        env = hard4()
        xs = env.sample_x(200, rng_for(4))
        pred = lambda x: np.atleast_2d(x)[:, 0] * 0.05
        a = pehe(pred, env, xs)
        b = pehe(pred, env, xs[::-1])
        assert a == pytest.approx(b)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            pehe(lambda x: x, hard4(), np.zeros((0, 1)))

    def test_exact_segment_variant(self):
        env = hard4(delta=0.25)
        zero = lambda x: np.zeros(len(np.atleast_2d(x)))
        assert pehe_exact_segments(zero, env) == pytest.approx(0.25)


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
        xs, ts, ys = randomized_eval_set(env, 4000, seed=7)
        assert len(xs) == len(ts) == len(ys) == 4000
        assert abs(ts.mean() - 0.5) < 4 * np.sqrt(0.25 / 4000)


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

    def test_grid_validation(self):
        env = hard4()
        cfg = ProtocolConfig(budget=10, strategy="random", seed=0)
        with pytest.raises(ValueError):
            scaling_fit(env, cfg, [100, 200, 300], replications=2)
        with pytest.raises(ValueError):
            scaling_fit(env, cfg, [100, 100, 200, 300], replications=2)

    def test_small_scaling_run_slope_negative(self):
        env = hard4(delta=0.25)
        cfg = ProtocolConfig(budget=10, strategy="random",
                             estimator_lambda=1.0, seed=0)
        fit = scaling_fit(env, cfg, [100, 200, 400, 800], replications=10,
                          master_seed=13)
        assert fit.slope < -0.2
        assert np.all(np.diff(fit.budgets) > 0)
