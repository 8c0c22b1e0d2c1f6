"""Tests for evaluation metrics and the verification harnesses."""

import hashlib
import json
import math
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
from budgex.estimator import fit_ridge_arrays
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
        auuc = uplift_curve([4.0, 3.0, 2.0, 1.0], [1, 0, 1, 0], [1, 0, 1, 0])
        assert auuc == pytest.approx(9.0 / 16.0)

    def test_matches_brute_force_on_example(self):
        scores, ts, ys = [4.0, 3.0, 2.0, 1.0], [1, 0, 1, 0], [1, 0, 1, 0]
        expected = brute_force_auuc(scores, ts, ys, list(range(4)))
        assert uplift_curve(scores, ts, ys) == pytest.approx(float(expected))

    def test_tied_scores_follow_id_order(self):
        ts, ys = [1, 0, 0, 1], [1, 1, 0, 1]
        tied = uplift_curve([0.5] * 4, ts, ys)
        expected = brute_force_auuc([0.5] * 4, ts, ys, [0, 1, 2, 3])
        assert tied == pytest.approx(float(expected))

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
                a = uplift_curve(scores, ts, ys)
                b = uplift_curve(np.tanh(scores), ts, ys)
            except ZeroGlobalLiftError:
                continue
            assert a == pytest.approx(b)

    def test_better_ranking_scores_higher(self):
        """Ranking true responders first beats the reversed ranking."""
        ts = [1, 1, 0, 0, 1, 0]
        ys = [1, 1, 0, 0, 0, 1]
        good = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        best = uplift_curve(good, ts, ys)
        worst = uplift_curve(good[::-1], ts, ys)
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
                            uplift_curve(perm, ts, ys)
                        continue
                    got = uplift_curve(perm, ts, ys)
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
            got = uplift_curve(scores, ts, ys)
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
        assert math.isnan(metrics.score(np.arange(4.0), env,
                                        randomized_eval_set(env, 200, seed=3))[1])


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

    def runs_counted(self, monkeypatch):
        """The list that records one None per protocol run the audit starts."""
        calls, run = [], metrics.run_protocol
        monkeypatch.setattr(metrics, "run_protocol",
                            lambda *args, **kw: calls.append(None) or run(*args, **kw))
        return calls

    def test_invalid_delta_rejected(self, monkeypatch):
        env = hard4()
        cfg = ProtocolConfig(budget=50, strategy="random", seed=0)
        runs = self.runs_counted(monkeypatch)
        with pytest.raises(ValueError):
            bound_violation_audit(env, cfg, 50, 5, delta=1.0)
        assert runs == []

    def test_lambda_zero_rejected(self, monkeypatch):
        env = hard4()
        cfg = ProtocolConfig(budget=50, strategy="random",
                             estimator_lambda=0.0, seed=0)
        runs = self.runs_counted(monkeypatch)
        with pytest.raises(ValueError):
            bound_violation_audit(env, cfg, 50, 5, delta=0.1)
        assert runs == []


def box5():
    """A 5-d identity box world, as in the CLI's golden run set."""
    return env_from_json({"env": {
        "kind": "linear", "theta_star": [0.08, -0.06, 0.05, -0.04, 0.03], "S": 0.2,
        "baseline_intercept": 0.5, "baseline_weights": [0.0] * 5,
        "feature_map": {"kind": "identity", "output_dim": 5,
                        "norm_bound": math.sqrt(5), "weight": None, "offset": None},
        "marginal": {"kind": "box", "lows": [-1.0] * 5, "highs": [1.0] * 5}}})[0]


def sha256_of(*arrays):
    return hashlib.sha256(b"".join(np.asarray(a, dtype=float).tobytes()
                                   for a in arrays)).hexdigest()


# (world, strategy) -> sha256 of the coverage audit's radii, betas, pehe_values
# and pehe_bounds, and of the CLT diagnostic's z_scores. A refactor of either
# audit leaves every digest as it is.
AUDIT_DIGESTS = {
    ("hard4", "random"): ("b0ddb5f05efcd3972c2d9c7e5f8c6e29358e5b77984711837c61a7eba804d213",
                          "85c9726cd3875ddde2554deb9d61741513f4b9a8fbbaedd01f65e9229d6f6794"),
    ("hard4", "active"): ("b12e442a2e9f64989abd6354645b93d2d321f4cb84d41964db60c5e06ee5548d",
                          "35df8a3e6d1c48b4d3c6dfe00035bfa4f936a1640aa47ae344a623cee310bd7a"),
    ("box5", "random"): ("5febfe29540925e97f70c0d54de4fd3e632b98d72afc5678f8fe55d38774dda4",
                         "fde9d46b6bbd054842995e27f09c2bec268fa32c016422713f982316864e9797"),
    ("box5", "active"): ("7ead2f857eee99d31c3941566dee7d6b79a6fdd3d7fe2502c58b94de26c7cacf",
                         "7b0cc1ab66f21fa07a2a7937029f1d3a257a6c54c9f97084607ce2b434f504af"),
}


@pytest.mark.parametrize("world, strategy", list(AUDIT_DIGESTS))
def test_audit_numbers_are_pinned(world, strategy):
    env, x = (hard4(), [0.0]) if world == "hard4" else (box5(), [0.5] * 5)
    cfg = ProtocolConfig(budget=120, max_batch=30, strategy=strategy, seed=0)
    bound = bound_violation_audit(env, cfg, 200, 8, delta=0.1, master_seed=3)
    clt = clt_diagnostic(env, cfg, 200, 8, x, master_seed=3)
    assert (sha256_of(bound.radii, bound.betas, bound.pehe_values, bound.pehe_bounds),
            sha256_of(clt.z_scores)) == AUDIT_DIGESTS[world, strategy]


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
            "obs_policy": {"kind": "logistic", "weights": [1.6, -1.6, 1.6, -1.6]}})

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
        env, policy, obs_marginal = self.world()
        drawn = []
        monkeypatch.setattr(metrics, "sample_obs",
                            lambda *args: drawn.append(args) or sample_obs(*args))
        for strategy, pol, n_obs in [("random", policy, 50), ("active", policy, 0),
                                     ("active", None, 50)]:
            cfg = ProtocolConfig(budget=10, max_batch=5, strategy=strategy)
            metrics.replicate(env, pol, obs_marginal, cfg, 30, n_obs)
        assert drawn == []
        metrics.replicate(env, policy, obs_marginal, ProtocolConfig(budget=10, seed=4), 30, 50)
        assert drawn == [(env, policy, obs_marginal, 50, derive_seed(4, 0x6F62))]

    def test_sweep_cell_row_is_recomputed_from_replicate(self, tmp_path, monkeypatch):
        """A sweep runs each (strategy, replication) once, at the largest
        budget and the replication's seed derive_seed(master, 0x737765, r),
        which every strategy and budget of r shares. Each row, B = 25 off the
        max_batch grid too, equals the fit of a run of its own at budget B and
        the seed. The AUUC holdout is drawn at the seed."""
        doc = {"env": {"kind": "hard", "d": 4, "delta": 0.2, "theta_signs": [1, -1, 1, -1]},
               "obs_policy": {"kind": "logistic", "weights": [1.6, -1.6, 1.6, -1.6]},
               "n_pool": 80, "n_obs": 60}
        world = env_from_json(doc)
        env = world[0]
        (tmp_path / "env.json").write_text(json.dumps(doc))
        (tmp_path / "sweep.json").write_text(json.dumps({
            "env": str(tmp_path / "env.json"), "budgets": [20, 25, 30],
            "strategies": ["random", "active-full"], "replications": 2,
            "protocol": {"max_batch": 10}}))
        configs = []
        monkeypatch.setattr(cli, "replicate",
                            lambda *args: configs.append(args[3]) or metrics.replicate(*args))
        assert main(["sweep", "--sweep", str(tmp_path / "sweep.json"),
                     "--out", str(tmp_path / "out"), "--seed", "7"]) == 0
        with open(tmp_path / "out" / "metrics.csv") as fh:
            rows = [line.rstrip("\r\n").split(",") for line in fh][1:]

        base = ProtocolConfig(budget=30, max_batch=10)
        runs = {(s, r): replace(base, seed=derive_seed(7, 0x737765, r),
                                strategy="random" if s == "random" else "active",
                                weights=cli.STRATEGIES[s] or base.weights)
                for s in ("random", "active-full") for r in range(2)}
        assert configs == list(runs.values())
        expected = []
        for budget in (20, 25, 30):
            for (s, r), cfg in runs.items():
                sol = metrics.replicate(*world, replace(cfg, budget=budget), 80, 60).solution
                phis, ts, ys = randomized_eval_set(env, 4000, cfg.seed)
                v0 = sol.V - np.eye(4)
                expected.append([str(budget), s, str(r), str(cfg.seed),
                                 repr(pehe_exact_segments(sol.theta_hat, env)),
                                 repr(uplift_curve(phis @ sol.theta_hat, ts, ys)),
                                 repr(float(np.linalg.eigvalsh(v0).min() / budget))])
        assert rows == expected

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), strategy=st.sampled_from(["random", "active"]),
           max_batch=st.integers(1, 12), data=st.data())
    def test_a_shorter_run_is_the_prefix_of_a_longer_one(self, seed, strategy,
                                                         max_batch, data):
        """At one seed, a run of any n = min(B, n_pool) queries, on the
        max_batch grid or not, is the first n rows of any longer run, and its
        fit is the refit on them, bit for bit (active runs with a log)."""
        world, n_pool = self.world(), 40
        n = data.draw(st.integers(1, n_pool), label="queries")
        longer = data.draw(st.integers(n, 2 * n_pool), label="longer budget")
        cfg = ProtocolConfig(budget=n, max_batch=max_batch, strategy=strategy, seed=seed)
        short = metrics.replicate(*world, cfg, n_pool, 50)
        full = metrics.replicate(*world, replace(cfg, budget=longer), n_pool, 50)
        refit = fit_ridge_arrays(full.phis[:n], full.yts[:n], cfg.estimator_lambda)
        assert short.unit_ids.tobytes() == full.unit_ids[:n].tobytes()
        assert short.yts.tobytes() == full.yts[:n].tobytes()
        assert short.solution.theta_hat.tobytes() == refit.theta_hat.tobytes()
        assert short.solution.V.tobytes() == refit.V.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), budget=st.integers(1, 50),
           batches=st.lists(st.integers(1, 50), min_size=2, max_size=4))
    def test_random_picks_do_not_depend_on_max_batch(self, seed, budget, batches):
        """At one seed, a random run's unit ids, Y~ and fit are the same for
        every max_batch."""
        world = self.world()
        runs = [metrics.replicate(*world, ProtocolConfig(budget=budget, max_batch=m,
                                                         strategy="random", seed=seed), 40, 0)
                for m in batches]
        for run in runs[1:]:
            assert run.unit_ids.tobytes() == runs[0].unit_ids.tobytes()
            assert run.yts.tobytes() == runs[0].yts.tobytes()
            assert run.solution.theta_hat.tobytes() == runs[0].solution.theta_hat.tobytes()


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

    def test_zero_sandwich_variance_rejected(self):
        """At B=12 on the 4-segment hard world, replication 0 is the first
        whose probe segment's pseudo-outcomes all sit on their fit; its z
        would be -inf (6 of the 20 would be; 2 others leave a segment
        unqueried, whose information matrix is singular)."""
        cfg = ProtocolConfig(budget=12, max_batch=12, strategy="random")
        with pytest.raises(ValueError, match="replication 0: the sandwich variance at x is 0.0"):
            clt_diagnostic(hard4(), cfg, 40, 20, x=[0], master_seed=1)

    @pytest.mark.parametrize("budget, error, message", [
        (12, np.linalg.LinAlgError, "normalized information matrix is singular"),
        (3, ValueError, "need at least d = 4 records, got 3"),
    ])
    def test_sandwich_failure_names_its_replication(self, budget, error, message):
        """On the 4-segment hard world, a replication that leaves a segment
        unqueried at B=12 has a singular Sigma-hat, and one of B=3 < d rows has
        no sandwich; each error keeps its type and names its replication."""
        cfg = ProtocolConfig(budget=budget, max_batch=12, strategy="random")
        with pytest.raises(error, match=rf"^replication \d+: {message}$"):
            clt_diagnostic(hard4(), cfg, 40, 20, x=[1], master_seed=4)

    def test_small_budget_gives_one_z_per_replication(self):
        env = HardInstance(d=1, delta=0.0, theta_signs=(1,))
        cfg = ProtocolConfig(budget=20, strategy="random",
                             estimator_lambda=0.0, seed=0)
        diag = clt_diagnostic(env, cfg, 20, 10, x=[0.0], master_seed=5)
        assert len(diag.z_scores) == 10

    def test_moderate_budget_roughly_normal(self):
        env = HardInstance(d=1, delta=0.0, theta_signs=(1,))
        cfg = ProtocolConfig(budget=400, strategy="random",
                             estimator_lambda=0.0, seed=0)
        diag = clt_diagnostic(env, cfg, 400, 200, x=[0.0], master_seed=7)
        assert diag.ks_statistic < 0.12


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
