"""Tests for pseudo-outcome regression and the confidence machinery."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from budgex.core import FeatureMap, PropensityBounds, RctStream
from budgex.estimator import (ConfidenceParams, RidgeSolution,
                              SingularDesignError, beta_bound, confidence_width,
                              default_sigma, ellipsoid_radius,
                              fit_ridge_arrays, pointwise_ci,
                              pseudo_outcome_values,
                              sandwich_from_arrays, solution_from_json,
                              solution_to_json)
from budgex._rng import rng_for

ONE_HOT_2 = FeatureMap(kind="segment-one-hot", output_dim=2, norm_bound=1.0)
ONE_HOT_1 = FeatureMap(kind="segment-one-hot", output_dim=1, norm_bound=1.0)


def rct(x, t, y, p, seq):
    """One stream row as a dict of its fields."""
    return {"x": x, "t": t, "y": y, "p": p, "seq": seq}


def stream(rows):
    return RctStream(xs=[r["x"] for r in rows], ts=[r["t"] for r in rows],
                     ys=[r["y"] for r in rows], ps=[r["p"] for r in rows],
                     seq=[r["seq"] for r in rows])


def design(rows, fmap):
    """Feature rows and pseudo-outcomes of a randomized stream."""
    s = stream(rows)
    return fmap.apply_many(s.xs), pseudo_outcome_values(s.ts, s.ys, s.ps)


def prior_only(dim, lam):
    """The fit on no rows: theta_hat = 0 and V = lam I."""
    return fit_ridge_arrays(np.zeros((0, dim)), np.zeros(0), lam)


class TestPseudoOutcome:
    def test_treated_branch(self):
        assert pseudo_outcome_values([1], [1.0], [0.5])[0] == 2.0

    def test_control_branch(self):
        assert pseudo_outcome_values([0], [1.0], [0.5])[0] == -2.0

    def test_value_respects_envelope(self):
        po = pseudo_outcome_values([1], [0.7], [0.2])[0]
        assert po == pytest.approx(3.5)
        bounds = PropensityBounds(0.2, 0.8)
        assert abs(po) <= bounds.pseudo_outcome_bound
        assert bounds.pseudo_outcome_bound == pytest.approx(5.0)

    def test_invalid_probability_rejected(self):
        bad = rct([0.0], 1, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            pseudo_outcome_values([bad["t"]], [bad["y"]], [bad["p"]])

    def test_sampled_values_never_exceed_bound(self):
        bounds = PropensityBounds(0.2, 0.8)
        rng = rng_for(17)
        ps = rng.uniform(bounds.f_min, bounds.f_max, size=5000)
        ts = (rng.random(5000) < ps).astype(int)
        ys = rng.random(5000)
        vals = pseudo_outcome_values(ts, ys, ps)
        assert np.all(np.abs(vals) <= bounds.pseudo_outcome_bound + 1e-12)


class TestFitRidge:
    def test_single_record_hand_solution(self):
        recs = [rct([0.0], 1, 1.0, 0.5, 1)]  # phi = e1, pseudo-outcome 2
        sol = fit_ridge_arrays(*design(recs, ONE_HOT_2), 1.0)
        np.testing.assert_allclose(sol.V, np.diag([2.0, 1.0]))
        np.testing.assert_allclose(sol.V @ sol.theta_hat, [2.0, 0.0])
        np.testing.assert_allclose(sol.theta_hat, [1.0, 0.0])

    def test_ols_is_sample_mean(self):
        recs = [rct([0.0], 1, 1.0, 0.5, s) for s in (1, 2)]
        sol = fit_ridge_arrays(*design(recs, ONE_HOT_1), 0.0)
        np.testing.assert_allclose(sol.theta_hat, [2.0])

    def test_singular_design_rejected(self):
        recs = [rct([0.0], 1, 1.0, 0.5, 1)]  # spans only e1 of d=2
        with pytest.raises(SingularDesignError, match="rank 1"):
            fit_ridge_arrays(*design(recs, ONE_HOT_2), 0.0)

    def test_normal_equation_residual(self):
        rng = rng_for(23)
        for trial in range(20):
            phis = rng.standard_normal((30, 3))
            yts = rng.standard_normal(30)
            lam = float(rng.uniform(0.01, 2.0))
            sol = fit_ridge_arrays(phis, yts, lam)
            moment = phis.T @ yts
            resid = np.linalg.norm(sol.V @ sol.theta_hat - moment)
            assert resid / (1.0 + np.linalg.norm(moment)) < 1e-10


class TestFitRidgeAgainstLstsq:
    """theta_hat solves the stacked least squares [Phi; sqrt(lam) I] theta
    = [Y~; 0]."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 20), st.integers(1, 4), st.floats(0.01, 10.0), st.data())
    def test_matches_the_stacked_system(self, n, d, lam, data):
        entries = st.floats(-10.0, 10.0)
        phis = np.array(data.draw(st.lists(entries, min_size=n * d, max_size=n * d)),
                        dtype=float).reshape(n, d)
        yts = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)), dtype=float)
        sol = fit_ridge_arrays(phis, yts, lam)
        ref, *_ = np.linalg.lstsq(np.vstack([phis, np.sqrt(lam) * np.eye(d)]),
                                  np.concatenate([yts, np.zeros(d)]), rcond=None)
        np.testing.assert_allclose(sol.theta_hat, ref, rtol=1e-6,
                                   atol=1e-9 * (1.0 + np.abs(ref).max()))


class TestPredictCate:
    def test_one_hot_lookup(self):
        sol = fit_ridge_arrays(np.array([[1.0, 0.0]]), np.array([2.0]), 1.0)
        assert (ONE_HOT_2.apply_many([[0.0]]) @ sol.theta_hat)[0] == pytest.approx(1.0)
        assert (ONE_HOT_2.apply_many([[1.0]]) @ sol.theta_hat)[0] == 0.0

    def test_zero_theta(self):
        sol = fit_ridge_arrays(np.zeros((0, 2)), np.zeros(0), 1.0)
        np.testing.assert_array_equal(sol.theta_hat, [0.0, 0.0])
        assert (ONE_HOT_2.apply_many([[1.0]]) @ sol.theta_hat)[0] == 0.0

    def test_dot_product(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=2.0)
        sol = solution_from_json({"theta_hat": [0.3, -0.2], "lambda": 1.0,
                                  "n": 0, "V": [1.0, 0.0, 0.0, 1.0]})
        assert (fmap.apply_many([[1.0, 1.0]]) @ sol.theta_hat)[0] == pytest.approx(0.1)


class TestBetaBound:
    def test_empty_design_closed_form(self):
        params = ConfidenceParams(sigma=1.0, S=1.0, delta=np.exp(-0.5))
        assert beta_bound(params, prior_only(2, 1.0)) == pytest.approx(2.0)

    def test_monotone_in_delta(self):
        phis = rng_for(5).standard_normal((10, 2))
        sol = fit_ridge_arrays(phis, np.zeros(10), 1.0)
        widths = [beta_bound(ConfidenceParams(1.0, 1.0, d), sol)
                  for d in (0.01, 0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_scalar_one_record(self):
        # V = 2, det ratio sqrt(2), S = 0:
        # beta = sqrt(2 (0.5 ln 2 + 0.5)) = sqrt(ln 2 + 1)
        sol = fit_ridge_arrays(np.array([[1.0]]), np.zeros(1), 1.0)
        params = ConfidenceParams(sigma=1.0, S=0.0, delta=np.exp(-0.5))
        assert beta_bound(params, sol) == pytest.approx(np.sqrt(np.log(2.0) + 1.0))

    def test_lambda_zero_unsupported(self):
        sol = fit_ridge_arrays(np.array([[1.0]]), np.zeros(1), 0.0)
        with pytest.raises(ValueError):
            beta_bound(ConfidenceParams(1.0, 1.0, 0.1), sol)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            ConfidenceParams(sigma=1.0, S=1.0, delta=1.0)

    def test_lambda_is_the_one_v_was_built_with(self):
        # V = 4 I from the prior alone: det V = det(lam I), so the log-det
        # ratio is 0 and beta = sqrt(2 ln(1 / delta)) + sqrt(4) S = 4.15.
        params = ConfidenceParams(sigma=1.0, S=1.0, delta=0.1)
        beta = beta_bound(params, prior_only(2, 4.0))
        assert beta == pytest.approx(np.sqrt(2.0 * np.log(10.0)) + 2.0)
        assert beta == pytest.approx(4.15, abs=5e-3)


class TestConfidenceWidth:
    def test_empty_design_width(self):
        sol = fit_ridge_arrays(np.zeros((0, 2)), np.zeros(0), 1.0)
        params = ConfidenceParams(sigma=1.0, S=1.0, delta=np.exp(-0.5))
        assert confidence_width(sol, params, ONE_HOT_2.apply_many([[0.0]])[0]) == pytest.approx(2.0)

    def test_width_shrinks_with_data(self):
        params = ConfidenceParams(sigma=1.0, S=1.0, delta=0.1)
        fmap = ONE_HOT_1
        # leverage shrinks linearly while beta grows only logarithmically
        prev = np.inf
        for n in (1, 2, 4, 8, 16):
            phis = np.ones((n, 1))
            sol = fit_ridge_arrays(phis, np.full(n, 2.0), 1.0)
            width = confidence_width(sol, params, fmap.apply_many([[0.0]])[0])
            assert width < prev
            prev = width

    def test_zero_feature_zero_width(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=2.0)
        sol = fit_ridge_arrays(np.eye(2), np.ones(2), 1.0)
        params = ConfidenceParams(sigma=1.0, S=1.0, delta=0.1)
        assert confidence_width(sol, params, fmap.apply_many([[0.0, 0.0]])[0]) == 0.0


class TestSandwich:
    def test_scalar_monte_carlo_avar(self):
        """Bernoulli(1/2) arms at p = 0.5: asymptotic variance 2."""
        rng = rng_for(31)
        n = 100_000
        ts = (rng.random(n) < 0.5).astype(int)
        ys = (rng.random(n) < 0.5).astype(float)
        yts = pseudo_outcome_values(ts, ys, np.full(n, 0.5))
        phis = np.ones((n, 1))
        sol = fit_ridge_arrays(phis, yts, 0.0)
        sw = sandwich_from_arrays(phis, yts, sol)
        assert abs(float(sw.avar[0, 0]) - 2.0) < 0.1

    def test_zero_residuals_zero_omega(self):
        phis = np.ones((5, 1))
        yts = np.full(5, 2.0)
        sol = fit_ridge_arrays(phis, yts, 0.0)
        sw = sandwich_from_arrays(phis, yts, sol)
        np.testing.assert_allclose(sw.omega_hat, 0.0, atol=1e-12)

    def test_avar_symmetric_psd(self):
        rng = rng_for(37)
        phis = rng.standard_normal((50, 3))
        yts = rng.standard_normal(50)
        sol = fit_ridge_arrays(phis, yts, 0.0)
        sw = sandwich_from_arrays(phis, yts, sol)
        np.testing.assert_allclose(sw.avar, sw.avar.T, atol=1e-10)
        assert np.linalg.eigvalsh(sw.avar).min() > -1e-10

    def test_too_few_records_rejected(self):
        phis = np.ones((1, 2))
        sol = fit_ridge_arrays(phis, np.ones(1), 1.0)
        with pytest.raises(ValueError):
            sandwich_from_arrays(phis, np.ones(1), sol)

    def test_record_interface(self):
        recs = [rct([0.0], 1, 1.0, 0.5, s + 1) for s in range(3)]
        sol = fit_ridge_arrays(*design(recs, ONE_HOT_1), 0.0)
        sw = sandwich_from_arrays(*design(recs, ONE_HOT_1), sol)
        assert sw.avar.shape == (1, 1)


class TestPointwiseCi:
    def solution(self, theta):
        return solution_from_json({"theta_hat": list(theta), "lambda": 0.0,
                                   "n": 0, "V": list(np.eye(len(theta)).ravel())})

    def sandwich(self, avar):
        from budgex.estimator import SandwichEstimate
        a = np.atleast_2d(np.asarray(avar, dtype=float))
        return SandwichEstimate(sigma_hat=np.eye(len(a)), omega_hat=a, avar=a)

    def test_half_width_arithmetic(self):
        fmap = FeatureMap(kind="identity", output_dim=1, norm_bound=1.0)
        lo, hi = pointwise_ci(self.solution([0.0]), self.sandwich([[2.0]]),
                              fmap.apply_many([[1.0]])[0], level=0.95, n=200)
        half = stats.norm.ppf(0.975) * np.sqrt(2.0 / 200)
        assert hi == pytest.approx(half)
        assert hi == pytest.approx(0.196, abs=1e-3)
        assert lo == -hi

    def test_median_level_quantile(self):
        fmap = FeatureMap(kind="identity", output_dim=1, norm_bound=1.0)
        lo, hi = pointwise_ci(self.solution([0.0]), self.sandwich([[1.0]]),
                              fmap.apply_many([[1.0]])[0], level=0.5, n=1)
        assert hi == pytest.approx(0.6745, abs=1e-4)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_quantile_matches_scipy(self, level):
        """With phi = 1, avar = 1 and n = 1 the half-width is the quantile.
        The one level whose 0.5 + level / 2 rounds to 1 has an infinite
        quantile and is left out."""
        assume(0.5 + level / 2.0 < 1.0)
        fmap = FeatureMap(kind="identity", output_dim=1, norm_bound=1.0)
        _, hi = pointwise_ci(self.solution([0.0]), self.sandwich([[1.0]]),
                             fmap.apply_many([[1.0]])[0], level=level, n=1)
        assert abs(hi - stats.norm.ppf(0.5 + level / 2.0)) <= 1e-12

    def test_zero_feature_degenerate(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=2.0)
        lo, hi = pointwise_ci(self.solution([0.4, 0.1]), self.sandwich(np.eye(2)),
                              fmap.apply_many([[0.0, 0.0]])[0], level=0.95, n=10)
        assert lo == hi == 0.0


class TestInfoMatrix:
    def test_minimum_eigenvalue_floor(self):
        rng = rng_for(43)
        phis = rng.standard_normal((10, 3))
        sol = fit_ridge_arrays(phis, np.zeros(10), lam=2.0)
        assert np.linalg.eigvalsh(sol.V).min() >= 2.0 - 1e-9

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            RidgeSolution(theta_hat=np.zeros(2), V=-np.eye(2), lam=-1.0, n=0)


class TestSerialization:
    def test_solution_round_trip(self):
        rng = rng_for(47)
        phis = rng.standard_normal((12, 2))
        sol = fit_ridge_arrays(phis, rng.standard_normal(12), 1.0)
        doc = solution_to_json(sol)
        back = solution_from_json(doc)
        np.testing.assert_allclose(back.theta_hat, sol.theta_hat)
        np.testing.assert_allclose(back.V, sol.V)

    def test_default_sigma(self):
        assert default_sigma(PropensityBounds(0.2, 0.8)) == pytest.approx(10.0)

    def test_solution_round_trip_keeps_lambda_and_n(self):
        sol = fit_ridge_arrays(np.eye(3), np.ones(3), 0.5)
        back = solution_from_json(solution_to_json(sol))
        assert (back.lam, back.n) == (sol.lam, sol.n) == (0.5, 3)
        assert back.V.tobytes() == sol.V.tobytes()

    def test_solution_arrays_are_read_only_copies(self):
        V = 2.0 * np.eye(2)
        sol = RidgeSolution(theta_hat=np.ones(2), V=V, lam=2.0, n=0)
        V[0, 0] = 5.0
        assert sol.V[0, 0] == 2.0
        for a in (sol.theta_hat, sol.V):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_ellipsoid_radius(self):
        sol = solution_from_json({"theta_hat": [1.0, 0.0], "lambda": 0.0,
                                  "n": 0, "V": [4.0, 0.0, 0.0, 1.0]})
        assert ellipsoid_radius(sol, [0.0, 0.0]) == pytest.approx(2.0)
