"""End-to-end tests for the command-line interface."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import budgex
from budgex import acquisition, protocol
from budgex.acquisition import AcquisitionWeights
from budgex.cli import main, protocol_config_from_json
from budgex.core import FeatureMap, PropensityBounds, read_jsonl
from budgex.envs import EnvSpecError, HardInstance, load_env
from budgex.estimator import SingularDesignError, fit_ridge_arrays, solution_to_json
from budgex.metrics import pehe, randomized_eval_set, replicate
from budgex.protocol import AffinePolicy, ProtocolConfig

NAN, INF = float("nan"), float("inf")


def write_env(path, n_obs=80, n_pool=150, delta=0.2, with_policy=True):
    """A 4-segment hard world; a size given as None is left out of env.json."""
    doc = {
        "seed": 3,
        "n_obs": n_obs,
        "n_pool": n_pool,
        "env": {
            "kind": "hard",
            "d": 4,
            "delta": delta,
            "theta_signs": [1, -1, 1, -1],
            "S": 0.4,
        },
    }
    doc = {key: value for key, value in doc.items() if value is not None}
    if with_policy:
        doc["obs_policy"] = {"kind": "logistic",
                             "weights": [1.6, -1.6, 1.6, -1.6]}
        doc["obs_shift"] = {"kind": "tilt",
                            "direction": [1, -1, 1, -1], "strength": 0.5}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def write_box_env(path, obs_shift=None, n_pool=50):
    """A 2-d identity world on the box [-1, 1]^2 with a threshold log."""
    doc = {
        "seed": 3, "n_obs": 50, "n_pool": n_pool,
        "env": {"kind": "linear", "theta_star": [0.1, -0.1], "S": 0.2,
                "baseline_intercept": 0.5, "baseline_weights": [0.0, 0.0],
                "feature_map": {"kind": "identity", "output_dim": 2, "norm_bound": 2.0},
                "marginal": {"kind": "box", "lows": [-1.0, -1.0], "highs": [1.0, 1.0]}},
        "obs_policy": {"kind": "threshold", "direction": [1.0, 0.0], "cutoff": 0.0},
    }
    if obs_shift is not None:
        doc["obs_shift"] = obs_shift
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def mapped_rows(monkeypatch):
    """The row count of every FeatureMap.apply_many call, in call order."""
    rows, apply_many = [], FeatureMap.apply_many

    def recording(fmap, xs):
        rows.append(len(xs))
        return apply_many(fmap, xs)

    monkeypatch.setattr(FeatureMap, "apply_many", recording)
    return rows


def write_protocol(path, budget=30, strategy="active"):
    with open(path, "w") as fh:
        json.dump({"budget": budget, "max_batch": 10,
                   "strategy": strategy}, fh)
    return path


class TestGenerate:
    def test_outputs_and_sizes(self, tmp_path):
        env = write_env(tmp_path / "env.json")
        out = tmp_path / "data"
        assert main(["generate", "--env", str(env), "--out", str(out)]) == 0
        pool = read_jsonl(out / "pool.jsonl", "pool")
        obs = read_jsonl(out / "obs.jsonl", "obs")
        assert len(pool) == 150 and len(obs) == 80
        assert pool.ids.tolist() == list(range(150))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3 and "env_spec_sha256" in manifest

    def test_no_policy_means_no_obs_file(self, tmp_path):
        env = write_env(tmp_path / "env.json", n_obs=0, with_policy=False)
        out = tmp_path / "data"
        assert main(["generate", "--env", str(env), "--out", str(out)]) == 0
        assert not (out / "obs.jsonl").exists()

    @pytest.mark.parametrize("key, n_obs", [("n_obs", 80), ("obs_shift", 0)])
    def test_a_log_without_a_policy_rejected_before_any_output(self, tmp_path, key, n_obs):
        """A log's size or shift without the policy to draw it used to be
        ignored: generate exited 0 and wrote no log."""
        env = write_env(tmp_path / "env.json", n_obs=n_obs)
        doc = json.loads(env.read_text())
        del doc["obs_policy"]
        if key == "n_obs":
            del doc["obs_shift"]
        env.write_text(json.dumps(doc))
        out = tmp_path / "data"
        with pytest.raises(EnvSpecError, match=f"{key}.*obs_policy"):
            main(["generate", "--env", str(env), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("world", [{"n_obs": 0}, {"n_obs": 0, "with_policy": False}],
                             ids=["no-log-rows", "no-log-policy"])
    def test_a_world_without_a_log_removes_an_earlier_log(self, tmp_path, world):
        """Regenerating into a directory used to leave the earlier world's
        obs.jsonl behind, and an active run then fit e_obs and o from it."""
        out = tmp_path / "data"
        env = write_env(tmp_path / "env.json")
        assert main(["generate", "--env", str(env), "--out", str(out)]) == 0
        assert len(read_jsonl(out / "obs.jsonl", "obs")) == 80
        env = write_env(tmp_path / "env.json", n_pool=40, **world)
        assert main(["generate", "--env", str(env), "--out", str(out)]) == 0
        assert not (out / "obs.jsonl").exists()
        assert len(read_jsonl(out / "pool.jsonl", "pool")) == 40

    def test_invalid_spec_rejected(self, tmp_path):
        env = write_env(tmp_path / "env.json", delta=0.6)
        with pytest.raises(EnvSpecError):
            main(["generate", "--env", str(env), "--out", str(tmp_path / "d")])

    def test_misspelt_env_key_rejected(self, tmp_path):
        env = write_env(tmp_path / "env.json")
        doc = json.loads(env.read_text())
        doc["obs_policy"]["weigths"] = doc["obs_policy"].pop("weights")
        env.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'weigths'"):
            main(["generate", "--env", str(env), "--out", str(tmp_path / "d")])

    @pytest.mark.parametrize("block, key, value", [
        ("obs_shift", "direction", [1.0]),
        ("obs_shift", "direction", [1.0, -1.0, 1.0, -1.0, 1.0]),
        ("obs_policy", "weights", [0.8, -0.8]),
        ("obs_policy", "direction", [1.0, 0.0, 0.0]),
    ])
    def test_vector_of_wrong_length_rejected_before_any_output(self, tmp_path, block,
                                                               key, value):
        """A one-entry tilt on four segments used to broadcast to no tilt at
        all, and a short policy vector to fail in a matmul after --out was made."""
        env = write_env(tmp_path / "env.json")
        doc = json.loads(env.read_text())
        if key == "direction" and block == "obs_policy":
            doc["obs_policy"] = {"kind": "threshold", "cutoff": 0.5}
        doc[block][key] = value
        env.write_text(json.dumps(doc))
        with pytest.raises(EnvSpecError, match=key):
            main(["generate", "--env", str(env), "--out", str(tmp_path / "d")])
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key, value", [("n_pool", 100.5), ("n_obs", 50.5)])
    def test_fractional_size_rejected_before_any_output(self, tmp_path, key, value):
        """A fractional size used to fail in sampling after --out was made."""
        env = write_env(tmp_path / "env.json")
        doc = json.loads(env.read_text())
        doc[key] = value
        env.write_text(json.dumps(doc))
        with pytest.raises(EnvSpecError, match=f"{key} must be an integer"):
            main(["generate", "--env", str(env), "--out", str(tmp_path / "d")])
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key, value", [("n_pool", 0), ("n_obs", -1)])
    def test_size_below_its_bound_rejected_before_any_output(self, tmp_path, key, value):
        """n_pool 0 used to fail in sampling after --out was made."""
        env = write_env(tmp_path / "env.json")
        doc = json.loads(env.read_text())
        doc[key] = value
        env.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{key} must be >= "):
            main(["generate", "--env", str(env), "--out", str(tmp_path / "d")])
        assert not (tmp_path / "d").exists()

    def test_box_tilt_rejected_before_any_output(self, tmp_path):
        """A tilt is defined on segment marginals only; on a box world it used
        to fail in sample_obs after pool.jsonl had been written."""
        env = write_box_env(tmp_path / "env.json", obs_shift={
            "kind": "tilt", "direction": [1.0, 0.0], "strength": 1.0})
        with pytest.raises(EnvSpecError, match="segment marginals"):
            main(["generate", "--env", str(env), "--out", str(tmp_path / "d")])
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("box, change, path", [
        (False, {"S": NAN}, "env.json.env.S"),
        (False, {"S": True}, "env.json.env.S"),
        (False, {"delta": INF}, "env.json.env.delta"),
        (True, {"theta_star": [NAN, -0.1]}, "env.json.env.theta_star.0"),
        (True, {"marginal": {"kind": "segments", "probs": [0.5, NAN],
                             "points": [[-1.0, 0.0], [1.0, 0.0]]}},
         "env.json.env.marginal.probs.1"),
        (True, {"feature_map": {"kind": "identity", "output_dim": True,
                                "norm_bound": 2.0}}, "env.json.env.feature_map.output_dim"),
        (True, {"cutoff": NAN}, "env.json.obs_policy.cutoff"),
        (True, {"direction": [True, False]}, "env.json.obs_policy.direction.0"),
    ], ids=["nan-S", "bool-S", "inf-delta", "nan-theta_star",
            "nan-segment-probs", "bool-output_dim", "nan-cutoff", "bool-direction"])
    def test_bool_or_non_finite_number_rejected_before_any_output(self, tmp_path, box,
                                                                  change, path):
        """A NaN S used to make every width NaN and the audit report no violation,
        and a bool to pass as 1 or 0."""
        env = (write_box_env if box else write_env)(tmp_path / "env.json")
        doc = json.loads(env.read_text())
        for key, value in change.items():
            doc["obs_policy" if key in doc["obs_policy"] else "env"][key] = value
        env.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path} must be a finite number")):
            main(["generate", "--env", str(env), "--out", str(tmp_path / "d")])
        assert not (tmp_path / "d").exists()

    def test_regeneration_is_byte_identical(self, tmp_path):
        env = write_env(tmp_path / "env.json")
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--env", str(env), "--out", str(a)])
        main(["generate", "--env", str(env), "--out", str(b)])
        for name in ("pool.jsonl", "obs.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.fixture
def generated(tmp_path):
    env = write_env(tmp_path / "env.json")
    data = tmp_path / "data"
    main(["generate", "--env", str(env), "--out", str(data)])
    return env, data


@pytest.mark.parametrize("argv", [
    ["generate", "--env", "env.json", "--out", "data", "--seed", "3"],
    ["sweep", "--sweep", "sweep.json", "--out", "out", "--reps", "2"],
], ids=["generate-seed", "sweep-reps"])
def test_a_flag_beside_its_json_key_is_a_usage_error(argv):
    """generate's seed is env.json's seed and sweep's replications are
    sweep.json's replications: neither has a flag that overrides it."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


class TestRun:
    def test_replication_layout(self, generated, tmp_path):
        env, data = generated
        proto = write_protocol(tmp_path / "protocol.json")
        out = tmp_path / "runs"
        rc = main(["run", "--env", str(env), "--protocol", str(proto),
                   "--data", str(data), "--out", str(out),
                   "--reps", "2", "--seed", "7"])
        assert rc == 0
        for r in range(2):
            rep = out / f"rep_{r:04d}"
            records = read_jsonl(rep / "rct.jsonl", "rct")
            assert len(records) == 30
            sol = json.loads((rep / "solution.json").read_text())
            assert len(sol["theta_hat"]) == 4
            summary = json.loads((rep / "run_summary.json").read_text())
            assert summary["budget_used"] == 30
            assert sum(summary["batch_sizes"]) == 30
            for k in range(1, len(summary["batch_sizes"]) + 1):
                assert (rep / f"scores_round_{k}.csv").exists()
        assert (out / "manifest.json").exists()

    def test_run_is_byte_deterministic_apart_from_timing(self, generated, tmp_path):
        env, data = generated
        proto = write_protocol(tmp_path / "protocol.json")
        files = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--env", str(env), "--protocol", str(proto),
                         "--data", str(data), "--out", str(out),
                         "--reps", "2", "--seed", "7"]) == 0
            files.append({p.relative_to(out): p.read_bytes()
                          for p in out.rglob("*") if p.is_file()})
        a, b = files
        timing = {p for p in a if p.name == "timing.json"}
        assert len(timing) == 2
        for p in timing:
            assert set(json.loads(a[p])) == {"wall_time_s"}
        assert set(a) == set(b)
        assert {p: v for p, v in a.items() if p not in timing} == \
            {p: v for p, v in b.items() if p not in timing}

    def test_mode_flag_is_a_usage_error(self, generated, tmp_path):
        env, data = generated
        proto = write_protocol(tmp_path / "protocol.json", strategy="random")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--env", str(env), "--protocol", str(proto),
                  "--data", str(data), "--out", str(tmp_path / "runs"),
                  "--mode", "fusion"])
        assert exc.value.code == 2

    def test_obs_file_without_rows_acts_as_no_log(self, generated, tmp_path):
        env, data = generated
        (data / "obs.jsonl").write_text("")
        proto = write_protocol(tmp_path / "protocol.json")
        base = ["run", "--env", str(env), "--protocol", str(proto),
                "--data", str(data)]
        assert main(base + ["--out", str(tmp_path / "active")]) == 0

    def test_strict_budget_flag(self, generated, tmp_path):
        """--strict-budget is gone; a budget above the pool size exhausts it."""
        env, data = generated
        proto = write_protocol(tmp_path / "protocol.json", budget=500,
                               strategy="random")
        base = ["run", "--env", str(env), "--protocol", str(proto),
                "--data", str(data)]
        with pytest.raises(SystemExit) as exc:
            main(base + ["--out", str(tmp_path / "r1"), "--strict-budget"])
        assert exc.value.code == 2
        assert not (tmp_path / "r1").exists()
        assert main(base + ["--out", str(tmp_path / "r2")]) == 0
        summary = json.loads(
            (tmp_path / "r2" / "rep_0000" / "run_summary.json").read_text())
        assert summary["budget_used"] == 150  # pool exhausted

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_reps_below_one_rejected_before_any_output(self, generated, tmp_path, reps):
        env, data = generated
        proto = write_protocol(tmp_path / "protocol.json")
        with pytest.raises(ValueError, match="replications"):
            main(["run", "--env", str(env), "--protocol", str(proto),
                  "--data", str(data), "--out", str(tmp_path / "runs"),
                  "--reps", reps])
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("pool_lines, error, message", [
        (None, FileNotFoundError, "pool.jsonl"),
        (['{"id": 4, "x": [1.0]}', '{"id": 4, "x": [2.0]}'], ValueError, "distinct"),
    ], ids=["no-pool-file", "repeated-id"])
    def test_bad_data_rejected_before_any_output(self, generated, tmp_path, pool_lines,
                                                 error, message):
        """Both used to raise after an empty --out directory was made."""
        env, _ = generated
        data = tmp_path / "bad-data"
        data.mkdir()
        if pool_lines is not None:
            (data / "pool.jsonl").write_text("\n".join(pool_lines) + "\n")
        proto = write_protocol(tmp_path / "protocol.json")
        out = tmp_path / "runs"
        with pytest.raises(error, match=message):
            main(["run", "--env", str(env), "--protocol", str(proto),
                  "--data", str(data), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("key, value, error", [
        ("budget", 30.5, TypeError),
        ("max_batch", 2.5, TypeError),
        ("estimator_lambda", -1.0, ValueError),
        ("estimator_lambda", float("nan"), ValueError),
        ("estimator_lambda", float("inf"), ValueError),
        ("randomization", {"kind": "constant", "p": float("nan")}, ValueError),
        ("randomization", {"kind": "affine", "weights": [0.1, 0.0, 0.0, 0.0],
                           "bias": float("nan")}, ValueError),
        ("randomization", {"kind": "affine", "weights": [0.1]}, ValueError),
        ("budget", True, ValueError),
        ("max_batch", True, ValueError),
        ("estimator_lambda", True, ValueError),
        ("weights", {"alpha": True}, ValueError),
        ("weights", {"beta": True}, ValueError),
        ("weights", {"gamma": True}, ValueError),
        ("randomization", {"kind": "constant", "p": True}, ValueError),
        ("randomization", {"kind": "affine", "weights": [0.1, 0.0, 0.0, 0.0],
                           "bias": True}, ValueError),
        ("randomization", {"kind": "affine", "weights": [True, 0.0, 0.0, 0.0]},
         ValueError),
        ("weights", {"alpha": NAN}, ValueError),
        ("weights", {"beta": INF}, ValueError),
        ("weights", {"gamma": INF}, ValueError),
        ("estimator_lambda", 0.0, ValueError),
    ])
    def test_bad_protocol_rejected_before_any_output(self, generated, tmp_path,
                                                     key, value, error):
        env, data = generated
        proto = tmp_path / "protocol.json"
        proto.write_text(json.dumps({"budget": 30, "max_batch": 10, key: value}))
        with pytest.raises(error):
            main(["run", "--env", str(env), "--protocol", str(proto),
                  "--data", str(data), "--out", str(tmp_path / "runs")])
        assert not (tmp_path / "runs").exists()

    def test_failed_replication_leaves_nothing_behind(self, generated, tmp_path,
                                                      monkeypatch):
        """A replication's files are written after its run returns: a run that
        failed in round 2 used to leave its scores_round_1.csv."""
        env, data = generated
        proto = write_protocol(tmp_path / "protocol.json")
        calls, assign = [], protocol._assign_and_observe

        def failing_in_round_2(*args):
            calls.append(len(args[2]))
            if len(calls) == 2:
                raise RuntimeError("round 2 failed")
            return assign(*args)

        monkeypatch.setattr(protocol, "_assign_and_observe", failing_in_round_2)
        out = tmp_path / "runs"
        with pytest.raises(RuntimeError, match="round 2 failed"):
            main(["run", "--env", str(env), "--protocol", str(proto),
                  "--data", str(data), "--out", str(out)])
        assert calls == [10, 10] and not (out / "rep_0000").exists()


class TestProtocolConfigFromJson:
    def test_unset_keys_keep_the_dataclass_defaults(self):
        assert protocol_config_from_json({"budget": 7}) == ProtocolConfig(budget=7)

    def test_estimator_lambda_is_the_ensemble_default(self, generated, tmp_path,
                                                      monkeypatch):
        """v's one ridge fit per scored round of an active run uses the
        protocol's estimator_lambda, as the final fit does."""
        env, data = generated
        lams, fit = [], acquisition.fit_ridge_arrays
        monkeypatch.setattr(acquisition, "fit_ridge_arrays",
                            lambda phis, yts, lam: lams.append(lam) or fit(phis, yts, lam))
        proto = tmp_path / "protocol.json"
        proto.write_text(json.dumps({"budget": 30, "max_batch": 10,
                                     "estimator_lambda": 3.0}))
        assert main(["run", "--env", str(env), "--protocol", str(proto),
                     "--data", str(data), "--out", str(tmp_path / "run")]) == 0
        assert len(lams) == 2 and set(lams) == {3.0}
        solution = json.loads((tmp_path / "run" / "rep_0000" / "solution.json").read_text())
        assert solution["lambda"] == 3.0

    def test_every_set_key_is_used(self):
        doc = {"budget": 9, "max_batch": 3, "f_min": 0.1,
               "f_max": 0.7, "strategy": "random", "estimator_lambda": 2.0,
               "randomization": {"kind": "affine", "weights": [0.1], "bias": 0.4},
               "weights": {"alpha": 0.1, "beta": 0.2, "gamma": 0.3}}
        cfg = replace(protocol_config_from_json(doc), seed=5)
        assert cfg == ProtocolConfig(
            budget=9, max_batch=3,
            bounds=PropensityBounds(0.1, 0.7),
            randomization=AffinePolicy((0.1,), 0.4), strategy="random",
            weights=AcquisitionWeights(0.1, 0.2, 0.3),
            estimator_lambda=2.0, seed=5)


    @pytest.mark.parametrize("doc, key", [
        ({"budget": 5, "max_bach": 3}, "'max_bach'"),
        ({"budget": 5, "weights": {"alfa": 0.0}}, "'alfa'"),
        ({"budget": 5, "randomization": {"kind": "constant", "q": 0.5}}, "'q'"),
        ({"budget": 5, "ensemble": {"n_members": 4}}, "'ensemble'"),
        ({"budget": 5, "max_rounds": 4}, "'max_rounds'"),
        ({"budget": 5, "mode": "fusion"}, "'mode'"),
        ({"budget": 5, "randomization": {"kind": "thompson"}}, "'thompson'"),
        ({"budget": 5, "randomization": {"kind": "variance-optimal"}}, "'variance-optimal'"),
    ])
    def test_unknown_keys_rejected(self, doc, key):
        with pytest.raises(ValueError, match=key):
            protocol_config_from_json(doc)


class TestEvaluate:
    def test_outputs(self, generated, tmp_path):
        env, data = generated
        proto = write_protocol(tmp_path / "protocol.json")
        runs = tmp_path / "runs"
        main(["run", "--env", str(env), "--protocol", str(proto),
              "--data", str(data), "--out", str(runs), "--seed", "7"])
        out = tmp_path / "eval"
        rc = main(["evaluate", "--env", str(env),
                   "--solution", str(runs / "rep_0000" / "solution.json"),
                   "--out", str(out), "--n-eval", "500"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["pehe"] <= 1.0
        assert summary["n_eval"] == 500
        with open(out / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["pehe", "auuc", "n_eval"]
        assert float(rows[1][0]) == pytest.approx(summary["pehe"])

    def test_maps_each_evaluation_sample_once(self, tmp_path, mapped_rows):
        """Past the parse's map of the four box corners, the one holdout, which
        scores both the PEHE and the AUUC, is mapped once and scored in phi."""
        env = write_box_env(tmp_path / "env.json")
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps({"theta_hat": [0.05, -0.02], "lambda": 1.0,
                                        "n": 0, "V": [1.0, 0.0, 0.0, 1.0]}))
        assert main(["evaluate", "--env", str(env), "--solution", str(solution),
                     "--out", str(tmp_path / "eval"), "--n-eval", "50"]) == 0
        assert mapped_rows == [4, 50]

    @pytest.mark.parametrize("n_eval", ["0", "1"])
    def test_n_eval_below_two_rejected_before_any_output(self, generated, tmp_path,
                                                          n_eval):
        env, data = generated
        proto = write_protocol(tmp_path / "protocol.json")
        runs = tmp_path / "runs"
        main(["run", "--env", str(env), "--protocol", str(proto),
              "--data", str(data), "--out", str(runs)])
        with pytest.raises(ValueError, match="--n-eval"):
            main(["evaluate", "--env", str(env),
                  "--solution", str(runs / "rep_0000" / "solution.json"),
                  "--out", str(tmp_path / "eval"), "--n-eval", n_eval])
        assert not (tmp_path / "eval").exists()

    def test_theta_hat_of_another_dimension_rejected_before_any_output(self, tmp_path):
        """A 3-coordinate theta_hat on the d=4 world used to fail inside a
        numpy matmul after --out was made."""
        env = write_env(tmp_path / "env.json")
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps({"theta_hat": [0.1, -0.1, 0.1], "lambda": 1.0,
                                        "n": 0, "V": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0,
                                                      0.0, 0.0, 1.0]}))
        with pytest.raises(ValueError, match="solution.json theta_hat has 3 coordinates; "
                                             "the env's phi has 4"):
            main(["evaluate", "--env", str(env), "--solution", str(solution),
                  "--out", str(tmp_path / "eval"), "--n-eval", "50"])
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("field, value", [
        ("theta_hat", [float("nan"), 0.0]),
        ("V", [1.0, 0.0, float("nan"), 1.0]),
        ("lambda", True),
    ], ids=["nan-theta_hat", "nan-V", "bool-lambda"])
    def test_bool_or_non_finite_solution_rejected_before_any_output(self, tmp_path,
                                                                    field, value):
        env = write_box_env(tmp_path / "env.json")
        doc = {"theta_hat": [0.05, -0.02], "lambda": 1.0, "n": 3,
               "V": [1.0, 0.0, 0.0, 1.0], field: value}
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"solution.json.{field}"):
            main(["evaluate", "--env", str(env), "--solution", str(solution),
                  "--out", str(tmp_path / "eval"), "--n-eval", "50"])
        assert not (tmp_path / "eval").exists()


class TestSweep:
    @staticmethod
    def write_env(path, **kwargs):
        """A world that leaves the sizes to sweep.json."""
        return write_env(path, n_obs=None, n_pool=None, **kwargs)

    def write_sweep(self, tmp_path, env):
        sweep = tmp_path / "sweep.json"
        with open(sweep, "w") as fh:
            json.dump({"env": str(env), "budgets": [40, 80],
                       "strategies": ["random", "active-full"],
                       "replications": 3, "n_pool": 200, "n_obs": 100,
                       "protocol": {"max_batch": 20}}, fh)
        return sweep

    def test_grid_cardinality_and_manifest(self, tmp_path):
        env = self.write_env(tmp_path / "env.json")
        sweep = self.write_sweep(tmp_path, env)
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--sweep", str(sweep), "--out", str(out),
                     "--seed", "11"]) == 0
        with open(out / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == ["budget", "strategy", "replication", "seed",
                          "pehe", "auuc", "min_eig_normalized"]
        assert len(body) == 2 * 2 * 3
        cells = {(r[0], r[1], r[2]) for r in body}
        assert len(cells) == 12
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["cells"]) == {"random", "active-full"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 11 and manifest["replications"] == 3

    @pytest.mark.parametrize("reps", [1, 3])
    def test_summary_pairs_each_strategy_with_random(self, tmp_path, reps):
        """Per (strategy, budget), the mean of the replications' PEHE minus
        random's PEHE at the same replication, and its standard error: null,
        not NaN, at one replication."""
        sweep = self.write_sweep(tmp_path, self.write_env(tmp_path / "env.json"))
        sweep.write_text(json.dumps({**json.loads(sweep.read_text()), "replications": reps}))
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(sweep), "--out", str(out), "--seed", "5"]) == 0
        with open(out / "metrics.csv") as fh:
            pehe_of = {(r["budget"], r["strategy"], r["replication"]): float(r["pehe"])
                       for r in csv.DictReader(fh)}
        text = (out / "summary.json").read_text()
        assert "NaN" not in text
        paired = json.loads(text)["pehe_minus_random"]
        assert list(paired) == ["active-full"]
        for budget in ("40", "80"):
            diffs = [pehe_of[budget, "active-full", str(r)] - pehe_of[budget, "random", str(r)]
                     for r in range(reps)]
            se = None if reps == 1 else float(np.std(diffs, ddof=1) / np.sqrt(reps))
            assert paired["active-full"][budget] == {"mean": float(np.mean(diffs)), "se": se}

    def test_summary_without_random_pairs_nothing(self, tmp_path):
        sweep = self.write_sweep(tmp_path, self.write_env(tmp_path / "env.json"))
        sweep.write_text(json.dumps({**json.loads(sweep.read_text()),
                                     "strategies": ["active-full", "active-d-only"]}))
        assert main(["sweep", "--sweep", str(sweep), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["pehe_minus_random"] == {}

    @pytest.mark.parametrize("typo", [{"replication": 2},
                                      {"protocol": {"max_bach": 20}}])
    def test_unknown_keys_rejected(self, tmp_path, typo):
        env = self.write_env(tmp_path / "env.json")
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"env": str(env), "budgets": [40],
                                     "strategies": ["random"], **typo}))
        with pytest.raises(ValueError, match="unknown key"):
            main(["sweep", "--sweep", str(sweep), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("change, with_policy, message", [
        ({"budgets": [20.0, 40.0, 60.0, 80.0]}, True, "positive integers"),
        ({"budgets": [20.5, 40]}, True, "positive integers"),
        ({"replications": 0}, True, "replications must be >= 1"),
        ({"n_pool": 0}, True, "n_pool must be >= 1"),
        ({"strategies": ["random", "active-ful"]}, True, "'active-ful'"),
        ({"n_obs": 0}, True, "need an obs policy"),
        ({}, False, "need an obs policy"),
        ({"protocol": {"budget": 5}}, True, "'budget'"),
        ({"protocol": {"strategy": "random"}}, True, "'strategy'"),
        ({"protocol": {"weights": {"alpha": 1.0}}}, True, "'weights'"),
        ({"protocol": {"randomization": {"kind": "affine", "weights": [0.1]}}}, True,
         "weights has length 1; phi has 4 coordinates"),
        ({"budgets": [20, 20, 30, 40]}, True, "budgets must not repeat"),
        ({"strategies": ["random", "random"]}, True, "strategies must not repeat"),
        ({"replications": 2.5}, True, "replications must be >= 1 and an integer"),
        ({"n_pool": 100.5}, True, "n_pool must be >= 1 and an integer"),
        ({"n_obs": 50.5}, True, "n_obs must be >= 0 and an integer"),
        ({"budgets": [16, "24"]}, True, "positive integers"),
        ({"protocol": {"f_max": NAN}}, True, "protocol.json.f_max must be a finite"),
        ({"budgets": 100}, True, "sweep.json budgets must be a JSON list, got 100"),
        ({"strategies": "random"}, True,
         "sweep.json strategies must be a JSON list, got 'random'"),
        ({"protocol": {"estimator_lambda": 0}}, True, "estimator_lambda > 0"),
        ({"budgets": [3, 40], "strategies": ["random"], "protocol": {"estimator_lambda": 0}},
         True, "needs at least d = 4 queries; the smallest cell makes 3"),
        ({"n_pool": 3, "strategies": ["random"], "protocol": {"estimator_lambda": 0}},
         True, "needs at least d = 4 queries; the smallest cell makes 3"),
    ], ids=["float-budgets", "fractional-budget", "zero-replications",
            "zero-pool", "unknown-strategy", "no-log-rows", "no-log-policy",
            "protocol-budget", "protocol-strategy", "protocol-weights",
            "short-affine-weights", "repeated-budget", "repeated-strategy",
            "fractional-replications", "fractional-pool", "fractional-log",
            "string-budget", "nan-protocol-f_max", "scalar-budgets", "string-strategies",
            "active-at-lambda-0", "random-budget-below-d-at-lambda-0",
            "random-pool-below-d-at-lambda-0"])
    def test_bad_inputs_fail_before_any_cell_runs(self, tmp_path, monkeypatch, change,
                                                   with_policy, message):
        cells = []
        monkeypatch.setattr(budgex.cli, "_sweep_replication", cells.append)
        env = self.write_env(tmp_path / "env.json", with_policy=with_policy)
        sweep = self.write_sweep(tmp_path, env)
        sweep.write_text(json.dumps({**json.loads(sweep.read_text()), **change}))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            main(["sweep", "--sweep", str(sweep), "--out", str(out)])
        assert cells == [] and not out.exists()

    def test_failed_cell_leaves_no_out_directory(self, tmp_path):
        """--out is made after the last cell returns: this random cell at
        estimator_lambda 0 queries a pool of 8 units that misses 4 of the 8
        segments, so its least-squares fit fails after the parse-time checks."""
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"env": {"kind": "hard", "d": 8, "delta": 0.2,
                                           "theta_signs": [1, -1] * 4}}))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"env": str(env), "budgets": [8], "n_pool": 8,
                                     "strategies": ["random"],
                                     "protocol": {"estimator_lambda": 0}}))
        out = tmp_path / "out"
        with pytest.raises(SingularDesignError, match="rank 4 < 8"):
            main(["sweep", "--sweep", str(sweep), "--out", str(out), "--seed", "0"])
        assert not out.exists()

    def test_random_grid_at_lambda_zero_runs(self, tmp_path):
        """Only the active strategy fits a ridge each round; a random cell at
        estimator_lambda 0 is OLS on its stream."""
        env = self.write_env(tmp_path / "env.json")
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"env": str(env), "budgets": [40],
                                     "strategies": ["random"], "n_pool": 80,
                                     "protocol": {"estimator_lambda": 0}}))
        assert main(["sweep", "--sweep", str(sweep), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("empty", ["budgets", "strategies"])
    def test_empty_grid_is_an_error_exit(self, tmp_path, monkeypatch, capsys, empty):
        cells = []
        monkeypatch.setattr(budgex.cli, "_sweep_replication", cells.append)
        sweep = self.write_sweep(tmp_path, self.write_env(tmp_path / "env.json"))
        sweep.write_text(json.dumps({**json.loads(sweep.read_text()), empty: []}))
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(sweep), "--out", str(out)]) == 2
        assert "error: sweep needs nonempty budgets and strategies" in capsys.readouterr().err
        assert cells == [] and not out.exists()

    @pytest.mark.parametrize("world", ["hard", "box"])
    def test_each_cell_is_an_evaluate_of_its_prefix_refit(self, tmp_path, monkeypatch,
                                                         world):
        """A cell's PEHE and AUUC texts are those `budgex evaluate --seed <its
        seed> --n-eval 4000` writes for the refit on its run's first n rows: one
        scoring path, with the PEHE exact on a segment world and over the
        holdout's x on a box."""
        env = (self.write_env(tmp_path / "env.json") if world == "hard"
               else write_box_env(tmp_path / "env.json", n_pool=60))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"env": str(env), "budgets": [20, 30],
                                     "strategies": ["random", "active-full"],
                                     "replications": 2, "n_pool": 60, "n_obs": 50,
                                     "protocol": {"max_batch": 10}}))
        runs = {}

        def recording(*args):
            config = args[3]
            key = config.seed, None if config.strategy == "random" else config.weights
            runs[key] = config, replicate(*args)
            return runs[key][1]

        monkeypatch.delenv("BUDGEX_THREADS", raising=False)
        monkeypatch.setattr(budgex.cli, "replicate", recording)
        assert main(["sweep", "--sweep", str(sweep), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2 and len(runs) == 2 * 2
        for i, row in enumerate(rows):
            config, result = runs[int(row["seed"]), budgex.cli.STRATEGIES[row["strategy"]]]
            n = int(row["budget"])
            solution = tmp_path / f"solution_{i}.json"
            solution.write_text(json.dumps(solution_to_json(fit_ridge_arrays(
                result.phis[:n], result.yts[:n], config.estimator_lambda))))
            out = tmp_path / f"eval_{i}"
            assert main(["evaluate", "--env", str(env), "--solution", str(solution),
                         "--out", str(out), "--seed", row["seed"], "--n-eval", "4000"]) == 0
            with open(out / "metrics.csv") as fh:
                evaluated = next(csv.DictReader(fh))
            assert (evaluated["pehe"], evaluated["auuc"]) == (row["pehe"], row["auuc"])

    def test_random_cell_maps_each_sample_once(self, mapped_rows):
        """A random hard replication maps its pool once, for its one run, and
        its 4,000-unit holdout once, for every cell; each cell maps the
        four segments once for the exact PEHE."""
        env = HardInstance(d=4, delta=0.2, theta_signs=(1, -1, 1, -1))
        config = ProtocolConfig(budget=0, max_batch=10, strategy="random", seed=7)
        mapped_rows.clear()  # the env's own check of its support
        budgex.cli._sweep_replication((env, None, env.marginal, config, [20, 30], 60, 0))
        assert mapped_rows == [60, 4000, 4, 4]

    def test_env_sizes_are_the_defaults(self, tmp_path, monkeypatch):
        """A size sweep.json leaves out is env.json's, and a size both set to
        the same value is that value."""
        sizes = []
        monkeypatch.setattr(budgex.cli, "replicate",
                            lambda *args: sizes.append(args[4:]) or replicate(*args))
        env = write_env(tmp_path / "env.json", n_obs=60, n_pool=90)
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"env": str(env), "budgets": [20, 40], "n_obs": 60,
                                     "strategies": ["random", "active-full"],
                                     "protocol": {"max_batch": 20}}))
        assert main(["sweep", "--sweep", str(sweep), "--out", str(tmp_path / "out")]) == 0
        assert sizes == [(90, 60), (90, 60)]

    @pytest.mark.parametrize("key, value", [("n_pool", 200), ("n_obs", 100)])
    def test_a_size_both_files_set_apart_is_rejected(self, tmp_path, monkeypatch, key,
                                                     value):
        cells = []
        monkeypatch.setattr(budgex.cli, "_sweep_replication", cells.append)
        env = write_env(tmp_path / "env.json")
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"env": str(env), "budgets": [40],
                                     "strategies": ["random"], key: value}))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"sweep.json {key} {value} differs from "
                                             f"env.json {key} "):
            main(["sweep", "--sweep", str(sweep), "--out", str(out)])
        assert cells == [] and not out.exists()

    def test_parallel_matches_serial_bytes(self, tmp_path, monkeypatch):
        env = self.write_env(tmp_path / "env.json")
        sweep = self.write_sweep(tmp_path, env)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        monkeypatch.delenv("BUDGEX_THREADS", raising=False)
        main(["sweep", "--sweep", str(sweep), "--out", str(serial),
              "--seed", "11"])
        monkeypatch.setenv("BUDGEX_THREADS", "2")
        main(["sweep", "--sweep", str(sweep), "--out", str(parallel),
              "--seed", "11"])
        assert (serial / "metrics.csv").read_bytes() == \
            (parallel / "metrics.csv").read_bytes()
        assert (serial / "summary.json").read_bytes() == \
            (parallel / "summary.json").read_bytes()

    def test_box_world_cells_score_pehe_on_the_4000_unit_holdout(self, tmp_path,
                                                                 monkeypatch):
        """A continuous world has no exact PEHE: a cell evaluates its theta_hat
        on the x of its replication's 4,000-unit holdout,
        randomized_eval_set(world, 4000, seed), in workers too."""
        env = write_box_env(tmp_path / "env.json", n_pool=60)
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"env": str(env), "budgets": [20, 40],
                                     "strategies": ["random", "active-full"],
                                     "replications": 1, "n_pool": 60, "n_obs": 50,
                                     "protocol": {"max_batch": 10}}))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        monkeypatch.delenv("BUDGEX_THREADS", raising=False)
        assert main(["sweep", "--sweep", str(sweep), "--out", str(serial)]) == 0
        monkeypatch.setenv("BUDGEX_THREADS", "2")
        assert main(["sweep", "--sweep", str(sweep), "--out", str(parallel)]) == 0
        assert (serial / "metrics.csv").read_bytes() == \
            (parallel / "metrics.csv").read_bytes()

        with open(serial / "metrics.csv") as fh:
            row = next(r for r in csv.DictReader(fh)
                       if r["budget"] == "40" and r["strategy"] == "random")
        world, policy, obs_marginal, _ = load_env(env)
        seed = int(row["seed"])
        cfg = ProtocolConfig(budget=40, max_batch=10, strategy="random", seed=seed)
        theta_hat = replicate(world, policy, obs_marginal, cfg, 60, 50).solution.theta_hat
        phis = randomized_eval_set(world, 4000, seed)[0]
        assert row["pehe"] == repr(pehe(theta_hat, world, phis))


@pytest.mark.parametrize("name, block, key, where", [
    ("env.json", "", "env", "env.json"),
    ("env.json", "env", "delta", "env.json env (hard)"),
    ("env.json", "obs_policy", "weights", "env.json obs_policy (logistic)"),
    ("env.json", "obs_shift", "strength", "env.json obs_shift (tilt)"),
    ("box.json", "env", "baseline_intercept", "env.json env (linear)"),
    ("box.json", "env.feature_map", "norm_bound", "env.json feature_map"),
    ("box.json", "env.marginal", "highs", "env.json marginal (box)"),
    ("box.json", "obs_policy", "cutoff", "env.json obs_policy (threshold)"),
    ("protocol.json", "", "budget", "protocol.json"),
    ("protocol.json", "randomization", "weights", "protocol.json randomization (affine)"),
    ("sweep.json", "", "env", "sweep.json"),
    ("sweep.json", "", "budgets", "sweep.json"),
    ("sweep.json", "", "strategies", "sweep.json"),
])
def test_missing_key_rejected_before_any_output(tmp_path, name, block, key, where):
    """A missing required key used to be a bare KeyError from wherever it was
    read; it fails as an unknown key does, naming its block."""
    env = write_env(tmp_path / "env.json")
    write_box_env(tmp_path / "box.json")
    main(["generate", "--env", str(env), "--out", str(tmp_path / "data")])
    (tmp_path / "protocol.json").write_text(json.dumps(
        {"budget": 30, "randomization": {"kind": "affine", "weights": [0.1, 0, 0, 0]}}))
    (tmp_path / "sweep.json").write_text(json.dumps(
        {"env": str(env), "budgets": [40], "strategies": ["random"]}))
    argv = {"env.json": ["generate", "--env", str(env)],
            "box.json": ["generate", "--env", str(tmp_path / "box.json")],
            "protocol.json": ["run", "--env", str(env), "--data", str(tmp_path / "data"),
                              "--protocol", str(tmp_path / "protocol.json")],
            "sweep.json": ["sweep", "--sweep", str(tmp_path / "sweep.json")]}[name]
    assert main(argv + ["--out", str(tmp_path / "whole")]) == 0

    doc = json.loads((tmp_path / name).read_text())
    target = doc
    for step in filter(None, block.split(".")):
        target = target[step]
    del target[key]
    (tmp_path / name).write_text(json.dumps(doc))
    out = tmp_path / "out"
    with pytest.raises(EnvSpecError, match=re.escape(f"{where} needs ['{key}']")):
        main(argv + ["--out", str(out)])
    assert not out.exists()


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing scipy.stats costs more
    than the rest of a budgex call's import, and no command needs it."""
    src = os.path.dirname(os.path.dirname(budgex.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import budgex, budgex.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
