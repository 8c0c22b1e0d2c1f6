"""End-to-end tests for the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import budgex
from budgex import acquisition
from budgex.acquisition import AcquisitionWeights
from budgex.cli import main, protocol_config_from_json
from budgex.core import FeatureMap, PropensityBounds, read_jsonl
from budgex.envs import EnvSpecError, HardInstance, MarginalShift
from budgex.protocol import AffinePolicy, ProtocolConfig


def write_env(path, n_obs=80, n_pool=150, delta=0.2, with_policy=True):
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
    if with_policy:
        doc["obs_policy"] = {"kind": "logistic",
                             "weights": [0.8, -0.8, 0.8, -0.8],
                             "sharpness": 2.0}
        doc["obs_shift"] = {"kind": "tilt",
                            "direction": [1, -1, 1, -1], "strength": 0.5}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def write_box_env(path, obs_shift=None):
    """A 2-d identity world on the box [-1, 1]^2 with a threshold log."""
    doc = {
        "seed": 3, "n_obs": 50, "n_pool": 50,
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
        env = write_env(tmp_path / "env.json", with_policy=False)
        out = tmp_path / "data"
        assert main(["generate", "--env", str(env), "--out", str(out)]) == 0
        assert not (out / "obs.jsonl").exists()

    def test_invalid_spec_rejected(self, tmp_path):
        env = write_env(tmp_path / "env.json", delta=0.6)
        with pytest.raises(EnvSpecError):
            main(["generate", "--env", str(env), "--out", str(tmp_path / "d")])

    def test_misspelt_env_key_rejected(self, tmp_path):
        env = write_env(tmp_path / "env.json")
        doc = json.loads(env.read_text())
        doc["obs_policy"]["sharpnes"] = doc["obs_policy"].pop("sharpness")
        env.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'sharpnes'"):
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

    def test_box_tilt_rejected_before_any_output(self, tmp_path):
        """A tilt is defined on segment marginals only; on a box world it used
        to fail in sample_obs after pool.jsonl had been written."""
        env = write_box_env(tmp_path / "env.json", obs_shift={
            "kind": "tilt", "direction": [1.0, 0.0], "strength": 1.0})
        with pytest.raises(EnvSpecError, match="segment marginals"):
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

    @pytest.mark.parametrize("key, value, error", [
        ("budget", 30.5, TypeError),
        ("max_batch", 2.5, TypeError),
        ("estimator_lambda", -1.0, ValueError),
        ("estimator_lambda", float("nan"), ValueError),
        ("estimator_lambda", float("inf"), ValueError),
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


class TestProtocolConfigFromJson:
    def test_unset_keys_keep_the_dataclass_defaults(self):
        assert protocol_config_from_json({"budget": 7}) == ProtocolConfig(budget=7)

    def test_estimator_lambda_is_the_ensemble_default(self, generated, tmp_path,
                                                      monkeypatch):
        """Every bootstrap member of an active run is fitted with the
        protocol's estimator_lambda, as the final fit is."""
        env, data = generated
        lams, fit = [], acquisition.fit_ridge_arrays
        monkeypatch.setattr(acquisition, "fit_ridge_arrays",
                            lambda phis, yts, lam: lams.append(lam) or fit(phis, yts, lam))
        proto = tmp_path / "protocol.json"
        proto.write_text(json.dumps({"budget": 30, "max_batch": 10,
                                     "estimator_lambda": 3.0}))
        assert main(["run", "--env", str(env), "--protocol", str(proto),
                     "--data", str(data), "--out", str(tmp_path / "run")]) == 0
        assert len(lams) == 2 * acquisition.MEMBERS and set(lams) == {3.0}
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
        """Past the parse's map of the four box corners, the PEHE sample and
        the AUUC holdout are mapped once each and scored in phi."""
        env = write_box_env(tmp_path / "env.json")
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps({"theta_hat": [0.05, -0.02], "lambda": 1.0,
                                        "n": 0, "V": [1.0, 0.0, 0.0, 1.0]}))
        assert main(["evaluate", "--env", str(env), "--solution", str(solution),
                     "--out", str(tmp_path / "eval"), "--n-eval", "50"]) == 0
        assert mapped_rows == [4, 50, 50]

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


class TestSweep:
    def write_sweep(self, tmp_path, env):
        sweep = tmp_path / "sweep.json"
        with open(sweep, "w") as fh:
            json.dump({"env": str(env), "budgets": [40, 80],
                       "strategies": ["random", "active-full"],
                       "replications": 3, "n_pool": 200, "n_obs": 100,
                       "protocol": {"max_batch": 20}}, fh)
        return sweep

    def test_grid_cardinality_and_manifest(self, tmp_path):
        env = write_env(tmp_path / "env.json")
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

    @pytest.mark.parametrize("typo", [{"replication": 2},
                                      {"protocol": {"max_bach": 20}}])
    def test_unknown_keys_rejected(self, tmp_path, typo):
        env = write_env(tmp_path / "env.json")
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"env": str(env), "budgets": [40],
                                     "strategies": ["random"], **typo}))
        with pytest.raises(ValueError, match="unknown key"):
            main(["sweep", "--sweep", str(sweep), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("change, argv, with_policy, message", [
        ({"budgets": [20.0, 40.0, 60.0, 80.0]}, [], True, "positive integers"),
        ({"budgets": [20.5, 40]}, [], True, "positive integers"),
        ({"replications": 0}, [], True, "replications must be >= 1"),
        ({}, ["--reps", "0"], True, "replications must be >= 1"),
        ({"n_pool": 0}, [], True, "n_pool must be >= 1"),
        ({"strategies": ["random", "active-ful"]}, [], True, "'active-ful'"),
        ({"n_obs": 0}, [], True, "need an obs policy"),
        ({}, [], False, "need an obs policy"),
        ({"protocol": {"budget": 5}}, [], True, "'budget'"),
        ({"protocol": {"strategy": "random"}}, [], True, "'strategy'"),
        ({"protocol": {"weights": {"alpha": 1.0}}}, [], True, "'weights'"),
    ], ids=["float-budgets", "fractional-budget", "zero-replications", "zero-reps",
            "zero-pool", "unknown-strategy", "no-log-rows", "no-log-policy",
            "protocol-budget", "protocol-strategy", "protocol-weights"])
    def test_bad_inputs_fail_before_any_cell_runs(self, tmp_path, monkeypatch, change,
                                                   argv, with_policy, message):
        cells = []
        monkeypatch.setattr(budgex.cli, "_sweep_cell", cells.append)
        env = write_env(tmp_path / "env.json", with_policy=with_policy)
        sweep = self.write_sweep(tmp_path, env)
        sweep.write_text(json.dumps({**json.loads(sweep.read_text()), **change}))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            main(["sweep", "--sweep", str(sweep), "--out", str(out)] + argv)
        assert cells == [] and not out.exists()

    @pytest.mark.parametrize("empty", ["budgets", "strategies"])
    def test_empty_grid_is_an_error_exit(self, tmp_path, monkeypatch, capsys, empty):
        cells = []
        monkeypatch.setattr(budgex.cli, "_sweep_cell", cells.append)
        sweep = self.write_sweep(tmp_path, write_env(tmp_path / "env.json"))
        sweep.write_text(json.dumps({**json.loads(sweep.read_text()), empty: []}))
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(sweep), "--out", str(out)]) == 2
        assert "error: sweep needs nonempty budgets and strategies" in capsys.readouterr().err
        assert cells == [] and not out.exists()

    def test_random_cell_maps_each_sample_once(self, mapped_rows):
        """A random hard cell maps its pool once, the four segments once for
        the exact PEHE and its 4,000-unit AUUC holdout once."""
        env = HardInstance(d=4, delta=0.2, theta_signs=(1, -1, 1, -1))
        base = ProtocolConfig(budget=0, max_batch=10)
        mapped_rows.clear()  # the env's own check of its support
        budgex.cli._sweep_cell((env, None, MarginalShift(), base, 30, "random", 0, 7,
                                60, 0))
        assert mapped_rows == [60, 4, 4000]

    def test_parallel_matches_serial_bytes(self, tmp_path, monkeypatch):
        env = write_env(tmp_path / "env.json")
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


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing scipy.stats costs more
    than the rest of a budgex call's import, and no command needs it."""
    src = os.path.dirname(os.path.dirname(budgex.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import budgex, budgex.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
