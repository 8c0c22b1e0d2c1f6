"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import budgex  # noqa: E402
import budgex.cli  # noqa: E402
from perfbench.run import END_TO_END, per_layer_units, run_benchmark  # noqa: E402
from perfbench.tracer import SPANS, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    return {(name, trace): run_benchmark(name, seed=5, seconds=0, trace=trace,
                                         size="tiny", out_root=out)
            for name in WORKLOADS for trace in (0, 1)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_have_units(records, name):
    record = records[name, 0]
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert {k: m["unit"] for k, m in record["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in record["metrics"].values())
    reported = record["reported"]
    assert reported["error_rate"]["value"] == 0.0
    for metric, unit in WORKLOADS[name].quality.items():
        assert reported[metric]["unit"] == unit
    assert ("wall_2w_s" in reported) == (name == "sweep-hard")
    env = record["environment"]
    assert env["seed"] == 5 and env["workload"] == name
    assert {"python", "numpy", "scipy", "nproc", "budgex_threads", "git_commit"} <= set(env)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_metrics_have_units(records, name):
    record = records[name, 1]
    assert record["correct"] and record["missing_spans"] == []
    assert {k: m["unit"] for k, m in record["metrics"].items()} == per_layer_units()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_fit_inside_the_traced_wall(records, name):
    traced = [p for p in records[name, 1]["passes"] if p["traced"]]
    assert traced
    for p in traced:
        assert 0 < p["self_s_total"] <= p["walls"]["wall_s"]


def test_layer_predictions_hold_on_presence(records):
    calls = {name: records[name, 1]["metrics"] for name in WORKLOADS}
    for name in ("run-box", "sweep-hard"):
        assert calls[name]["acquisition.composite_scores.calls"]["value"] > 0
    assert calls["audit-random"]["acquisition.composite_scores.calls"]["value"] == 0
    assert calls["audit-random"]["acquisition.composite_scores.share"]["value"] == 0
    assert calls["run-box"]["protocol._dump_scores.bytes"]["value"] > 0
    assert calls["sweep-hard"]["cli._sweep_cell.calls"]["value"] == WORKLOADS["sweep-hard"]("tiny").cells


def test_entry_points_called_by_the_benchmark_are_traced(records):
    """The benchmark's own calls into budgex go through the wrappers too."""
    expected = {
        "run-box": {"cli.main": 2, "cli.cmd_run": 1, "cli.cmd_evaluate": 1},
        "sweep-hard": {"cli.main": 1, "cli.cmd_sweep": 1},  # the serial sweep only
        "audit-random": {"metrics.bound_violation_audit": 1, "metrics.clt_diagnostic": 1},
    }
    for name, spans in expected.items():
        got = {span: records[name, 1]["metrics"][f"{span}.calls"]["value"] for span in spans}
        assert got == spans


def test_tracer_wraps_every_lookup_site_and_restores_originals():
    import budgex.acquisition as acquisition
    import budgex.envs as envs
    import budgex.metrics as metrics
    import budgex.protocol as protocol

    sites = [(protocol, "score_pool"), (acquisition, "score_pool"),
             (acquisition, "fit_ridge_arrays"), (budgex.cli, "run_protocol"),
             (metrics, "run_protocol"), (protocol, "run_protocol"),
             (budgex, "composite_scores"), (budgex.core.FeatureMap, "apply_many")]
    before = [getattr(obj, key) for obj, key in sites]
    method = vars(envs._BernoulliEnv)["draw_outcomes"]
    with Tracer() as tracer:
        assert tracer.missing == []
        for (obj, key), original in zip(sites, before):
            assert getattr(obj, key) is not original
            assert getattr(obj, key).__wrapped__ is original
        assert vars(envs._BernoulliEnv)["draw_outcomes"] is not method
    assert [getattr(obj, key) for obj, key in sites] == before
    assert vars(envs._BernoulliEnv)["draw_outcomes"] is method


def test_tracer_counts_calls_through_aliases_and_nested_self_time():
    env, _, _ = budgex.env_from_json(
        {"env": {"kind": "hard", "d": 2, "delta": 0.2, "theta_signs": [1, -1]}})
    pool = budgex.sample_pool(env, 40, seed=1)
    config = budgex.ProtocolConfig(budget=10, max_batch=5, strategy="random")
    with Tracer() as tracer:
        budgex.metrics.run_protocol(config, env, pool_units=pool)
    stats = tracer.stats
    assert stats["protocol.run_protocol"].calls == 1
    assert stats["protocol.run_round"].calls == 2
    assert stats["envs.draw_outcomes"].calls == 2
    assert stats["rng.unit_uniform"].rows == 20
    top = stats["protocol.run_protocol"]
    assert sum(s.self_s for s in stats.values()) == pytest.approx(top.durations[0])


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert len(SPANS) == len({s.name for s in SPANS})
