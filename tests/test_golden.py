"""Byte-identity of the CLI's deterministic outputs on a seconds-long run set.

Each digest below is the sha256 of one output file at fixed seeds: generate
on a 5-d box world and on the hard instance; run on the box world as
active and random, with an evaluate of the active run; and one serial
sweep of the hard instance. The sweep's manifest is left out: it hashes
sweep.json, which names the env file by its temporary path. A refactor
must leave every digest as it is. A change meant to alter outputs updates
the digests it alters and says so, with the reason, in CHANGES.md.
"""

import hashlib
import json
import math

import pytest

from budgex.cli import main

SEED = "3"

BOX_WORLD = {
    "seed": 3, "n_pool": 400, "n_obs": 200,
    "env": {
        "kind": "linear",
        "theta_star": [0.08, -0.06, 0.05, -0.04, 0.03],
        "S": 0.2,
        "baseline_intercept": 0.5,
        "baseline_weights": [0.0] * 5,
        "feature_map": {"kind": "identity", "output_dim": 5,
                        "norm_bound": math.sqrt(5), "weight": None, "offset": None},
        "marginal": {"kind": "box", "lows": [-1.0] * 5, "highs": [1.0] * 5},
    },
    "obs_policy": {"kind": "threshold", "direction": [1.0, 0.0, 0.0, 0.0, 0.0],
                   "cutoff": 0.0, "leak": 0.02},
}

HARD_WORLD = {
    "seed": 3, "n_pool": 200, "n_obs": 200,
    "env": {"kind": "hard", "d": 8, "delta": 0.2,
            "theta_signs": [1, -1, 1, -1, 1, -1, 1, -1]},
    "obs_policy": {"kind": "threshold", "direction": [0, 0, 0, 0, 1, 1, 1, 1],
                   "cutoff": 0.5, "leak": 0.0},
}

# Runs on the box world: output directory -> strategy.
RUNS = {
    "run-active": "active",
    "run-random": "random",
}

GOLDEN = {
    "box/manifest.json": "a13065acf75b2b845547d1cffbc929780f0803b78e21108ba13f03153815a378",
    "box/obs.jsonl": "08275489fab22a4ed675ad6de77a85f5195bcefe89f5baf9496571b0eb4d755d",
    "box/pool.jsonl": "48da91d4d8d7162768987abb6211b977a9a87587c943470d7bdb3397969ebb20",
    "evaluate/metrics.csv": "6eee2ba366225aec661e4043c0984e8bbaaef9bb553866ded193a53df4144249",
    "evaluate/summary.json": "86e337e6514a0f3e0d7ae264f7d3ed426f15a5da6be9ddef9cf0d36bdf14f62d",
    "hard/manifest.json": "85bf15d9527832a372a7c1583e8c7448b0690add2de396344228d89ced1290a8",
    "hard/obs.jsonl": "aa117d5b3665314034ebcb2a232c7eeb4b370670a6b9298f2affc31baa03378b",
    "hard/pool.jsonl": "275912da401942bf33a0a426f16a82a0ea15a83cd555d8a8c312424634ab61b1",
    "run-active/manifest.json": "5bb191af3da6992ac409f9dd77598d45d6be2a64802eaa22e41fe6e92d89249a",
    "run-active/rep_0000/rct.jsonl": "979ba2d1956eb3d1d39f87dd211708820c9b8eef5bb26524bc1414ff8bf51448",
    "run-active/rep_0000/run_summary.json": "51afbb826aa56ed248e96a7fde6c69f35d87265321d0566e709ecb348fcf004f",
    "run-active/rep_0000/scores_round_1.csv": "406df359c7f191afeebcf088ceb61b10eae520c3f2d5160daccea3a65c47171a",
    "run-active/rep_0000/scores_round_2.csv": "bdbbe1bac7241a8ed78c81ede88f4dbfc67c4031b42044ab811eba927a029054",
    "run-active/rep_0000/scores_round_3.csv": "239114d40b2e9db57611e3190f5c83a70c112c4f9e36c7138d623d3297ba3b8a",
    "run-active/rep_0000/solution.json": "4508ce18d0fffcbb3297ce22487e3342cc4ea0d26cbbe752830ccdd248f0a501",
    "run-random/manifest.json": "955bf014655585dcce26f6587b3a033a7d44777757ec0d3e545160b7de95c503",
    "run-random/rep_0000/rct.jsonl": "cad188a661f01d2f52e8fc237555b9a7b56370abf7178a4aa3d70b8921aaa0f1",
    "run-random/rep_0000/run_summary.json": "51afbb826aa56ed248e96a7fde6c69f35d87265321d0566e709ecb348fcf004f",
    "run-random/rep_0000/solution.json": "2df67f0be845771f129df78cce3fda47fcfb3f6b3b4e9701a09fbde72decdd51",
    "sweep/metrics.csv": "7c7f266ef5a27e24c666941a97a2cb7ad9405110a6d7784db145b56754960296",
    "sweep/summary.json": "5d0f834fbf071042298f0322ed31fefabf8860d4ce45c3798ffe10ba54adf7c6",
}


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def build_outputs(root):
    """Run the whole set under root; return {relative path: sha256} of its outputs."""
    box_env = _write_json(root / "box.json", BOX_WORLD)
    hard_env = _write_json(root / "hard.json", HARD_WORLD)
    assert main(["generate", "--env", box_env, "--out", str(root / "box")]) == 0
    assert main(["generate", "--env", hard_env, "--out", str(root / "hard")]) == 0
    for name, strategy in RUNS.items():
        protocol = _write_json(root / f"{name}.json", {
            "budget": 60, "max_batch": 20, "strategy": strategy})
        assert main(["run", "--env", box_env, "--protocol", protocol,
                     "--data", str(root / "box"), "--out", str(root / name),
                     "--seed", SEED]) == 0
    assert main(["evaluate", "--env", box_env,
                 "--solution", str(root / "run-active" / "rep_0000" / "solution.json"),
                 "--out", str(root / "evaluate"), "--seed", SEED,
                 "--n-eval", "500"]) == 0
    sweep = _write_json(root / "sweep.json", {
        "env": hard_env, "budgets": [16, 24, 32, 40],
        "strategies": ["random", "active-full"], "replications": 1,
        "n_obs": 200, "protocol": {"max_batch": 8}})
    assert main(["sweep", "--sweep", sweep, "--out", str(root / "sweep"),
                 "--seed", SEED]) == 0

    patterns = ["*/pool.jsonl", "*/obs.jsonl", "*/rep_*/rct.jsonl",
                "*/rep_*/solution.json", "*/rep_*/scores_round_*.csv",
                "*/metrics.csv", "*/summary.json", "*/rep_*/run_summary.json",
                "box/manifest.json", "hard/manifest.json", "run-*/manifest.json"]
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for pattern in patterns for path in root.glob(pattern)}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return build_outputs(tmp_path_factory.mktemp("golden"))


def test_the_run_set_writes_exactly_the_golden_files(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_is_byte_identical(digests, name):
    assert digests.get(name) == GOLDEN[name]
