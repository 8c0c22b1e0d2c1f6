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
    "evaluate/metrics.csv": "4d4585bf9742369a1a502db43457d463766a963ee7d0aff1f47cbf62b3e291d4",
    "evaluate/summary.json": "ccd513389aa1b74858bac39fc85f089f767b886d555ab63b865dcb276ab30c86",
    "hard/manifest.json": "85bf15d9527832a372a7c1583e8c7448b0690add2de396344228d89ced1290a8",
    "hard/obs.jsonl": "aa117d5b3665314034ebcb2a232c7eeb4b370670a6b9298f2affc31baa03378b",
    "hard/pool.jsonl": "275912da401942bf33a0a426f16a82a0ea15a83cd555d8a8c312424634ab61b1",
    "run-active/manifest.json": "5bb191af3da6992ac409f9dd77598d45d6be2a64802eaa22e41fe6e92d89249a",
    "run-active/rep_0000/rct.jsonl": "971f667f9e48be8a59edf81f63f99605adef8ade5d2983cccc588ac1e17de390",
    "run-active/rep_0000/run_summary.json": "51afbb826aa56ed248e96a7fde6c69f35d87265321d0566e709ecb348fcf004f",
    "run-active/rep_0000/scores_round_1.csv": "320b28ea4275f1c75a940a655866d18c95931296c0002e2b8f0cfe8ed38619e4",
    "run-active/rep_0000/scores_round_2.csv": "31d3b67fa9611059a04377027e31118f2042c188c9e9fc899671dd94a282acf8",
    "run-active/rep_0000/scores_round_3.csv": "3fa23239c397c8cbc71ad06c3b2df38dc8f3aa4f7173ef3de6a3de97fb8706a3",
    "run-active/rep_0000/solution.json": "b3518270c2232402934425ef807978517bb9b1583216364ac6cce4f0cc35aff4",
    "run-random/manifest.json": "955bf014655585dcce26f6587b3a033a7d44777757ec0d3e545160b7de95c503",
    "run-random/rep_0000/rct.jsonl": "df87ef82aab583923a5571f303a790ce22cdedfdb1a8507d129647afd934964d",
    "run-random/rep_0000/run_summary.json": "51afbb826aa56ed248e96a7fde6c69f35d87265321d0566e709ecb348fcf004f",
    "run-random/rep_0000/solution.json": "ed3c8d1112eb86432961f47cf45d9d95038f26d82398fcee68b9b8f16c844371",
    "sweep/metrics.csv": "e7eb5457db240d90296889b59ceadbc45cf7e4e3a383d447c98e0482521ecf45",
    "sweep/summary.json": "bc9fe5b7305f2e327ab317e42a9395a10058995883890affd4c779dedbe41cd1",
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
