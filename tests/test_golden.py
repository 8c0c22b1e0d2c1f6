"""Byte-identity of the CLI's deterministic outputs on a seconds-long run set.

Each digest below is the sha256 of one output file at fixed seeds: generate
on a 5-d box world and on the hard instance; run on the box world as
active, random, active fusion and random fusion, with an evaluate of the
active run; and one serial sweep of the hard instance. A refactor must
leave every digest as it is. A change meant to alter outputs updates the
digests it alters and says so, with the reason, in CHANGES.md.
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

# Runs on the box world: output directory -> (strategy, mode).
RUNS = {
    "run-active": ("active", "theory"),
    "run-random": ("random", "theory"),
    "run-active-fusion": ("active", "fusion"),
    "run-random-fusion": ("random", "fusion"),
}

GOLDEN = {
    "box/obs.jsonl": "08275489fab22a4ed675ad6de77a85f5195bcefe89f5baf9496571b0eb4d755d",
    "box/pool.jsonl": "48da91d4d8d7162768987abb6211b977a9a87587c943470d7bdb3397969ebb20",
    "evaluate/metrics.csv": "a0319fc1f027e5a974ed0f9b894ebc378f6b61b0ac18c9d9cbe088bfacedc0af",
    "evaluate/summary.json": "63b550be1b240074eac4133986ff378afa610e3cb07bf1e309c5a854d79f93ed",
    "hard/obs.jsonl": "aa117d5b3665314034ebcb2a232c7eeb4b370670a6b9298f2affc31baa03378b",
    "hard/pool.jsonl": "275912da401942bf33a0a426f16a82a0ea15a83cd555d8a8c312424634ab61b1",
    "run-active-fusion/rep_0000/rct.jsonl": "857891b202cbc0614e26571877a981380e9aeb24b06bad2844650fc8ed71be8e",
    "run-active-fusion/rep_0000/scores_round_1.csv": "7c11738679f453d9c7fa5b616ef86d256616ec9bd29c1d923730aec431c4fb34",
    "run-active-fusion/rep_0000/scores_round_2.csv": "34705478288a4ec41817899351c7071881809ea0f5a1b7fb88486b4c0280ae67",
    "run-active-fusion/rep_0000/scores_round_3.csv": "095772ed083941f7bdab413b6dda4173c5ac478a1ac6142b34b2f3772b387d30",
    "run-active-fusion/rep_0000/solution.json": "2442452f8f5d5a5cc7da4e4cd6aa4bc854c9d5d9b23093cf9e5af8fd3bef60b2",
    "run-active/rep_0000/rct.jsonl": "857891b202cbc0614e26571877a981380e9aeb24b06bad2844650fc8ed71be8e",
    "run-active/rep_0000/scores_round_1.csv": "7c11738679f453d9c7fa5b616ef86d256616ec9bd29c1d923730aec431c4fb34",
    "run-active/rep_0000/scores_round_2.csv": "34705478288a4ec41817899351c7071881809ea0f5a1b7fb88486b4c0280ae67",
    "run-active/rep_0000/scores_round_3.csv": "095772ed083941f7bdab413b6dda4173c5ac478a1ac6142b34b2f3772b387d30",
    "run-active/rep_0000/solution.json": "8926f997a11c0f0b9d13c4cb7ab4dd0ec6a3f2a6947af0fc07aeb376c0c87dd2",
    "run-random-fusion/rep_0000/rct.jsonl": "cad188a661f01d2f52e8fc237555b9a7b56370abf7178a4aa3d70b8921aaa0f1",
    "run-random-fusion/rep_0000/solution.json": "67d355b966d63ffb6bbbd73b69d8449473ac6995e0014143a7d7b7b17b5ce57d",
    "run-random/rep_0000/rct.jsonl": "cad188a661f01d2f52e8fc237555b9a7b56370abf7178a4aa3d70b8921aaa0f1",
    "run-random/rep_0000/solution.json": "2df67f0be845771f129df78cce3fda47fcfb3f6b3b4e9701a09fbde72decdd51",
    "sweep/metrics.csv": "e3bfdd0c6270fbefff821c7bd886188fe1d41c4bd4860a145498fd40f36b6b1d",
    "sweep/summary.json": "b8e718db46035e66ac20777cfac0d4943b2dc45c43a5f570cf27ab4bbd1066f6",
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
    for name, (strategy, mode) in RUNS.items():
        protocol = _write_json(root / f"{name}.json", {
            "budget": 60, "max_batch": 20, "strategy": strategy, "mode": mode})
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
                "*/metrics.csv", "*/summary.json"]
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
