"""Byte-identity of the CLI's deterministic outputs on a seconds-long run set.

Each digest below is the sha256 of one output file at fixed seeds: generate
on a 5-d box world and on the hard instance; run on the box world as
active, random, active fusion and random fusion, with an evaluate of the
active run; and one serial sweep of the hard instance. The sweep's
manifest is left out: it hashes sweep.json, which names the env file by
its temporary path. A refactor must leave every digest as it is. A change
meant to alter outputs updates the digests it alters and says so, with the
reason, in CHANGES.md.
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
    "box/manifest.json": "a13065acf75b2b845547d1cffbc929780f0803b78e21108ba13f03153815a378",
    "box/obs.jsonl": "08275489fab22a4ed675ad6de77a85f5195bcefe89f5baf9496571b0eb4d755d",
    "box/pool.jsonl": "48da91d4d8d7162768987abb6211b977a9a87587c943470d7bdb3397969ebb20",
    "evaluate/metrics.csv": "452ace2678a366fe7438625e3fcd7e8f244ca421c3d8e02d3eeddb01df958220",
    "evaluate/summary.json": "ed24142ea951fda4930d394e424522c54a31aabe10843ed372e2ced88cba1e1f",
    "hard/manifest.json": "85bf15d9527832a372a7c1583e8c7448b0690add2de396344228d89ced1290a8",
    "hard/obs.jsonl": "aa117d5b3665314034ebcb2a232c7eeb4b370670a6b9298f2affc31baa03378b",
    "hard/pool.jsonl": "275912da401942bf33a0a426f16a82a0ea15a83cd555d8a8c312424634ab61b1",
    "run-active-fusion/manifest.json": "96ffbc72ff0655d05b9cad931c35ff58663cd6b4df321d4db32abd79608e51f0",
    "run-active-fusion/rep_0000/rct.jsonl": "5e013977e0c397676e89de1a93cf86f66eab48df9c5d3a797d3d18f13ee0fa14",
    "run-active-fusion/rep_0000/run_summary.json": "51afbb826aa56ed248e96a7fde6c69f35d87265321d0566e709ecb348fcf004f",
    "run-active-fusion/rep_0000/scores_round_1.csv": "406df359c7f191afeebcf088ceb61b10eae520c3f2d5160daccea3a65c47171a",
    "run-active-fusion/rep_0000/scores_round_2.csv": "5b8fef366c8127187010c74e48c3c189fdf401a986790d6575841499e760fa7c",
    "run-active-fusion/rep_0000/scores_round_3.csv": "b848db0748686c83d50d2d82534db1261bf8f4866f2d8db599baedcd7948079e",
    "run-active-fusion/rep_0000/solution.json": "41c9b20d11fe69b1eeb48a8c60c5db6a1594bb6f89ceae5227236aec567722fb",
    "run-active/manifest.json": "cb7a670736d631b8c058c8ca675ae0d9472fa9d54af976ab07ca2e17841b9720",
    "run-active/rep_0000/rct.jsonl": "5e013977e0c397676e89de1a93cf86f66eab48df9c5d3a797d3d18f13ee0fa14",
    "run-active/rep_0000/run_summary.json": "51afbb826aa56ed248e96a7fde6c69f35d87265321d0566e709ecb348fcf004f",
    "run-active/rep_0000/scores_round_1.csv": "406df359c7f191afeebcf088ceb61b10eae520c3f2d5160daccea3a65c47171a",
    "run-active/rep_0000/scores_round_2.csv": "5b8fef366c8127187010c74e48c3c189fdf401a986790d6575841499e760fa7c",
    "run-active/rep_0000/scores_round_3.csv": "b848db0748686c83d50d2d82534db1261bf8f4866f2d8db599baedcd7948079e",
    "run-active/rep_0000/solution.json": "cd99c7bb77bda8f2590b425633c8aaf9dc5aeec679ff31bc128bb653f97b2fec",
    "run-random-fusion/manifest.json": "662eb0252b0a68b8f8c02006d5caf35e614c233ab0e2f32a2218dc77d3b70bc7",
    "run-random-fusion/rep_0000/rct.jsonl": "cad188a661f01d2f52e8fc237555b9a7b56370abf7178a4aa3d70b8921aaa0f1",
    "run-random-fusion/rep_0000/run_summary.json": "51afbb826aa56ed248e96a7fde6c69f35d87265321d0566e709ecb348fcf004f",
    "run-random-fusion/rep_0000/solution.json": "67d355b966d63ffb6bbbd73b69d8449473ac6995e0014143a7d7b7b17b5ce57d",
    "run-random/manifest.json": "a63a73f74cdaf86ddf5dd8a5ab141021e4cd2df1019785f8ac9cdb33ff3d8fea",
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
