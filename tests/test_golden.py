"""Golden output digests: every output file of five fixed runs, byte for byte.

Output identity is the gate for performance and simplification work, so
it is checked here on every run. A change that alters an output on
purpose records the new digests below, which a failing run prints, and
says why in CHANGES.md.
"""

import contextlib
import dataclasses
import hashlib
import io
import random
from pathlib import Path

import pytest

from helpers import loop_config, save_world, striped_world, terrain_policy, up_left_world, wide_world
from metamine.cli import EXIT_OK, main
from metamine.jsonio import write_json
from metamine.knowledge import AttributeDef, define_schema, save_schema
from metamine.rover import run_episodes, save_traces, world_schema

LOOP_DIGESTS = {
    "override": {
        "cycles.csv": "dc7adbe3ee5bc5c18063704407ea2a904daf73ae73c7de218aa7b8d8f20afde6",
        "experiment.json": "cfe4e81dde0727234489da0b4e7750f43cc1df5ca755b9f99fe6c92a20afa4cc",
        "final.policy.json": "d14898a66a068b7e5912034485a8e4411e31f81651b60551268ebe5562dac623",
        "schema.json": "765596400aae1e63f0979730fd3ac8552b58c70f0fe6d25a709ddec928afb2db",
        "traces/cycle_01.csv": "90ed8b13ed2789ce3a9b3599945030db79908112dbd25b74288ac312932e75d9",
        "traces/cycle_02.csv": "72e58cddecb05b6fd3328a5b5baa4afba96353a0f26ba7f0804f4dec920135a3",
        "traces/cycle_03.csv": "afe98d90367d4d5920d39bbc8fccdad883fe273c0aa71eef2a8db37da3edacfd",
    },
    "append": {
        "cycles.csv": "dc7adbe3ee5bc5c18063704407ea2a904daf73ae73c7de218aa7b8d8f20afde6",
        "experiment.json": "b189cbcfc8b479498d27e9a131aef79ed1112bd3653174734f599fd0e22ba2a2",
        "final.policy.json": "b80701457efd6665734cffb5da624fac5c7d5369cc4a3e90b7887e7ca64f8539",
        "schema.json": "765596400aae1e63f0979730fd3ac8552b58c70f0fe6d25a709ddec928afb2db",
        "traces/cycle_01.csv": "90ed8b13ed2789ce3a9b3599945030db79908112dbd25b74288ac312932e75d9",
        "traces/cycle_02.csv": "72e58cddecb05b6fd3328a5b5baa4afba96353a0f26ba7f0804f4dec920135a3",
        "traces/cycle_03.csv": "afe98d90367d4d5920d39bbc8fccdad883fe273c0aa71eef2a8db37da3edacfd",
    },
}

CHAIN_DIGESTS = {
    "decision.csv": "ecb96657933c9b32dd1972301b382cdb89e93d6bc2b43641b6184e7c92b27472",
    "decision.csv.meta.json": "297f93073e8691b667f7336084e887bb552958b124da3c325ca46b26901c76d8",
    "decision.rules.json": "a879651da52556f549868293f32a1899c86a13e97e0bd7fe46c82fa920e40e3c",
    "decision.tree.json": "961e7b92a0d8b7bd8e78ee88e2678c3b9666321780589159e89c752fe20655a1",
    "perf.csv": "8a397901165dca7bb7b9bad27c79540663f81dbc9a1e891a61ab4486ab7137e4",
    "perf.csv.meta.json": "fd1c794202f453b7321269e331507058d57fdbbd97034244e93b65b54e3497fd",
    "perf.tree.json": "f93140944257825db820907207a790d296b861dd7d7a7341ca46cd353d78c9f5",
    "rules.policy.json": "27bd893f22901d8e946a3ea91af87e12cdb63c801a86c77e3c4e8f6d30a6e180",
    "traces.csv": "e21df8451abe5faf3799484dbd4ae0c33048c249f5d87fe670cf7678f40b4024",
    "tree.policy.json": "619971fc3a1adf34c2615197e830930a6b9c9d32246ad5c96dba1878bcb660b6",
}


SIMULATE_DIGESTS = {
    "wide": "19f4cf46071abcb0cabc8db1fd4ecdff98fdf3620232c70968b45f0d740dc699",
    "up-left": "3e0cf07acc867893a9c169a5ceb58bab746f21f71f05726d5687d4940ddcb49b",
}

NUMERIC_COLLECT_DIGESTS = {
    "decision.csv": "0eb79a976c417c6f9f4160cca16dc14dc8b97261fa5722236849a0914160fbbf",
    "decision.csv.meta.json": "b5e4c812ed095b34eb4688ea2bd93dc12dac5aa6798e12c3e266498c52eee1a9",
    "perf.csv": "43f1c039014c7e73b20966736f21a56808d1bc63fb1e4c0cac1355f6ad754f33",
    "perf.csv.meta.json": "0de3965a359a2fd6f43dd26e4bcb9ab3dabcdef83a2cdfbb3b2b2aa5d324e2db",
    "schema.json": "cd008d43628ba9c4cf50d8cd721550cc53a0b6885cc4f2e28a311f7234766d84",
    "traces.csv": "c1e23394d132b7e67866f2fb3d02ae541938d610ef343b0b510d0b46de9c03a4",
}


def simulate_worlds() -> dict:
    """A 32x32 striped world with room for 128 steps, and a non-square world
    whose goal lies up and to the left of its start (negative moves)."""
    return {"wide": wide_world(), "up-left": up_left_world()}


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == EXIT_OK


def digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check(out: Path, expected: dict) -> None:
    found = digests(out)
    changed = sorted(name for name in found.keys() | expected.keys() if found.get(name) != expected.get(name))
    assert not changed, f"output bytes changed: {changed}; digests now {found}"


@pytest.mark.parametrize("mode", sorted(LOOP_DIGESTS))
def test_three_cycle_loop_outputs(tmp_path, mode):
    save_world(striped_world(), tmp_path / "world.json")
    config = dict(dataclasses.asdict(loop_config(1, integration_mode=mode)), world="world.json", cycles=3)
    write_json(tmp_path / "config.json", config)
    run("cycle", "--config", tmp_path / "config.json", "--out", tmp_path / "out")
    check(tmp_path / "out", LOOP_DIGESTS[mode])


def test_file_stage_chain_outputs(tmp_path):
    world, out = tmp_path / "world.json", tmp_path / "out"
    save_world(striped_world(), world)
    out.mkdir()
    run("simulate", "--world", world, "--episodes", "200", "--seed", "11", "--explore", "0.8",
        "--out", out / "traces.csv")
    for rule, name in (("outcome-as-class", "perf"), ("strategy-as-class", "decision")):
        run("collect", "--traces", out / "traces.csv", "--world", world, "--label-rule", rule,
            "--out", out / f"{name}.csv")
        run("mine", "--data", out / f"{name}.csv", "--algo", "tree", "--seed", "3", "--out", out / f"{name}.tree.json")
    write_json(tmp_path / "mining.json", {"min_support": 0.05})
    run("mine", "--data", out / "decision.csv", "--algo", "apriori", "--config", tmp_path / "mining.json",
        "--out", out / "decision.rules.json")
    for model in ("tree", "rules"):
        run("compile", "--model", out / f"decision.{model}.json", "--default", "FAST",
            "--out", out / f"{model}.policy.json")
    check(out, CHAIN_DIGESTS)


@pytest.mark.parametrize("name", sorted(SIMULATE_DIGESTS))
def test_simulate_outputs(tmp_path, name):
    world, out = tmp_path / "world.json", tmp_path / "out"
    save_world(simulate_worlds()[name], world)
    out.mkdir()
    run("simulate", "--world", world, "--episodes", "200", "--seed", "5", "--explore", "0.3",
        "--out", out / "traces.csv")
    check(out, {"traces.csv": SIMULATE_DIGESTS[name]})


def numeric_trace_file(out: Path) -> Path:
    """A schema with a numeric world attribute, slope, beside terrain, and
    a seeded trace CSV whose records carry a slope reading each."""
    world = striped_world()
    base = world_schema(world)
    slope = AttributeDef("slope", "numeric", "world", (-8.0, 8.0))
    schema = define_schema((base.attributes[0], slope) + base.attributes[1:], base.class_attribute)
    rng = random.Random(29)
    policy = terrain_policy({"sand": "CAREFUL", "rock": "FAST"}, "FAST")
    traces = [dataclasses.replace(trace, records=tuple(
                  dataclasses.replace(rec, observed={**rec.observed, "slope": round(rng.uniform(-6.0, 6.0), 3)})
                  for rec in trace.records))
              for trace in run_episodes(world, policy, 60, master_seed=8, explore=0.5)]
    save_schema(schema, out / "schema.json")
    save_traces(traces, schema, out / "traces.csv")
    return out / "traces.csv"


def test_numeric_collect_outputs(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    traces = numeric_trace_file(out)
    for rule, name in (("outcome-as-class", "perf"), ("strategy-as-class", "decision")):
        run("collect", "--traces", traces, "--schema", out / "schema.json", "--label-rule", rule,
            "--bins", "3", "--out", out / f"{name}.csv")
    check(out, NUMERIC_COLLECT_DIGESTS)
