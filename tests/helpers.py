"""Shared builders for the test suite."""

from __future__ import annotations

import dataclasses
from collections import Counter
from operator import attrgetter

from metamine.cycle import AcceptanceGates, CycleConfig
from metamine.introspection import Dataset
from metamine.jsonio import write_json
from metamine.knowledge import AttributeDef
from metamine.mining import MiningConfig
from metamine.policy import Policy, Rule, RuleSet, policy_from_rules
from metamine.rover import DecisionRecord, GridWorld, Rewards


def cat(name, domain, scope="world"):
    return AttributeDef(name, "categorical", scope, tuple(domain))


def count_rows(rows):
    """Instance rows as a Dataset's counts: each distinct row with how
    often it occurs, in first-occurrence order."""
    return tuple(Counter(rows).items())


# every field of a record, in declaration order
record_fields = attrgetter(*(f.name for f in dataclasses.fields(DecisionRecord)))


def fresh_copy(rec):
    """Another record object of equal value, with its own observed dict."""
    return DecisionRecord(rec.cell, dict(rec.observed), rec.strategy, rec.outcome, rec.reward)


def trace_values(traces):
    """Traces as plain values, to compare them by what they hold: records
    compare by identity, so each trace becomes its records' fields (cell,
    observed, strategy, outcome, reward) in order, then reached_goal."""
    return [(tuple(map(record_fields, trace.records)), trace.reached_goal) for trace in traces]


def make_dataset(features, class_domain, rows, class_name="label"):
    """Categorical dataset from {name: domain} plus rows as plain dicts,
    counted."""
    defs = [cat(n, d) for n, d in features.items()]
    defs.append(cat(class_name, class_domain, scope="self"))
    return Dataset(tuple(defs), class_name, count_rows(tuple(r[d.name] for d in defs) for r in rows))


def fixed_policy(action, control="strategy"):
    """Unconditional policy: one catch-all rule for the action."""
    rules = RuleSet((Rule((), action, 1.0, "manual"),), control)
    return Policy(rules, action, {"sources": ["manual"]})


def terrain_policy(mapping, default, control="strategy"):
    """Policy with one terrain=value rule per mapping entry."""
    rules = [Rule((("terrain", t),), a, 1.0, "manual") for t, a in mapping.items()]
    return policy_from_rules(rules, control, default, provenance={"sources": ["manual"]})


def tiny_world(**overrides):
    """2x2 two-terrain world, handy for fast unit tests."""
    fields = dict(
        width=2, height=2,
        terrains=("flat", "dune"),
        cells=(("flat", "dune"), ("dune", "flat")),
        start=(0, 0), goal=(1, 1),
        strategies=("FAST", "CAREFUL"),
        hazard={("flat", "FAST"): 0.0, ("flat", "CAREFUL"): 0.0,
                ("dune", "FAST"): 0.5, ("dune", "CAREFUL"): 0.05},
        rewards=Rewards(1.0, 2.0, 10.0),
        max_steps=12,
    )
    fields.update(overrides)
    return GridWorld(**fields)


def uniform_hazard_world(p, **overrides):
    """tiny_world with the same hazard p for every (terrain, strategy)."""
    hazard = {(t, s): p for t in ("flat", "dune") for s in ("FAST", "CAREFUL")}
    return tiny_world(hazard=hazard, **overrides)


def striped_world(rock="rock"):
    """8x8 three-terrain stripes; the world the closed-loop checks run on.

    FAST slips often on sand and ice but rarely on rock; CAREFUL is slow
    terrain-agnostic and nearly safe everywhere. The policy worth learning
    is CAREFUL on sand and ice, FAST on rock. rock renames the rock
    terrain, e.g. to a name that CSV files must quote.
    """
    terrains = ("sand", rock, "ice")
    cells = tuple(tuple(terrains[(x + y) % 3] for x in range(8)) for y in range(8))
    hazard = {
        ("sand", "FAST"): 0.6, ("sand", "CAREFUL"): 0.1,
        (rock, "FAST"): 0.1, (rock, "CAREFUL"): 0.15,
        ("ice", "FAST"): 0.7, ("ice", "CAREFUL"): 0.2,
    }
    return GridWorld(8, 8, terrains, cells, (0, 0), (7, 7), ("FAST", "CAREFUL"),
                     hazard, Rewards(1.0, 2.0, 10.0), max_steps=30)


def world_to_json(world):
    """A world file's JSON object, which world_from_json reads back."""
    return {
        "width": world.width,
        "height": world.height,
        "terrains": list(world.terrains),
        "cells": [list(row) for row in world.cells],
        "start": list(world.start),
        "goal": list(world.goal),
        "strategies": list(world.strategies),
        "hazard": {t: {s: world.hazard[(t, s)] for s in world.strategies} for t in world.terrains},
        "rewards": dataclasses.asdict(world.rewards),
        "max_steps": world.max_steps,
    }


def save_world(world, path):
    """Write world as a world file that load_world reads back."""
    write_json(path, world_to_json(world))


def _stripes(width, height, terrains=("sand", "rock", "ice")):
    return tuple(tuple(terrains[(x + y) % 3] for x in range(width)) for y in range(height))


def wide_world():
    """striped_world at 32x32, with room for 128 steps."""
    return dataclasses.replace(striped_world(), width=32, height=32, cells=_stripes(32, 32), goal=(31, 31),
                               max_steps=128)


def up_left_world():
    """A non-square striped world whose goal lies up and to the left of its
    start, so the route takes negative moves."""
    return dataclasses.replace(striped_world(), width=7, height=5, cells=_stripes(7, 5), start=(6, 4), goal=(1, 0))


def loop_config(master_seed, **overrides):
    """The frozen closed-loop configuration used by the gate checks."""
    fields = dict(
        training_episodes=300,
        evaluation_episodes=150,
        mining=MiningConfig(max_depth=4, min_leaf_instances=5, min_support=0.05,
                            min_confidence=0.55, cv_folds=5, seed=0),
        acceptance=AcceptanceGates(min_cv_accuracy=0.65, min_heldout_delta=0.0),
        master_seed=master_seed,
        model_kind="both",
        integration_mode="override",
        exploration=0.8,
        bins=4,
    )
    fields.update(overrides)
    return CycleConfig(**fields)
