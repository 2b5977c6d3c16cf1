"""The object-level agent: a rover crossing a terrain grid.

The rover always moves greedily toward the goal; the only choice it makes
is the movement strategy for each step, and the chance of slipping depends
on the terrain of the cell it is about to enter. That keeps the world
trivial to simulate while leaving one real regularity for the mining side
to discover: which strategy survives which terrain.

Since every move is greedy and a slip only repeats a cell, each episode
walks a prefix of one fixed route, `greedy_route(world)`.

Determinism: a step consumes exactly one uniform draw from the supplied
generator, taken before the move is resolved. Episode-level exploration
draws happen before the step draw. Same world, policy, and seed always
produce byte-identical traces.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from random import Random
from typing import Any, Iterable, Mapping, Protocol, Sequence

from .errors import ConsistencyError, InputFormatError, SchemaError
from .jsonio import expect_field, expect_object, expect_pairs, read_json, read_table, write_json
from .knowledge import AttributeDef, Schema, define_schema, format_value, is_int, is_number
from .seeds import derive_seed

Coord = tuple[int, int]

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOMES = (OUTCOME_SUCCESS, OUTCOME_FAILURE)

TERRAIN_ATTR = "terrain"
STRATEGY_ATTR = "strategy"
OUTCOME_ATTR = "outcome"
OUTCOME_DEF = AttributeDef(OUTCOME_ATTR, "categorical", "self", OUTCOMES)


class DecisionMaker(Protocol):
    def decide(self, values: Mapping[str, Any]) -> Any: ...


@dataclass(frozen=True)
class Rewards:
    """Reward terms, stored as floats so a world file's 1 and 1.0 write equal traces."""

    step_cost: float = 1.0
    failure_penalty: float = 2.0
    goal_reward: float = 10.0

    def __post_init__(self):
        for name in ("step_cost", "failure_penalty", "goal_reward"):
            v = getattr(self, name)
            if not is_number(v) or not 0 <= v <= sys.float_info.max:
                raise SchemaError("BadReward", f"{name} must be a finite non-negative number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.goal_reward <= 0:
            raise SchemaError("BadReward", "goal_reward must be positive")


@dataclass(frozen=True)
class GridWorld:
    """Rectangular grid with one terrain label per cell.

    cells is row-major: cells[y][x]. hazard maps (terrain, strategy) to the
    probability that a step onto that terrain with that strategy slips.
    """

    width: int
    height: int
    terrains: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]
    start: Coord
    goal: Coord
    strategies: tuple[str, ...]
    hazard: dict[tuple[str, str], float]
    rewards: Rewards = Rewards()
    max_steps: int = 50
    master_seed: int | None = None

    def __post_init__(self):
        if not is_number(self.width) or not is_number(self.height) or self.width < 1 or self.height < 1:
            raise SchemaError("BadGrid", f"grid width and height must be numbers >= 1, got {self.width!r}, {self.height!r}")
        for group, label in ((self.terrains, "terrains"), (self.strategies, "strategies")):
            if not group or not all(isinstance(v, str) and v for v in group) or len(set(group)) != len(group):
                raise SchemaError("BadNameList", f"{label} must be distinct non-empty strings")
        if len(self.cells) != self.height or any(len(row) != self.width for row in self.cells):
            raise SchemaError("BadGrid", "cells must be height rows of width terrain labels")
        for row in self.cells:
            for t in row:
                if t not in self.terrains:
                    raise SchemaError("UnknownTerrain", f"cell terrain {t!r} is not a declared terrain")
        for label, pos in (("start", self.start), ("goal", self.goal)):
            if not all(is_int(c) for c in pos) or not self.in_bounds(*pos):
                raise SchemaError("OutOfGrid", f"{label} {pos} must be integer coordinates inside the grid")
        if self.start == self.goal:
            raise SchemaError("DegenerateWorld", "start and goal must differ")
        expected = {(t, s) for t in self.terrains for s in self.strategies}
        if set(self.hazard) != expected:
            raise SchemaError("IncompleteHazard", "hazard table must cover every (terrain, strategy) pair exactly once")
        for pair, p in self.hazard.items():
            if not is_number(p) or not 0.0 <= p <= 1.0:
                raise SchemaError("BadHazard", f"hazard{pair} must be a probability, got {p!r}")
        if not is_int(self.max_steps) or self.max_steps < 1:
            raise SchemaError("BadMaxSteps", f"max_steps must be a positive integer, got {self.max_steps!r}")
        r = self.rewards
        if not self.max_steps * (r.step_cost + r.failure_penalty) + r.goal_reward <= sys.float_info.max:
            raise SchemaError("BadReward", f"rewards over {self.max_steps} steps must sum to a finite number")
        if self.master_seed is not None and not is_int(self.master_seed):
            raise SchemaError("BadSeed", f"master_seed must be an integer, got {self.master_seed!r}")

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def terrain_at(self, x: int, y: int) -> str:
        if not self.in_bounds(x, y):
            raise ConsistencyError("OutOfGrid", f"({x}, {y}) is outside the grid")
        return self.cells[y][x]


@dataclass(frozen=True)
class DecisionRecord:
    """One step as the rover experienced it; its index in the episode is
    its epoch.

    cell is where the rover stood, observed holds the features it saw when
    choosing (the terrain of the cell it was about to enter), outcome says
    whether the move succeeded, and reward is the step's score.
    """

    cell: Coord
    observed: dict[str, Any]
    strategy: str
    outcome: str
    reward: float


@dataclass(frozen=True)
class EpisodeTrace:
    records: tuple[DecisionRecord, ...]
    reached_goal: bool


def greedy_target(world: GridWorld, position: Coord) -> Coord:
    """Next cell one step closer to the goal.

    Moves along the axis with more distance left; ties go to x. Returns the
    position itself when already at the goal.
    """
    x, y = position
    dx = world.goal[0] - x
    dy = world.goal[1] - y
    if dx == 0 and dy == 0:
        return position
    if abs(dx) >= abs(dy) and dx != 0:
        return (x + (1 if dx > 0 else -1), y)
    return (x, y + (1 if dy > 0 else -1))


def greedy_route(world: GridWorld) -> list[Coord]:
    """The cells from start to goal, both included, that greedy moves visit."""
    route = [world.start]
    while route[-1] != world.goal:
        route.append(greedy_target(world, route[-1]))
    return route


def run_episode(world: GridWorld, policy: DecisionMaker, seed: int, explore: float = 0.0) -> EpisodeTrace:
    """One episode from start until the goal or the step budget runs out.

    Each step observes the terrain of the next route cell and draws once:
    below the hazard the rover slips and stays, otherwise it advances one
    cell. With explore > 0, each step first draws once more; below the
    threshold the strategy is drawn uniformly instead of asking the policy.
    Exploration belongs to training runs only; evaluation uses the default
    0.0.
    """
    if not 0.0 <= explore <= 1.0:
        raise ConsistencyError("BadExploration", f"explore must be in [0, 1], got {explore!r}")
    rng = Random(seed)
    route = greedy_route(world)
    last = len(route) - 1
    rewards = world.rewards
    at = 0
    records: list[DecisionRecord] = []
    while at < last and len(records) < world.max_steps:
        terrain = world.terrain_at(*route[at + 1])
        observed = {TERRAIN_ATTR: terrain}
        if explore > 0.0 and rng.random() < explore:
            strategy = rng.choice(world.strategies)
        else:
            strategy = policy.decide(observed)
        if strategy not in world.strategies:
            raise ConsistencyError("UnknownStrategy", f"policy chose {strategy!r}, not a world strategy")
        here = route[at]
        if rng.random() < world.hazard[(terrain, strategy)]:
            outcome, reward = OUTCOME_FAILURE, -(rewards.step_cost + rewards.failure_penalty)
        else:
            at += 1
            outcome, reward = OUTCOME_SUCCESS, -rewards.step_cost
            if at == last:
                reward += rewards.goal_reward
        records.append(DecisionRecord(here, observed, strategy, outcome, reward))
    return EpisodeTrace(tuple(records), at == last)


def run_seeded(world: GridWorld, policy: DecisionMaker, seeds: Sequence[int], explore: float = 0.0) -> list[EpisodeTrace]:
    """One episode per seed, in seed order."""
    return [run_episode(world, policy, s, explore) for s in seeds]


def run_episodes(world: GridWorld, policy: DecisionMaker, count: int, master_seed: int,
                 explore: float = 0.0) -> list[EpisodeTrace]:
    """count episodes with per-episode seeds derived from master_seed."""
    return run_seeded(world, policy, [derive_seed(master_seed, i) for i in range(count)], explore)


def world_schema(world: GridWorld) -> Schema:
    """The attribute vocabulary this world's traces are expressed in."""
    return define_schema(
        [
            AttributeDef(TERRAIN_ATTR, "categorical", "world", world.terrains),
            AttributeDef(STRATEGY_ATTR, "categorical", "self", world.strategies),
            OUTCOME_DEF,
        ],
        class_attribute=STRATEGY_ATTR,
    )


def world_to_json(world: GridWorld) -> dict:
    return {
        "width": world.width,
        "height": world.height,
        "terrains": list(world.terrains),
        "cells": [list(row) for row in world.cells],
        "start": list(world.start),
        "goal": list(world.goal),
        "strategies": list(world.strategies),
        "hazard": {t: {s: world.hazard[(t, s)] for s in world.strategies} for t in world.terrains},
        "rewards": asdict(world.rewards),
        "max_steps": world.max_steps,
        "master_seed": world.master_seed,
    }


def world_from_json(obj: Any) -> GridWorld:
    obj = expect_object(obj, "world")
    cells = expect_field(obj, "cells", "world", list)
    if not all(isinstance(row, list) for row in cells):
        raise InputFormatError("BadField", "world cells must be a list of rows")
    hazard: dict[tuple[str, str], float] = {}
    for t, by_strategy in expect_field(obj, "hazard", "world", dict).items():
        for s, p in expect_object(by_strategy, f"hazard row {t!r}").items():
            hazard[(t, s)] = p
    rewards_json = expect_field(obj, "rewards", "world", dict)
    start, goal = expect_pairs([expect_field(obj, "start", "world"), expect_field(obj, "goal", "world")],
                               "world start and goal", "[x, y]")
    return GridWorld(
        width=expect_field(obj, "width", "world"),
        height=expect_field(obj, "height", "world"),
        terrains=tuple(expect_field(obj, "terrains", "world", list)),
        cells=tuple(tuple(row) for row in cells),
        start=start,
        goal=goal,
        strategies=tuple(expect_field(obj, "strategies", "world", list)),
        hazard=hazard,
        rewards=Rewards(
            step_cost=expect_field(rewards_json, "step_cost", "rewards"),
            failure_penalty=expect_field(rewards_json, "failure_penalty", "rewards"),
            goal_reward=expect_field(rewards_json, "goal_reward", "rewards"),
        ),
        max_steps=expect_field(obj, "max_steps", "world"),
        master_seed=obj.get("master_seed"),
    )


def save_world(world: GridWorld, path: str | Path) -> None:
    write_json(path, world_to_json(world))


def load_world(path: str | Path) -> GridWorld:
    return world_from_json(read_json(path))


TRACE_FIXED_COLUMNS = ("episode", "epoch", "x", "y", "strategy", "outcome", "reward", "reached_goal")
# The trace columns that no schema attribute describes, as attributes so
# that the one codec reads every cell.
REWARD_DEF = AttributeDef("reward", "numeric", "self", (-math.inf, math.inf))
REACHED_DEF = AttributeDef("reached_goal", "boolean", "self")


def _trace_header(schema: Schema) -> list[str]:
    world_attrs = [a.name for a in schema.scoped("world")]
    return list(TRACE_FIXED_COLUMNS[:4]) + world_attrs + list(TRACE_FIXED_COLUMNS[4:])


def save_traces(traces: Iterable[EpisodeTrace], schema: Schema, path: str | Path) -> None:
    """Write decision records as CSV, one row per record.

    Observed world attributes get their own columns between y and strategy,
    in schema order, so the file is self-describing alongside its schema.
    """
    world_attrs = [a.name for a in schema.scoped("world")]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_trace_header(schema))
        for i, trace in enumerate(traces):
            reached = format_value(trace.reached_goal)
            for epoch, rec in enumerate(trace.records):
                row = [i, epoch, rec.cell[0], rec.cell[1]]
                row += [format_value(rec.observed.get(name)) for name in world_attrs]
                row += [rec.strategy, rec.outcome, repr(rec.reward), reached]
                writer.writerow(row)


def load_traces(path: str | Path, schema: Schema) -> list[EpisodeTrace]:
    """Read a trace CSV back into episodes, checking every cell: world
    attributes, strategy and outcome lie in their schema domains, rewards
    are finite, reached_goal is true/false and the same on every row of an
    episode, and each episode's epochs run 0..n-1."""
    world_defs = schema.scoped("world")
    strategy_def = schema.class_def
    outcome_def = schema.attribute(OUTCOME_ATTR) if OUTCOME_ATTR in schema else OUTCOME_DEF
    base = 4 + len(world_defs)
    grouped: dict[int, list[DecisionRecord]] = {}
    goal_flags: dict[int, bool] = {}
    for where, row in read_table(path, _trace_header(schema)):
        try:
            episode, epoch, cell = int(row[0]), int(row[1]), (int(row[2]), int(row[3]))
        except ValueError as exc:
            raise InputFormatError("BadRow", f"{where}: {exc}") from exc
        observed = {a.name: a.parse(row[4 + k], where) for k, a in enumerate(world_defs)}
        rec = DecisionRecord(cell, observed, strategy_def.parse(row[base], where),
                             outcome_def.parse(row[base + 1], where), REWARD_DEF.parse(row[base + 2], where))
        reached = REACHED_DEF.parse(row[base + 3], where)
        if goal_flags.setdefault(episode, reached) != reached:
            raise InputFormatError("BadTrace", f"{where}: reached_goal changes within episode {episode}")
        records = grouped.setdefault(episode, [])
        if epoch != len(records):
            raise InputFormatError("BadTrace", f"{where}: episode {episode} has epoch {epoch} where "
                                               f"{len(records)} comes next")
        records.append(rec)
    return [EpisodeTrace(tuple(grouped[e]), goal_flags[e]) for e in sorted(grouped)]
