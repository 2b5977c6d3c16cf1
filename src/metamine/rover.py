"""The object-level agent: a rover crossing a terrain grid.

The rover always moves greedily toward the goal; the only choice it makes
is the movement strategy for each step, and the chance of slipping depends
on the terrain of the cell it is about to enter. That keeps the world
trivial to simulate while leaving one real regularity for the mining side
to discover: which strategy survives which terrain.

Since every move is greedy and a slip only repeats a cell, each episode
walks a prefix of one fixed route, `greedy_route(world)`, and a policy
compiles into a `RouteTable` of what it does at each route step. Traced
runs (`run_seeded`) keep a decision record per step, taken from a move
table of each route step's hazards and records per strategy, so equal
steps share one object; evaluation (`rollout`) keeps only the goal count
and each episode's reward sum, and walks the incumbent's and the
candidate's tables in lockstep. Both seed one generator once per episode.

Determinism: a step consumes exactly one uniform draw from the episode's
generator, taken before the move is resolved. An exploration draw comes
before the step draw, and draws its strategy as Random.choice does. Same
world, policy, and seed always produce byte-identical traces.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import add
from pathlib import Path
from random import Random
from typing import Any, Iterable, Mapping, Protocol, Sequence

from .errors import ConsistencyError, InputFormatError, SchemaError
from .jsonio import csv_record, expect_field, expect_object, expect_pairs, located, open_table, read_json
from .knowledge import AttributeDef, Schema, define_schema, format_value, is_int, is_number
from .seeds import derive_seeds

Coord = tuple[int, int]

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOMES = (OUTCOME_SUCCESS, OUTCOME_FAILURE)

TERRAIN_ATTR = "terrain"
STRATEGY_ATTR = "strategy"
OUTCOME_ATTR = "outcome"
OUTCOME_DEF = AttributeDef(OUTCOME_ATTR, "categorical", "self", OUTCOMES)

# The longest episode a world may ask for. Every step is a trace record,
# and an episode on a route that every strategy slips on runs its whole
# budget, so a larger one lets a world file keep `simulate` or `cycle`
# running, and its records growing, for hours.
MAX_STEPS = 10_000


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

    def __post_init__(self):
        if not is_int(self.width) or not is_int(self.height) or self.width < 1 or self.height < 1:
            raise SchemaError("BadGrid", f"grid width and height must be integers >= 1, got {self.width!r}, {self.height!r}")
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
        if not is_int(self.max_steps) or not 1 <= self.max_steps <= MAX_STEPS:
            raise SchemaError("BadMaxSteps", f"max_steps must be an integer from 1 to {MAX_STEPS}, got {self.max_steps!r}")
        r = self.rewards
        if not self.max_steps * (r.step_cost + r.failure_penalty) + r.goal_reward <= sys.float_info.max:
            raise SchemaError("BadReward", f"rewards over {self.max_steps} steps must sum to a finite number")

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def terrain_at(self, x: int, y: int) -> str:
        if not self.in_bounds(x, y):
            raise ConsistencyError("OutOfGrid", f"({x}, {y}) is outside the grid")
        return self.cells[y][x]

    @cached_property
    def schema(self) -> Schema:
        """world_schema's value, built on first use only: a world is never
        changed after it is built."""
        return define_schema(
            [
                AttributeDef(TERRAIN_ATTR, "categorical", "world", self.terrains),
                AttributeDef(STRATEGY_ATTR, "categorical", "self", self.strategies),
                OUTCOME_DEF,
            ],
            class_attribute=STRATEGY_ATTR,
        )


@dataclass(frozen=True)
class DecisionRecord:
    """One step as the rover experienced it; its index in the episode is
    its epoch.

    cell is where the rover stood, observed holds the features it saw when
    choosing (the terrain of the cell it was about to enter), outcome says
    whether the move succeeded, and reward is the step's score.

    Records are values: run_seeded and load_traces hand out one object for
    all equal steps, so traces share it and observed is read-only.
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


@dataclass(frozen=True)
class RouteTable:
    """A policy compiled against one world.

    The rover only ever observes the cells of greedy_route(world), so what
    a policy does there is fixed before any episode runs. Entry i is the
    move from route[i] to route[i + 1]: the terrain ahead, the policy's
    action, and that action's slip hazard.
    """

    route: tuple[Coord, ...]
    terrains: tuple[str, ...]
    actions: tuple[Any, ...]
    hazards: tuple[float, ...]


def route_table(world: GridWorld, policy: DecisionMaker) -> RouteTable:
    """Ask the policy once per route cell; policy.decide must depend on the
    observation alone. An action there that is not a world strategy is an
    error here, before any episode runs; cells off the route are never
    asked about."""
    route = tuple(greedy_route(world))
    terrains = tuple(world.terrain_at(*cell) for cell in route[1:])
    actions = tuple(policy.decide({TERRAIN_ATTR: t}) for t in terrains)
    for a in actions:
        if a not in world.strategies:
            raise ConsistencyError("UnknownStrategy", f"policy chose {a!r}, not a world strategy")
    hazards = tuple(world.hazard[(t, a)] for t, a in zip(terrains, actions))
    return RouteTable(route, terrains, actions, hazards)


def _step_rewards(rewards: Rewards) -> tuple[float, float, float]:
    """The reward of a step that slips, of one that advances, and of the
    one that enters the goal."""
    move = -rewards.step_cost
    return -(rewards.step_cost + rewards.failure_penalty), move, move + rewards.goal_reward


def run_seeded(world: GridWorld, policy: DecisionMaker, seeds: Sequence[int], explore: float = 0.0) -> list[EpisodeTrace]:
    """One episode per seed, in seed order, sharing one route table.

    An episode runs from start until the goal or the step budget runs out.
    Each step observes the terrain of the next route cell and draws once:
    below the hazard the rover slips and stays, otherwise it advances one
    cell. With explore > 0, each step first draws once more; below the
    threshold the strategy is drawn uniformly instead of taking the
    policy's. Exploration belongs to training runs only; evaluation uses
    the default 0.0.

    Before the first seed, a move table holds, per route step and world
    strategy, the hazard and the one record of a success and of a slip, so
    a step only indexes it and appends. The uniform strategy draw takes
    what Random.choice(world.strategies) takes: k = n.bit_length() random
    bits for n strategies, drawn again until they index one.
    """
    if not 0.0 <= explore <= 1.0:
        raise ConsistencyError("BadExploration", f"explore must be in [0, 1], got {explore!r}")
    table = route_table(world, policy)
    actions, last, max_steps = table.actions, len(table.terrains), world.max_steps
    slip, move, arrive = _step_rewards(world.rewards)
    strategies = world.strategies
    n = len(strategies)
    k = n.bit_length()
    # moves[at][i]: strategy i's hazard at route step at, then its success record and its slip record
    moves = []
    for at, terrain in enumerate(table.terrains):
        cell, observed = table.route[at], {TERRAIN_ATTR: terrain}
        reward = arrive if at == last - 1 else move
        moves.append([(world.hazard[(terrain, s)], DecisionRecord(cell, observed, s, OUTCOME_SUCCESS, reward),
                       DecisionRecord(cell, observed, s, OUTCOME_FAILURE, slip)) for s in strategies])
    # the policy's move per route step
    chosen = [row[strategies.index(a)] for row, a in zip(moves, actions)]
    exploring = explore > 0.0
    rng = Random()
    reseed, random, getrandbits = rng.seed, rng.random, rng.getrandbits
    traces = []
    for seed in seeds:
        reseed(seed)
        at = steps = 0
        records: list[DecisionRecord] = []
        append = records.append
        while at < last and steps < max_steps:
            steps += 1
            if exploring and random() < explore:
                i = getrandbits(k)
                while i >= n:
                    i = getrandbits(k)
                hazard, success, failure = moves[at][i]
            else:
                hazard, success, failure = chosen[at]
            if random() < hazard:
                append(failure)
            else:
                append(success)
                at += 1
        traces.append(EpisodeTrace(tuple(records), at == last))
    return traces


def rollout(world: GridWorld, tables: Sequence[RouteTable], seeds: Iterable[int]) -> list[tuple[int, list[float]]]:
    """Per table, one or two of them, the goal count and the per-episode
    reward sums of the episodes that run_seeded traces for these seeds
    without exploration, keeping no records. Each sum adds the step rewards
    in step order, as float_sum over a trace's records does, so the floats
    are the same.

    Step t of an episode takes draw t of its seed's generator under either
    table, so two tables walk each seed in lockstep on one draw per step,
    from one generator seeded once per episode."""
    slip, move, arrive = _step_rewards(world.rewards)
    max_steps = world.max_steps
    # without a second table, walker b stands at the goal of an empty route and never draws
    ha, hb = [t.hazards for t in tables] + [()] * (2 - len(tables))
    last_a, last_b = len(ha), len(hb)
    goals_a = goals_b = 0
    sums_a: list[float] = []
    sums_b: list[float] = []
    rng = Random()
    reseed, draw = rng.seed, rng.random
    for seed in seeds:
        reseed(seed)
        a = b = steps = 0
        total_a = total_b = 0.0
        while a < last_a and b < last_b and steps < max_steps:
            steps += 1
            u = draw()
            if u < ha[a]:
                total_a += slip
            else:
                a += 1
                total_a += arrive if a == last_a else move
            if u < hb[b]:
                total_b += slip
            else:
                b += 1
                total_b += arrive if b == last_b else move
        # a walker still on its route walks on alone
        while a < last_a and steps < max_steps:
            steps += 1
            if draw() < ha[a]:
                total_a += slip
            else:
                a += 1
                total_a += arrive if a == last_a else move
        while b < last_b and steps < max_steps:
            steps += 1
            if draw() < hb[b]:
                total_b += slip
            else:
                b += 1
                total_b += arrive if b == last_b else move
        goals_a += a == last_a
        goals_b += b == last_b
        sums_a.append(total_a)
        sums_b.append(total_b)
    return [(goals_a, sums_a), (goals_b, sums_b)][:len(tables)]


def run_episodes(world: GridWorld, policy: DecisionMaker, count: int, master_seed: int,
                 explore: float = 0.0) -> list[EpisodeTrace]:
    """count episodes with per-episode seeds derived from master_seed."""
    return run_seeded(world, policy, derive_seeds(master_seed, n=count), explore)


def world_schema(world: GridWorld) -> Schema:
    """The attribute vocabulary this world's traces are expressed in."""
    return world.schema


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
    )


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
    Every record must have observed each of them; otherwise nothing is
    written.

    The csv writer renders each distinct record's cells from x to reward
    once; the episode, epoch and reached_goal cells never need quoting, so
    an episode is written as one string: each record's text behind its
    epoch cell from a table of them, the rows joined on the episode's
    reached_goal cell, line end and next episode cell. An episode with no
    records writes nothing but uses up its index, and the file is written
    an episode at a time, never held whole.
    """
    world_attrs = [a.name for a in schema.scoped("world")]
    traces = list(traces)
    # id(rec) -> its CSV text from x to reward; traces holds every record, so each id stays unique
    texts: dict[int, str] = {}
    for trace in traces:
        for rec in trace.records:
            if id(rec) not in texts:
                missing = [name for name in world_attrs if name not in rec.observed]
                if missing:
                    raise ConsistencyError("MissingObservation", f"trace records carry no value for {missing[0]!r}")
                texts[id(rec)] = csv_record([rec.cell[0], rec.cell[1], *(format_value(rec.observed[name])
                                                                         for name in world_attrs),
                                             rec.strategy, rec.outcome, repr(rec.reward)])[:-2]
    # map stops at its shortest input, so the epoch cells reach the longest episode
    epochs = [f"{epoch}," for epoch in range(max((len(trace.records) for trace in traces), default=0))]
    text_of = texts.__getitem__
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_record(_trace_header(schema)))
        for i, trace in enumerate(traces):
            if trace.records:
                lead, end = f"{i},", f",{format_value(trace.reached_goal)}\r\n"
                fh.write(lead + (end + lead).join(map(add, epochs, map(text_of, map(id, trace.records)))) + end)


def load_traces(path: str | Path, schema: Schema) -> list[EpisodeTrace]:
    """Read a trace CSV back into episodes, checking every cell: world
    attributes, strategy and outcome lie in their schema domains, rewards
    are finite, reached_goal is true/false and the same on every row of an
    episode, and each episode's epochs run 0..n-1. Rows whose cells from
    x to reward read the same share one record.

    A row whose episode cell is a few ASCII digits reads as csv reads it
    when split at its first comma, so the rest of its line, from the epoch
    cell on, decides its epoch, record and reached_goal, and a row with a
    known rest takes all three without parsing a cell. A new rest whose
    epoch cell is a few ASCII digits too splits the same way once more:
    its tail, the bytes after the epoch cell, decides the record and
    reached_goal, so a record met again at a new epoch takes both from the
    tail and its epoch from int(). csv parses each distinct tail once
    (about 110 of them in a 67k-row trace, which holds about 1,300
    distinct rests); any other row goes through csv as well. A known row
    that repeats the episode cell bytes of the plain row just read, at the
    epoch and reached_goal that episode expects next, passes every check
    as it stands and only appends its record."""
    world_defs = schema.scoped("world")
    strategy_def = schema.class_def
    outcome_def = schema.attribute(OUTCOME_ATTR) if OUTCOME_ATTR in schema else OUTCOME_DEF
    base = 4 + len(world_defs)
    episodes: dict[int, tuple[list[DecisionRecord], bool]] = {}
    # the cell texts from x to reward -> their record; equal text parses to an equal value
    shared: dict[tuple[str, ...], DecisionRecord] = {}
    # a one-line row's bytes after its episode cell -> its (record, reached_goal, epoch)
    known: dict[bytes, tuple[DecisionRecord, bool, int]] = {}
    # the same row's bytes after its epoch cell -> its (record, reached_goal)
    tails: dict[bytes, tuple[DecisionRecord, bool]] = {}
    # at: the episode cell of the last row read, if it was plain; records: that
    # row's episode, and offset + len(records) the next row's record number
    current = at = None
    records: list[DecisionRecord] = []
    offset = 2
    with open_table(path, _trace_header(schema)) as (rows, cells):
        for raw in rows:
            lead, _, rest = raw.partition(b",")
            parsed = known.get(rest)
            if parsed is not None and lead == at and parsed[2] == len(records) and parsed[1] == first_reached:
                records.append(parsed[0])
                continue
            # ASCII digits, which csv reads as they are and int() always takes, and short
            # enough that csv's field size limit cannot refuse them
            plain = lead.isdigit() and len(lead) < 40
            line = offset + len(records)
            if parsed is None and plain:
                step, _, tail = rest.partition(b",")
                hit = tails.get(tail)
                if hit is not None and step.isdigit() and len(step) < 40:
                    parsed = known[rest] = (*hit, int(step))
            if parsed is not None and plain:
                episode, (rec, reached, epoch) = int(lead), parsed
            else:
                row, whole = cells(line, raw)
                try:
                    episode, epoch = int(row[0]), int(row[1])
                    key = tuple(row[2:base + 3])
                    rec = shared.get(key)
                    if rec is None:
                        cell = (int(row[2]), int(row[3]))
                        observed = {a.name: a.parse(row[4 + k]) for k, a in enumerate(world_defs)}
                        rec = shared[key] = DecisionRecord(cell, observed, strategy_def.parse(row[base]),
                                                           outcome_def.parse(row[base + 1]),
                                                           REWARD_DEF.parse(row[base + 2]))
                    reached = REACHED_DEF.parse(row[base + 3])
                except ValueError as exc:
                    raise located(InputFormatError("BadRow", str(exc)), path, line) from exc
                except (InputFormatError, SchemaError) as exc:
                    raise located(exc, path, line) from exc
                if plain and whole:
                    known[rest] = rec, reached, epoch
                    tails[tail] = rec, reached
            if episode != current:
                offset += len(records)
                current = episode
                records, first_reached = episodes.setdefault(episode, ([], reached))
                offset -= len(records)
            if first_reached != reached:
                error = f"reached_goal changes within episode {episode}"
                raise located(InputFormatError("BadTrace", error), path, line)
            if epoch != len(records):
                error = f"episode {episode} has epoch {epoch} where {len(records)} comes next"
                raise located(InputFormatError("BadTrace", error), path, line)
            records.append(rec)
            at = lead if plain else None
    return [EpisodeTrace(tuple(records), reached) for _, (records, reached) in sorted(episodes.items())]
