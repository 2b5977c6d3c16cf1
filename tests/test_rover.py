"""Gridworld mechanics: movement, hazards, rewards, traces, and seeding."""

import csv
import dataclasses
import io
import itertools
import math
import tempfile
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rollout_reference
from helpers import (
    fixed_policy,
    fresh_copy,
    loop_config,
    save_world,
    striped_world,
    terrain_policy,
    tiny_world,
    trace_values,
    uniform_hazard_world,
    up_left_world,
    wide_world,
    world_to_json,
)
from metamine.cli import EXIT_OK, EXIT_SCHEMA, main
from metamine.cycle import evaluate_candidate, run_experiment
from metamine.errors import ConsistencyError, InputFormatError, SchemaError
from metamine.jsonio import canonical_dumps
from metamine.knowledge import AttributeDef, define_schema, float_sum, format_value
from metamine.policy import Rule, initial_policy, policy_from_rules, save_policy
from metamine.rover import (
    MAX_STEPS,
    OUTCOME_FAILURE,
    OUTCOME_SUCCESS,
    DecisionRecord,
    EpisodeTrace,
    GridWorld,
    Rewards,
    RouteTable,
    greedy_route,
    greedy_target,
    load_traces,
    load_world,
    rollout,
    route_table,
    run_episodes,
    run_seeded,
    save_traces,
    world_from_json,
    world_schema,
)
from metamine.seeds import derive_seeds


class TestWorldValidation:
    def test_start_must_differ_from_goal(self):
        with pytest.raises(SchemaError) as err:
            tiny_world(start=(1, 1))
        assert err.value.code == "DegenerateWorld"

    def test_hazard_table_must_cover_every_pair(self):
        hazard = {("flat", "FAST"): 0.0}
        with pytest.raises(SchemaError) as err:
            tiny_world(hazard=hazard)
        assert err.value.code == "IncompleteHazard"

    def test_hazard_values_must_be_probabilities(self):
        world = tiny_world()
        bad = dict(world.hazard)
        bad[("flat", "FAST")] = 1.5
        with pytest.raises(SchemaError) as err:
            tiny_world(hazard=bad)
        assert err.value.code == "BadHazard"

    def test_cells_must_use_declared_terrains(self):
        with pytest.raises(SchemaError) as err:
            tiny_world(cells=(("flat", "mud"), ("dune", "flat")))
        assert err.value.code == "UnknownTerrain"

    def test_cells_shape_must_match_grid(self):
        for overrides in ({"cells": (("flat", "dune"),)}, {"width": 2.0, "height": 2.0}):
            with pytest.raises(SchemaError) as err:
                tiny_world(**overrides)
            assert err.value.code == "BadGrid"

    def test_positions_must_be_in_bounds(self):
        with pytest.raises(SchemaError) as err:
            tiny_world(goal=(5, 5))
        assert err.value.code == "OutOfGrid"

    @pytest.mark.parametrize("max_steps", [0, -1, 1.5, MAX_STEPS + 1])
    def test_step_budget_must_be_positive(self, max_steps):
        with pytest.raises(SchemaError):
            tiny_world(max_steps=max_steps)

    def test_goal_reward_must_be_positive(self):
        with pytest.raises(SchemaError):
            Rewards(goal_reward=0.0)
        with pytest.raises(SchemaError):
            Rewards(step_cost=-1.0)

    def test_terrain_lookup(self):
        world = tiny_world()
        assert world.terrain_at(1, 0) == "dune"
        assert world.in_bounds(0, 0) and not world.in_bounds(2, 0)
        with pytest.raises(ConsistencyError):
            world.terrain_at(9, 9)


class TestGreedyTarget:
    def test_moves_along_longer_axis_first(self):
        world = tiny_world(width=4, height=4, cells=tuple(("flat",) * 4 for _ in range(4)),
                           start=(0, 0), goal=(3, 1))
        assert greedy_target(world, (0, 0)) == (1, 0)
        assert greedy_target(world, (3, 0)) == (3, 1)

    def test_axis_tie_prefers_x(self):
        world = tiny_world()
        assert greedy_target(world, (0, 0)) == (1, 0)

    def test_at_goal_stays_put(self):
        world = tiny_world()
        assert greedy_target(world, (1, 1)) == (1, 1)

    def test_moves_decrease_distance_from_any_cell(self):
        world = striped_world()
        for x in range(8):
            for y in range(8):
                if (x, y) == world.goal:
                    continue
                tx, ty = greedy_target(world, (x, y))
                before = abs(world.goal[0] - x) + abs(world.goal[1] - y)
                after = abs(world.goal[0] - tx) + abs(world.goal[1] - ty)
                assert world.in_bounds(tx, ty)
                assert after == before - 1

    def test_route_runs_from_start_to_goal_in_greedy_moves(self):
        world = tiny_world(width=7, height=5, cells=tuple(("flat",) * 7 for _ in range(5)),
                           start=(6, 4), goal=(1, 0))
        route = greedy_route(world)
        assert route[0] == world.start and route[-1] == world.goal
        assert all(greedy_target(world, a) == b for a, b in zip(route, route[1:]))
        assert len(route) == 1 + 5 + 4


class TestStep:
    """One step of an episode along the greedy route, on tiny_world:
    (0, 0) -> (1, 0) -> (1, 1), entering dune and then the flat goal."""

    def test_safe_step_moves_and_costs_one(self):
        # dune CAREFUL hazard is 0.05; Random(0) first draw is ~0.844
        first, second = run_seeded(tiny_world(), fixed_policy("CAREFUL"), [0])[0].records
        assert (first.cell, first.outcome, first.reward) == ((0, 0), OUTCOME_SUCCESS, -1.0)
        assert second.cell == (1, 0)

    def test_hazard_failure_stays_and_pays_penalty(self):
        # dune FAST hazard is 0.5; Random(1) first draw is ~0.134
        first, second = run_seeded(tiny_world(), fixed_policy("FAST"), [1])[0].records[:2]
        assert (first.cell, first.outcome, first.reward) == ((0, 0), OUTCOME_FAILURE, -3.0)
        assert second.cell == (0, 0)

    def test_goal_entry_adds_goal_reward(self):
        trace = run_seeded(tiny_world(), fixed_policy("CAREFUL"), [0])[0]
        assert trace.reached_goal
        assert (trace.records[-1].cell, trace.records[-1].reward) == ((1, 0), 9.0)

    def test_step_rewards_are_the_three_reward_expressions(self):
        traces = [run_seeded(tiny_world(), fixed_policy("FAST"), [s])[0] for s in range(20)]
        assert {r.reward for t in traces for r in t.records} == {-1.0, -3.0, 9.0}

    def test_every_cell_lies_on_the_greedy_route(self):
        world = striped_world()
        route = greedy_route(world)
        for seed in range(10):
            trace = run_seeded(world, fixed_policy("FAST"), [seed], 0.5)[0]
            assert all(r.cell in route for r in trace.records)

    def test_success_advances_one_route_cell_and_failure_stays(self):
        world = striped_world()
        route = greedy_route(world)
        for seed in range(10):
            records = run_seeded(world, fixed_policy("FAST"), [seed])[0].records
            for rec, after in zip(records, records[1:]):
                moved = route.index(after.cell) - route.index(rec.cell)
                assert moved == (1 if rec.outcome == OUTCOME_SUCCESS else 0)

    def test_unknown_strategy_rejected(self):
        # the first step enters dune and is taken with CAREFUL; the step that
        # would enter the flat goal gets WALK from the policy default
        with pytest.raises(ConsistencyError) as err:
            run_seeded(tiny_world(), terrain_policy({"dune": "CAREFUL"}, "WALK"), [0])[0]
        assert err.value.code == "UnknownStrategy"
        assert "'WALK'" in str(err.value)

    @pytest.mark.parametrize("strategy", ["FAST", "CAREFUL"])
    def test_exactly_one_draw_per_call(self, strategy):
        """Without exploration each step makes one policy call and one draw:
        replaying Random(seed) by hand, one draw per step, gives the trace."""
        world = striped_world()
        route = greedy_route(world)
        for seed in range(10):
            trace = run_seeded(world, fixed_policy(strategy), [seed])[0]
            shadow, at, expected = Random(seed), 0, []
            for _ in trace.records:
                slipped = shadow.random() < world.hazard[(world.terrain_at(*route[at + 1]), strategy)]
                expected.append((route[at], OUTCOME_FAILURE if slipped else OUTCOME_SUCCESS))
                at += not slipped
            assert [(r.cell, r.outcome) for r in trace.records] == expected


class TestRunEpisode:
    def test_zero_hazard_reaches_goal_on_shortest_path(self):
        world = uniform_hazard_world(0.0)
        trace = run_seeded(world, fixed_policy("FAST"), [1])[0]
        assert trace.reached_goal and len(trace.records) == 2
        assert [r.cell for r in trace.records] == [(0, 0), (1, 0)]
        assert rollout(world, [route_table(world, fixed_policy("FAST"))], [1]) == [(1, [-1.0 + 9.0])]

    def test_adjacent_start_yields_single_record(self):
        world = uniform_hazard_world(0.0, start=(1, 0))
        trace = run_seeded(world, fixed_policy("FAST"), [1])[0]
        assert trace.reached_goal and len(trace.records) == 1
        assert rollout(world, [route_table(world, fixed_policy("FAST"))], [1]) == [(1, [9.0])]

    def test_certain_hazard_exhausts_step_budget(self):
        world = uniform_hazard_world(1.0)
        trace = run_seeded(world, fixed_policy("FAST"), [1])[0]
        assert not trace.reached_goal
        assert len(trace.records) == world.max_steps
        assert all(r.outcome == OUTCOME_FAILURE for r in trace.records)
        assert rollout(world, [route_table(world, fixed_policy("FAST"))], [1]) == [(0, [-world.max_steps * 3.0])]

    def test_same_seed_same_trace(self):
        world = striped_world()
        policy = fixed_policy("FAST")
        assert trace_values(run_seeded(world, policy, [7])) == trace_values(run_seeded(world, policy, [7]))

    def test_different_seeds_differ_somewhere(self):
        world = striped_world()
        policy = fixed_policy("FAST")
        traces = trace_values(run_seeded(world, policy, [s])[0] for s in range(6))
        assert any(t != traces[0] for t in traces[1:])

    def test_observation_is_the_terrain_ahead(self):
        world = striped_world()
        trace = run_seeded(world, fixed_policy("CAREFUL"), [5])[0]
        for rec in trace.records:
            target = greedy_target(world, rec.cell)
            assert rec.observed == {"terrain": world.terrain_at(*target)}

    def test_epochs_count_up_from_zero(self, tmp_path):
        world = striped_world()
        traces = run_episodes(world, fixed_policy("CAREFUL"), 3, master_seed=2)
        save_traces(traces, world_schema(world), tmp_path / "t.csv")
        with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for episode, trace in enumerate(traces):
            epochs = [int(row["epoch"]) for row in rows if int(row["episode"]) == episode]
            assert epochs == list(range(len(trace.records)))

    def test_reaching_goal_implies_last_cell_adjacent(self):
        world = striped_world()
        for seed in range(25):
            trace = run_seeded(world, fixed_policy("CAREFUL"), [seed])[0]
            if trace.reached_goal:
                lx, ly = trace.records[-1].cell
                assert abs(world.goal[0] - lx) + abs(world.goal[1] - ly) == 1

    @given(st.integers(min_value=0, max_value=10_000))
    def test_reward_accounting_identity(self, seed):
        world = striped_world()
        trace = run_seeded(world, fixed_policy("FAST"), [seed])[0]
        failures = sum(r.outcome == OUTCOME_FAILURE for r in trace.records)
        expected = (-len(trace.records) * world.rewards.step_cost
                    - failures * world.rewards.failure_penalty
                    + (world.rewards.goal_reward if trace.reached_goal else 0.0))
        assert rollout(world, [route_table(world, fixed_policy("FAST"))], [seed])[0][1] == [pytest.approx(expected)]

    def test_policy_returning_unknown_strategy_is_an_error(self):
        with pytest.raises(ConsistencyError) as err:
            run_seeded(tiny_world(), fixed_policy("WALK"), [0])[0]
        assert err.value.code == "UnknownStrategy"

    @pytest.mark.parametrize("explore", [-0.1, 1.0001])
    def test_exploration_rate_must_be_a_probability(self, explore):
        with pytest.raises(ConsistencyError):
            run_seeded(tiny_world(), fixed_policy("FAST"), [0], explore)[0]

    def test_full_exploration_ignores_the_policy(self):
        world = uniform_hazard_world(0.0, max_steps=40, width=8, height=8,
                                     cells=tuple(("flat",) * 8 for _ in range(8)),
                                     start=(0, 0), goal=(7, 7))
        traces = [run_seeded(world, fixed_policy("FAST"), [s], 1.0)[0] for s in range(4)]
        chosen = {r.strategy for t in traces for r in t.records}
        assert chosen == {"FAST", "CAREFUL"}

    def test_no_exploration_never_deviates(self):
        trace = run_seeded(striped_world(), fixed_policy("CAREFUL"), [9], 0.0)[0]
        assert {r.strategy for r in trace.records} == {"CAREFUL"}


class TestRunners:
    def test_run_seeded_is_order_preserving_and_thread_agnostic(self):
        world = striped_world()
        policy = terrain_policy({"sand": "CAREFUL", "ice": "CAREFUL"}, "FAST")
        seeds = list(range(20))
        assert trace_values(run_seeded(world, policy, seeds)) == trace_values(run_seeded(world, policy, [s])[0]
                                                                              for s in seeds)

    def test_run_episodes_derives_distinct_seeds(self):
        world = striped_world()
        traces = trace_values(run_episodes(world, fixed_policy("FAST"), 10, master_seed=42))
        assert len(traces) == 10
        assert traces == trace_values(run_episodes(world, fixed_policy("FAST"), 10, master_seed=42))
        assert traces != trace_values(run_episodes(world, fixed_policy("FAST"), 10, master_seed=43))

    def test_careful_beats_fast_on_the_striped_world(self):
        world = striped_world()
        n = 300
        fast = sum(t.reached_goal for t in run_episodes(world, fixed_policy("FAST"), n, 1)) / n
        careful = sum(t.reached_goal for t in run_episodes(world, fixed_policy("CAREFUL"), n, 1)) / n
        assert careful > fast + 0.2


WORLDS = {"tiny": tiny_world, "striped": striped_world, "wide": wide_world, "up-left": up_left_world}


@pytest.fixture(scope="module")
def policies_built_in_tests():
    """The hand-built policies the tests run, the initial policy, and the
    final policies of a 3-cycle loop in both integration modes."""
    schema = world_schema(striped_world())
    built = [fixed_policy("FAST"), fixed_policy("CAREFUL"), fixed_policy("WALK"), initial_policy(schema),
             terrain_policy({"sand": "CAREFUL", "ice": "CAREFUL"}, "FAST"),
             terrain_policy({"sand": "CAREFUL", "rock": "FAST"}, "FAST"),
             terrain_policy({"dune": "CAREFUL"}, "WALK"), terrain_policy({"dune": "WALK"}, "FAST")]
    mined = [run_experiment(striped_world(), loop_config(1, integration_mode=mode), 3).final_policy
             for mode in ("override", "append")]
    return built + mined


def check_table(world, policy):
    """Each table entry is what the rover observes on that route cell,
    Policy.decide on that observation, and the world's hazard for it. A
    policy that decides a non-strategy on some route cell gets no table:
    the error names the first such action."""
    route = greedy_route(world)
    terrains = [world.terrain_at(*cell) for cell in route[1:]]
    actions = [policy.decide({"terrain": terrain}) for terrain in terrains]
    unknown = [action for action in actions if action not in world.strategies]
    if unknown:
        with pytest.raises(ConsistencyError) as err:
            route_table(world, policy)
        assert (err.value.code, err.value.message) == ("UnknownStrategy",
                                                       f"policy chose {unknown[0]!r}, not a world strategy")
        return
    table = route_table(world, policy)
    assert table.route == tuple(route)
    assert len(table.terrains) == len(table.actions) == len(table.hazards) == len(route) - 1
    for i, (terrain, action) in enumerate(zip(terrains, actions)):
        assert (table.terrains[i], table.actions[i]) == (terrain, action)
        assert table.hazards[i] == world.hazard[(terrain, action)]


ACTIONS = st.sampled_from(["FAST", "CAREFUL", "WALK"])
RULES = st.lists(st.builds(
    lambda conditions, action, confidence: Rule(tuple(conditions.items()), action, confidence, "manual"),
    st.dictionaries(st.sampled_from(["terrain", "slope"]), st.sampled_from(["sand", "rock", "ice", "flat", "dune"])),
    ACTIONS, st.floats(min_value=0.01, max_value=1.0)), max_size=6)


class TestRouteTable:
    def test_every_policy_built_in_tests_matches_decide(self, policies_built_in_tests):
        for make_world in WORLDS.values():
            for policy in policies_built_in_tests:
                check_table(make_world(), policy)

    @settings(max_examples=250, deadline=None)
    @given(RULES, ACTIONS, st.sampled_from(sorted(WORLDS)))
    def test_random_rule_lists_match_decide(self, rules, default, world):
        check_table(WORLDS[world](), policy_from_rules(rules, "strategy", default))


def outcome_of(call, view=lambda value: value):
    """A call's value through view, with its repr, or its error's class,
    code and message."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - any divergence counts, whatever it raises
        return "error", type(exc), getattr(exc, "code", None), str(exc)
    return "value", view(value), repr(value)


@st.composite
def route_tables(draw, steps):
    """A route table of steps entries with hazards 0, 1 or any probability."""
    hazards = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=steps, max_size=steps))
    return RouteTable(tuple((x, 0) for x in range(steps + 1)), ("flat",) * steps, ("FAST",) * steps, tuple(hazards))


@st.composite
def paired_walks(draw):
    steps = draw(st.integers(1, 12))
    rewards = draw(st.sampled_from([Rewards(), Rewards(0.1, 0.7, 3.3)])
                   | st.builds(Rewards, st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.01, 5.0)))
    world = dataclasses.replace(tiny_world(), rewards=rewards, max_steps=draw(st.integers(1, 40)))
    seeds = draw(st.lists(st.integers(0, 4) | st.integers(0, 2**64 - 1), max_size=12))
    return world, draw(route_tables(steps)), draw(route_tables(steps)), seeds


@st.composite
def worlds_and_policies(draw, non_strategies=()):
    """A world of 1-5 strategies (so the uniform strategy draw sometimes
    draws again) on a small grid, and a terrain policy over its strategies
    and non_strategies."""
    strategies = tuple(f"S{i}" for i in range(draw(st.integers(1, 5))))
    terrains = ("flat", "dune", "ice")[:draw(st.integers(1, 3))]
    width, height = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    cells = tuple(tuple(draw(st.sampled_from(terrains)) for _ in range(width)) for _ in range(height))
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    start = draw(cell)
    goal = draw(cell.filter(lambda c: c != start))
    hazard = {(t, s): draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) for t in terrains for s in strategies}
    rewards = draw(st.sampled_from([Rewards(), Rewards(0.1, 0.7, 3.3)]))
    world = GridWorld(width, height, terrains, cells, start, goal, strategies, hazard, rewards,
                      draw(st.integers(1, 40)))
    actions = st.sampled_from(strategies + non_strategies)
    return world, terrain_policy(draw(st.dictionaries(st.sampled_from(terrains), actions)), draw(actions))


@st.composite
def seeded_runs(draw):
    """A small world, a terrain policy whose action may be no world strategy,
    an exploration rate and seeds."""
    world, policy = draw(worlds_and_policies(("WALK",)))
    seeds = draw(st.lists(st.integers(0, 4) | st.integers(0, 2**64 - 1), max_size=12))
    return world, policy, seeds, draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))


class TestRollout:
    @pytest.mark.parametrize("world", sorted(WORLDS))
    @pytest.mark.parametrize("rewards", [None, Rewards(0.1, 0.7, 3.3)])
    def test_matches_the_traced_episodes(self, world, rewards):
        """Goal count and per-episode reward sums equal run_seeded's traces
        at explore 0, float for float, also for rewards 0.1 cannot add up
        exactly: each sum adds the step rewards left to right. Each pair of
        tables walked together gives each table's own."""
        world = WORLDS[world]()
        if rewards is not None:
            world = dataclasses.replace(world, rewards=rewards)
        seeds = list(range(500))
        tables, expected = [], []
        for policy in (fixed_policy("FAST"), fixed_policy("CAREFUL"),
                       terrain_policy({"sand": "CAREFUL", "ice": "CAREFUL", "dune": "CAREFUL"}, "FAST")):
            traces = run_seeded(world, policy, seeds)
            tables.append(route_table(world, policy))
            expected.append((sum(t.reached_goal for t in traces),
                             [float_sum(r.reward for r in t.records) for t in traces]))
            assert rollout(world, tables[-1:], seeds) == expected[-1:]
        for i, j in itertools.permutations(range(len(tables)), 2):
            assert rollout(world, [tables[i], tables[j]], seeds) == [expected[i], expected[j]]

    @pytest.mark.parametrize("max_steps", [4, 5])
    def test_unknown_strategy_on_the_route_fails_before_any_episode(self, tmp_path, capsys, max_steps):
        """A safe corridor of four flat cells, then the dune goal, where the
        policy says WALK: four steps end just before that step, the fifth
        takes it. Either way every entry point refuses the policy when it
        builds the route table, with one code and message, also when every
        step would explore."""
        world = uniform_hazard_world(0.0, width=6, height=1, cells=(("flat",) * 5 + ("dune",),), start=(0, 0),
                                     goal=(5, 0), max_steps=max_steps)
        bad, fast = terrain_policy({"dune": "WALK"}, "FAST"), fixed_policy("FAST")
        seeds = list(range(5))
        calls = [lambda: run_seeded(world, bad, seeds),
                 lambda: run_seeded(world, bad, seeds, explore=1.0),
                 lambda: evaluate_candidate(world, fast, bad, 5, seed=1),
                 lambda: evaluate_candidate(world, bad, fast, 5, seed=1),
                 lambda: rollout(world, [route_table(world, bad)], seeds)]
        for call in calls:
            with pytest.raises(ConsistencyError) as err:
                call()
            assert str(err.value) == "UnknownStrategy: policy chose 'WALK', not a world strategy"
        save_world(world, tmp_path / "world.json")
        save_policy(bad, tmp_path / "bad.policy.json")
        out = tmp_path / "t.csv"
        assert main(["simulate", "--world", str(tmp_path / "world.json"), "--policy", str(tmp_path / "bad.policy.json"),
                     "--episodes", "5", "--seed", "1", "--explore", "1", "--out", str(out)]) == EXIT_SCHEMA
        assert "UnknownStrategy: policy chose 'WALK', not a world strategy" in capsys.readouterr().err
        assert not out.exists()

    def test_a_non_strategy_action_off_the_route_still_runs(self, tmp_path, capsys):
        """The policy is asked only at route cells, so WALK on the dune row
        below the corridor never enters its route table."""
        world = uniform_hazard_world(0.0, width=6, height=2, cells=(("flat",) * 6, ("dune",) * 6), start=(0, 0),
                                     goal=(5, 0), max_steps=5)
        off_route, fast = terrain_policy({"dune": "WALK"}, "FAST"), fixed_policy("FAST")
        seeds = list(range(5))
        assert route_table(world, off_route) == route_table(world, fast)
        off_route_traces, fast_traces = (run_seeded(world, p, seeds, 0.5) for p in (off_route, fast))
        assert trace_values(off_route_traces) == trace_values(fast_traces)
        assert evaluate_candidate(world, fast, off_route, 5, seed=1).delta == 0.0
        save_world(world, tmp_path / "world.json")
        save_policy(off_route, tmp_path / "off.policy.json")
        assert main(["simulate", "--world", str(tmp_path / "world.json"), "--policy", str(tmp_path / "off.policy.json"),
                     "--episodes", "5", "--seed", "1", "--out", str(tmp_path / "t.csv")]) == EXIT_OK
        assert "5/5 reached the goal" in capsys.readouterr().out

    @settings(deadline=None)
    @given(paired_walks())
    def test_paired_walks_match_two_reference_rollouts(self, walk):
        """Two tables walked together give what two one-table walks in turn
        give, float for float and in repr; one table alone gives its own
        walk."""
        world, first, second, seeds = walk
        for tables in ([first], [first, second]):
            in_turn = outcome_of(lambda: [rollout_reference.reference_rollout(world, t, seeds) for t in tables])
            assert outcome_of(lambda: rollout(world, tables, seeds)) == in_turn

    @staticmethod
    def goals_near_the_exact_rate(world, policy, n, seed):
        """rollout's goal count over n derived seeds lies within six binomial
        standard deviations (plus one) of n times the exact goal rate."""
        table = route_table(world, policy)
        p = rollout_reference.exact_goal_rate(table.hazards, world.max_steps)
        [(goals, _)] = rollout(world, [table], derive_seeds(seed, n=n))
        assert abs(goals - n * p) <= 6 * math.sqrt(n * p * (1 - p)) + 1, (goals, n * p)
        return p

    @settings(deadline=None)
    @given(worlds_and_policies(), st.integers(0, 2**32))
    # worlds whose exact rate rounds to 1.0000000000000002, which made the binomial variance negative
    @example((GridWorld(3, 2, ("flat",), (("flat",) * 3,) * 2, (0, 0), (2, 0), ("S0", "S1"),
                        {("flat", "S0"): 0.0, ("flat", "S1"): 0.2730387849845744}, max_steps=31),
              terrain_policy({}, "S1")), 0)
    @example((GridWorld(2, 1, ("flat",), (("flat",) * 2,), (0, 0), (1, 0), ("S0", "S1"),
                        {("flat", "S0"): 0.0, ("flat", "S1"): 0.16368703698503143}, max_steps=21),
              terrain_policy({}, "S1")), 0)
    def test_goal_count_matches_the_exact_goal_rate(self, world_and_policy, seed):
        self.goals_near_the_exact_rate(*world_and_policy, 2000, seed)

    def test_the_initial_policys_exact_goal_rate_on_the_striped_world(self):
        world = striped_world()
        assert round(self.goals_near_the_exact_rate(world, initial_policy(world_schema(world)), 4000, 0), 5) == 0.45105


class TestWorldSchema:
    def test_schema_mirrors_world_vocabulary(self):
        schema = world_schema(striped_world())
        assert schema.names == ("terrain", "strategy", "outcome")
        assert schema.class_attribute == "strategy"
        assert schema.attribute("terrain").scope == "world"
        assert schema.attribute("terrain").domain == ("sand", "rock", "ice")
        assert schema.attribute("strategy").scope == "self"
        assert schema.attribute("outcome").domain == ("success", "failure")

    def test_a_world_builds_its_schema_once(self):
        world = striped_world()
        assert world_schema(world) is world_schema(world)
        assert world_schema(world) == world_schema(striped_world())
        assert world_schema(striped_world("stone")).attribute("terrain").domain == ("sand", "stone", "ice")


class TestWorldSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        world = tiny_world()
        again = world_from_json(world_to_json(world))
        assert again == world
        assert canonical_dumps(world_to_json(again)) == canonical_dumps(world_to_json(world))
        path = tmp_path / "w.world.json"
        save_world(world, path)
        assert load_world(path) == world

    def test_keys_the_world_does_not_read_are_ignored(self):
        world = tiny_world()
        assert world_from_json(dict(world_to_json(world), master_seed=3)) == world
        assert "master_seed" not in world_to_json(world)


MALFORMED_ROWS = [
    ("strategy", "WALK", SchemaError),
    ("outcome", "crashed", SchemaError),
    ("reached_goal", "yes", InputFormatError),
    ("reached_goal", "flipped", InputFormatError),
    ("epoch", "5", InputFormatError),
    ("x", "1.5", InputFormatError),
]


class TestTraceFiles:
    def test_round_trip_preserves_records(self, tmp_path):
        world = striped_world()
        schema = world_schema(world)
        traces = run_episodes(world, fixed_policy("FAST"), 8, master_seed=5, explore=0.5)
        path = tmp_path / "traces.csv"
        save_traces(traces, schema, path)
        assert trace_values(load_traces(path, schema)) == trace_values(traces)

    def test_saved_files_are_byte_stable(self, tmp_path):
        world = striped_world()
        schema = world_schema(world)
        traces = run_episodes(world, fixed_policy("CAREFUL"), 5, master_seed=8)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_traces(traces, schema, a)
        save_traces(load_traces(a, schema), schema, b)
        assert a.read_bytes() == b.read_bytes()

    def test_integer_rewards_write_the_float_reward_trace(self, tmp_path):
        float_world = striped_world()
        int_world = dataclasses.replace(float_world, rewards=Rewards(1, 2, 10))
        schema = world_schema(float_world)
        paths = {}
        for name, world in (("float", float_world), ("int", int_world)):
            paths[name] = tmp_path / f"{name}.csv"
            save_traces(run_episodes(world, fixed_policy("FAST"), 5, master_seed=8), schema, paths[name])
        again = tmp_path / "again.csv"
        save_traces(load_traces(paths["int"], schema), schema, again)
        assert again.read_bytes() == paths["int"].read_bytes() == paths["float"].read_bytes()

    def test_records_missing_a_world_attribute_are_not_written(self, tmp_path):
        world = striped_world()
        base = world_schema(world)
        weather = AttributeDef("weather", "categorical", "world", ("dry", "wet"))
        schema = define_schema((base.attributes[0], weather) + base.attributes[1:], base.class_attribute)
        path = tmp_path / "t.csv"
        with pytest.raises(ConsistencyError) as err:
            save_traces(run_episodes(world, fixed_policy("FAST"), 2, 0), schema, path)
        assert err.value.code == "MissingObservation"
        assert not path.exists()

    @staticmethod
    def row_wise_trace_csv(traces, schema) -> str:
        """The trace file as one csv.writer row per record, cell by cell."""
        out = io.StringIO()
        writer = csv.writer(out)
        world_attrs = [a.name for a in schema.scoped("world")]
        writer.writerow(["episode", "epoch", "x", "y", *world_attrs, "strategy", "outcome", "reward", "reached_goal"])
        for i, trace in enumerate(traces):
            for epoch, rec in enumerate(trace.records):
                writer.writerow([i, epoch, rec.cell[0], rec.cell[1], *(format_value(rec.observed[n]) for n in world_attrs),
                                 rec.strategy, rec.outcome, repr(rec.reward), format_value(trace.reached_goal)])
        return out.getvalue()

    def test_save_traces_matches_a_row_wise_csv_writer_on_simulated_traces(self, tmp_path):
        world = striped_world()
        schema = world_schema(world)
        traces = run_seeded(world, fixed_policy("FAST"), range(300), 0.8)
        path = tmp_path / "t.csv"
        save_traces(traces, schema, path)
        assert path.read_bytes() == self.row_wise_trace_csv(traces, schema).encode("utf-8")

    @given(st.data())
    def test_save_traces_matches_a_row_wise_csv_writer_where_cells_need_quoting(self, data):
        """Values with a comma, a quote or a line break are quoted; a numeric
        world attribute is written as its value's text; shared and fresh
        records alike. Episodes run to two-digit epochs and indices, empty
        ones fall between the others and use up their index, and no
        episode at all writes the header alone."""
        terrains = ("sand, wet", 'say "rock"', "line\nbreak", "plain")
        strategies = ("FA,ST", 'CARE"FUL', "SLOW")
        schema = define_schema((AttributeDef("terrain", "categorical", "world", terrains),
                                AttributeDef("slope", "numeric", "world", (-8.0, 8.0)),
                                AttributeDef("strategy", "categorical", "self", strategies),
                                AttributeDef("outcome", "categorical", "self", (OUTCOME_SUCCESS, OUTCOME_FAILURE))),
                               "strategy")
        record = st.builds(
            DecisionRecord,
            st.tuples(st.integers(0, 99), st.integers(0, 99)),
            st.fixed_dictionaries({"terrain": st.sampled_from(terrains),
                                   "slope": st.one_of(st.integers(-8, 8), st.floats(-8.0, 8.0))}),
            st.sampled_from(strategies), st.sampled_from((OUTCOME_SUCCESS, OUTCOME_FAILURE)),
            st.floats(allow_nan=False, allow_infinity=False))
        pool = data.draw(st.lists(record, min_size=1, max_size=6))
        records = st.one_of(st.just(()), st.lists(st.sampled_from(pool), min_size=1, max_size=25).map(tuple))
        traces = data.draw(st.lists(st.builds(EpisodeTrace, records, st.booleans()), max_size=12))
        if data.draw(st.booleans()):
            traces.append(EpisodeTrace(tuple(dataclasses.replace(r) for r in pool), True))  # fresh equal records
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            save_traces(traces, schema, path)
            assert path.read_bytes() == self.row_wise_trace_csv(traces, schema).encode("utf-8")

    def test_header_is_stable_and_carries_world_attributes(self, tmp_path):
        world = striped_world()
        schema = world_schema(world)
        path = tmp_path / "t.csv"
        save_traces(run_episodes(world, fixed_policy("FAST"), 1, 0), schema, path)
        header = path.read_text().splitlines()[0]
        assert header == "episode,epoch,x,y,terrain,strategy,outcome,reward,reached_goal"

    @pytest.mark.parametrize("column, text, error", MALFORMED_ROWS)
    def test_malformed_rows_are_rejected(self, tmp_path, column, text, error, rock="rock"):
        world = striped_world(rock)
        schema = world_schema(world)
        path = tmp_path / "t.csv"
        traces = run_episodes(world, fixed_policy("FAST"), 2, 0)
        save_traces(traces, schema, path)
        assert trace_values(load_traces(path, schema)) == trace_values(traces)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        cells = rows[2]  # the second row of episode 0
        i = rows[0].index(column)
        cells[i] = {"true": "false", "false": "true"}[cells[i]] if text == "flipped" else text
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        with pytest.raises(error) as err:
            load_traces(path, schema)
        assert err.value.message.startswith(f"{path} line 3: ")

    @pytest.mark.parametrize("column, text, error", MALFORMED_ROWS)
    def test_a_malformed_row_after_multi_line_records_keeps_its_record_number(self, tmp_path, column, text, error):
        """A terrain name with a comma and a line break is quoted and read
        back; the first step enters it, so the bad row starts on a later
        physical line but is reported at its record number."""
        self.test_malformed_rows_are_rejected(tmp_path, column, text, error, rock="ro,\nck")


def reference_episode(world, policy, seed, explore):
    """One run_seeded episode as a plain step loop that asks the policy at every step
    and builds a fresh record for each one."""
    rng, route, at, records = Random(seed), greedy_route(world), 0, []
    last = len(route) - 1
    r = world.rewards
    while at < last and len(records) < world.max_steps:
        terrain = world.terrain_at(*route[at + 1])
        if explore > 0.0 and rng.random() < explore:
            strategy = rng.choice(world.strategies)
        else:
            strategy = policy.decide({"terrain": terrain})
        here = route[at]
        if rng.random() < world.hazard[(terrain, strategy)]:
            outcome, reward = OUTCOME_FAILURE, -(r.step_cost + r.failure_penalty)
        else:
            at += 1
            outcome, reward = OUTCOME_SUCCESS, -r.step_cost + r.goal_reward if at == last else -r.step_cost
        records.append(DecisionRecord(here, {"terrain": terrain}, strategy, outcome, reward))
    return EpisodeTrace(tuple(records), at == last)


def reference_read(path, schema):
    """load_traces without sharing: every row parsed into its own record."""
    world_defs = schema.scoped("world")
    episodes = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rec = DecisionRecord((int(row["x"]), int(row["y"])), {a.name: a.parse(row[a.name]) for a in world_defs},
                                 row["strategy"], row["outcome"], float(row["reward"]))
            episodes.setdefault(int(row["episode"]), ([], row["reached_goal"] == "true"))[0].append(rec)
    return [EpisodeTrace(tuple(recs), reached) for _, (recs, reached) in sorted(episodes.items())]


def assert_equal_records_are_one_object(traces):
    first = {}
    for trace in traces:
        for rec in trace.records:
            key = (rec.cell, tuple(sorted(rec.observed.items())), rec.strategy, rec.outcome, rec.reward)
            assert first.setdefault(key, rec) is rec


class TestSharedRecords:
    POLICIES = (fixed_policy("FAST"), fixed_policy("CAREFUL"), terrain_policy({"sand": "CAREFUL", "ice": "CAREFUL",
                                                                                "dune": "CAREFUL"}, "FAST"))

    @pytest.mark.parametrize("world", sorted(WORLDS))
    @pytest.mark.parametrize("explore", [0.0, 0.3, 1.0])
    def test_run_seeded_equals_a_fresh_record_per_step(self, world, explore):
        world = WORLDS[world]()
        seeds = list(range(60))
        for policy in self.POLICIES:
            traces = run_seeded(world, policy, seeds, explore)
            assert trace_values(traces) == trace_values(reference_episode(world, policy, s, explore) for s in seeds)
            assert_equal_records_are_one_object(traces)

    @settings(deadline=None)
    @given(seeded_runs())
    def test_run_seeded_matches_the_lazy_reference_walk(self, run):
        """The move-table walk gives the reference walk's traces, or its
        error class, code and message, and hands out exactly one record
        object per route step, strategy and outcome."""
        world, policy, seeds, explore = run
        expected = outcome_of(lambda: rollout_reference.reference_run_seeded(world, policy, seeds, explore),
                              trace_values)
        got = outcome_of(lambda: run_seeded(world, policy, seeds, explore), trace_values)
        assert got == expected
        if got[0] == "value":
            one = {}
            for trace in run_seeded(world, policy, seeds, explore):
                for rec in trace.records:
                    assert one.setdefault((rec.cell, rec.strategy, rec.outcome), rec) is rec

    @pytest.mark.parametrize("world", sorted(WORLDS))
    @pytest.mark.parametrize("explore", [0.0, 0.3, 1.0])
    def test_load_traces_equals_a_row_by_row_reader(self, tmp_path, world, explore):
        world = WORLDS[world]()
        schema = world_schema(world)
        path = tmp_path / "t.csv"
        for policy in self.POLICIES:
            traces = run_seeded(world, policy, range(60), explore)
            save_traces(traces, schema, path)
            loaded = load_traces(path, schema)
            assert trace_values(loaded) == trace_values(reference_read(path, schema)) == trace_values(traces)
            assert_equal_records_are_one_object(loaded)

    def test_each_spelling_of_a_value_parses_on_its_own(self, tmp_path):
        """Rows are shared by their text, so 1 and 01, -1.0 and -1, or 0.0
        and -0.0 each read as what their own row says."""
        schema = world_schema(striped_world())
        path = tmp_path / "t.csv"
        path.write_text("episode,epoch,x,y,terrain,strategy,outcome,reward,reached_goal\n"
                        "0,0,1,0,rock,FAST,success,-1.0,false\n"
                        "0,1,01,0,rock,FAST,success,-1,false\n"
                        "0,2,1,0,rock,FAST,success,-1.0,false\n"
                        "0,3,1,0,rock,FAST,success,0.0,false\n"
                        "0,4,1,0,rock,FAST,success,-0.0,false\n")
        traces = load_traces(path, schema)
        assert trace_values(traces) == trace_values(reference_read(path, schema))
        records = traces[0].records
        assert [(r.cell, r.reward) for r in records] == [((1, 0), -1.0)] * 3 + [((1, 0), 0.0)] * 2
        assert all(type(r.cell[0]) is int and type(r.reward) is float for r in records)
        assert records[0] is records[2] and records[1] is not records[0]
        assert [math.copysign(1.0, r.reward) for r in records[3:]] == [1.0, -1.0]
        again = tmp_path / "again.csv"
        save_traces([EpisodeTrace(records, False)], schema, again)
        assert again.read_text().splitlines()[1:] == [f"0,{i},1,0,rock,FAST,success,{reward},false" for i, reward
                                                      in enumerate(["-1.0", "-1.0", "-1.0", "0.0", "-0.0"])]

    def test_save_traces_writes_shared_and_fresh_records_alike(self, tmp_path):
        """Shared records, fresh equal ones, fresh ones a generator builds
        and drops trace by trace, and shared ones with every other step a
        fresh copy write the same bytes."""
        world = striped_world()
        schema = world_schema(world)
        traces = run_seeded(world, fixed_policy("FAST"), range(200), 0.5)

        def fresh(trace, every=1):
            return EpisodeTrace(tuple(fresh_copy(r) if k % every == 0 else r for k, r in enumerate(trace.records)),
                                trace.reached_goal)

        paths = [tmp_path / f"{name}.csv" for name in ("shared", "fresh", "generated", "mixed")]
        save_traces(traces, schema, paths[0])
        save_traces([fresh(t) for t in traces], schema, paths[1])
        save_traces((fresh(t) for t in traces), schema, paths[2])
        save_traces([fresh(t, every=2) for t in traces], schema, paths[3])
        assert len({p.read_bytes() for p in paths}) == 1

    def test_records_compare_and_hash_by_identity(self):
        """A record is its own key, its dict of observations included; an
        equal record built apart is another key."""
        rec = DecisionRecord((0, 0), {"terrain": "rock"}, "FAST", OUTCOME_SUCCESS, -1.0)
        twin = DecisionRecord((0, 0), {"terrain": "rock"}, "FAST", OUTCOME_SUCCESS, -1.0)
        assert rec == rec and rec != twin
        keys = list(dict.fromkeys([rec, twin, rec, twin]))
        assert len(keys) == 2 and keys[0] is rec and keys[1] is twin
        assert trace_values([EpisodeTrace((rec,), True)]) == trace_values([EpisodeTrace((twin,), True)])


TRACE_TEXT = ("episode,epoch,x,y,terrain,strategy,outcome,reward,reached_goal\n"
              "0,0,0,0,rock,FAST,failure,-3.0,true\n"
              "0,1,0,0,rock,FAST,failure,-3.0,true\n"
              "0,2,0,0,rock,FAST,success,-1.0,true\n"
              "1,0,0,0,rock,FAST,failure,-3.0,false\n"
              "1,1,0,0,rock,FAST,failure,-3.0,false\n"
              "1,2,0,0,rock,FAST,failure,-3.0,false\n")


ROW_ERRORS = [
    (3, "epoch", "7", InputFormatError, "episode 0 has epoch 7 where 1 comes next"),
    (3, "epoch", "x", InputFormatError, "invalid literal for int() with base 10: 'x'"),
    (3, "episode", "e", InputFormatError, "invalid literal for int() with base 10: 'e'"),
    (3, "reached_goal", "false", InputFormatError, "reached_goal changes within episode 0"),
    (6, "reached_goal", "true", InputFormatError, "reached_goal changes within episode 1"),
    (6, "reached_goal", "yes", InputFormatError, "reached_goal must be true/false, got 'yes'"),
    (7, "epoch", "1", InputFormatError, "episode 1 has epoch 1 where 2 comes next"),
]


class TestSharedRecordErrors:
    """Sharing skips parsing a repeated x-to-reward text, but never the
    checks on a row's own cells, and a bad text fails where it first
    appears."""

    @pytest.mark.parametrize("line, column, text, error, message", ROW_ERRORS)
    def test_a_repeated_record_still_checks_its_row(self, tmp_path, line, column, text, error, message,
                                                    rock="rock", spelled="rock"):
        schema = world_schema(striped_world(rock))
        lines = TRACE_TEXT.splitlines()
        cells = lines[line - 1].split(",")
        cells[lines[0].split(",").index(column)] = text
        lines[line - 1] = ",".join(cells)
        path = tmp_path / "t.csv"
        path.write_text(("\n".join(lines) + "\n").replace(",rock,", f",{spelled},"))
        with pytest.raises(error) as err:
            load_traces(path, schema)
        assert err.value.message == f"{path} line {line}: {message}"

    @pytest.mark.parametrize("line, column, text, error, message", ROW_ERRORS)
    def test_a_row_after_multi_line_records_keeps_its_record_number(self, tmp_path, line, column, text, error,
                                                                    message):
        """With rock spelled over two lines, every record before the bad one
        moves it down the file."""
        self.test_a_repeated_record_still_checks_its_row(tmp_path, line, column, text, error, message,
                                                         rock="ro,\nck", spelled='"ro,\nck"')

    def test_a_repeated_bad_text_fails_at_its_first_line(self, tmp_path):
        schema = world_schema(striped_world())
        lines = TRACE_TEXT.splitlines()
        for line in (3, 7):
            lines[line - 1] = lines[line - 1].replace("rock", "mud")
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as err:
            load_traces(path, schema)
        assert err.value.message == f"{path} line 3: terrain 'mud' is not in the schema domain"
