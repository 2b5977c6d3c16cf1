"""The simulation loops as they were before their fast paths, kept as
test-only references.

reference_rollout is the record-free evaluation walk before it learned to
walk two route tables in lockstep: one table, and a fresh generator for
each episode seed. The differential tests hold rover.rollout to it: two
tables walked together give what two of these walks in turn give, float
for float.

reference_run_seeded is the traced walk before it learned its per-step
move table: a fresh generator per seed, Random.choice for an explored
strategy, and a record built on the first step that needs it. The
differential tests hold rover.run_seeded to it: the same traces, one
record object per route step, strategy and outcome, or the same error.
"""

from __future__ import annotations

from random import Random

from metamine.rover import (
    OUTCOME_FAILURE,
    OUTCOME_SUCCESS,
    TERRAIN_ATTR,
    DecisionRecord,
    EpisodeTrace,
    _step_rewards,
    route_table,
)


def reference_rollout(world, table, seeds):
    """The goal count and per-episode reward sums of one table's episodes."""
    hazards = table.hazards
    last = len(hazards)
    slip, move, arrive = _step_rewards(world.rewards)
    max_steps = world.max_steps
    goals = 0
    sums = []
    for seed in seeds:
        draw = Random(seed).random
        at = steps = 0
        total = 0.0
        while at < last and steps < max_steps:
            steps += 1
            if draw() < hazards[at]:
                total += slip
            else:
                at += 1
                total += arrive if at == last else move
        if at == last:
            goals += 1
        sums.append(total)
    return goals, sums


def reference_run_seeded(world, policy, seeds, explore=0.0):
    """One traced episode per seed, each record built once per (route step,
    strategy, outcome) and shared from then on."""
    table = route_table(world, policy)
    route, terrains, actions, hazards = table.route, table.terrains, table.actions, table.hazards
    last = len(terrains)
    slip, move, arrive = _step_rewards(world.rewards)
    shared = {}
    traces = []
    for seed in seeds:
        rng = Random(seed)
        at = 0
        records = []
        while at < last and len(records) < world.max_steps:
            step, terrain = at, terrains[at]
            if explore > 0.0 and rng.random() < explore:
                strategy = rng.choice(world.strategies)
                hazard = world.hazard[(terrain, strategy)]
            else:
                strategy, hazard = actions[at], hazards[at]
            if rng.random() < hazard:
                outcome, reward = OUTCOME_FAILURE, slip
            else:
                at += 1
                outcome, reward = OUTCOME_SUCCESS, arrive if at == last else move
            rec = shared.get((step, strategy, outcome))
            if rec is None:
                rec = shared[step, strategy, outcome] = DecisionRecord(
                    route[step], {TERRAIN_ATTR: terrain}, strategy, outcome, reward)
            records.append(rec)
        traces.append(EpisodeTrace(tuple(records), at == last))
    return traces


def exact_goal_rate(hazards, max_steps):
    """The probability that an episode on a route table with these hazards
    reaches the goal within max_steps steps: a forward pass over (route
    step, steps used), where step i advances with probability 1 - h_i.
    Its terms are never negative, but rounding can carry their sum a few
    ulps past 1 (hazards 0.2730387849845744 on two steps, in 31 steps, give
    1.0000000000000002), so the result is capped at 1."""
    on = [1.0] + [0.0] * len(hazards)  # on[i]: probability of standing on route step i
    for _ in range(max_steps):
        nxt = [0.0] * len(hazards) + [on[-1]]
        for i, h in enumerate(hazards):
            nxt[i] += on[i] * h
            nxt[i + 1] += on[i] * (1.0 - h)
        on = nxt
    return min(on[-1], 1.0)
