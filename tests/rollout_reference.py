"""The record-free evaluation walk as it was before it learned to walk two
route tables in lockstep: one table, and a fresh generator for each
episode seed.

The differential tests hold rover.rollout to it: two tables walked
together give what two of these walks in turn give, float for float, or
raise the error that the first of them to fail raises.
"""

from __future__ import annotations

from random import Random

from metamine.rover import _step_rewards, _unknown_strategy


def reference_rollout(world, table, seeds):
    """The goal count and per-episode reward sums of one table's episodes."""
    hazards = table.hazards
    last = len(hazards)
    bad = hazards.index(None) if None in hazards else last
    slip, move, arrive = _step_rewards(world.rewards)
    max_steps = world.max_steps
    goals = 0
    sums = []
    for seed in seeds:
        draw = Random(seed).random
        at = steps = 0
        total = 0.0
        while at < bad and steps < max_steps:
            steps += 1
            if draw() < hazards[at]:
                total += slip
            else:
                at += 1
                total += arrive if at == last else move
        if at == last:
            goals += 1
        elif at == bad and steps < max_steps:
            raise _unknown_strategy(table.actions[bad])
        sums.append(total)
    return goals, sums
