"""Seed derivation: one sha256 per label path."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import striped_world, terrain_policy, trace_values
from metamine.policy import initial_policy
from metamine.rover import rollout, route_table, run_seeded
from metamine.seeds import derive_seed, derive_seeds


# the last two: a label path past one 64-byte sha256 block, and labels outside ASCII
@pytest.mark.parametrize("parts", [(), (0,), (7, "baseline"), (2**64 - 1, "cycle", 3, "train"), ("é", -1),
                                   (2**200, "cycle" * 10, 3), ("ночь", "日本", "🚀", 2)])
@pytest.mark.parametrize("n", [0, 1, 12, 300])
def test_derive_seeds_lists_derive_seed_over_the_indices(parts, n):
    assert list(derive_seeds(*parts, n=n)) == [derive_seed(*parts, i) for i in range(n)]


# label parts: any int, negative or past 64 bits, and any text, non-ASCII and "/" included
PARTS = st.lists(st.integers() | st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-1)
                 | st.text(), max_size=5)


@given(PARTS, st.integers(0, 1000))
def test_derive_seeds_equals_derive_seed_on_any_label_path(parts, n):
    assert list(derive_seeds(*parts, n=n)) == [derive_seed(*parts, i) for i in range(n)]


def test_run_seeded_and_rollout_read_their_seeds_once():
    """derive_seeds yields each seed once, so the runners it feeds must
    take their seeds in one pass: an iterator gives what the list gives."""
    world = striped_world()
    start, learned = initial_policy(world.schema), terrain_policy({"sand": "CAREFUL", "ice": "CAREFUL"}, "FAST")
    seeds = list(derive_seeds(1, "train", n=40))
    traces = run_seeded(world, start, seeds, explore=0.5)
    assert len(traces) == 40 and 0 < sum(t.reached_goal for t in traces) < 40
    assert trace_values(run_seeded(world, start, iter(seeds), explore=0.5)) == trace_values(traces)
    tables = [route_table(world, start), route_table(world, learned)]
    outcomes = rollout(world, tables, seeds)
    assert [len(sums) for _, sums in outcomes] == [40, 40] and outcomes[0] != outcomes[1]
    assert rollout(world, tables, iter(seeds)) == outcomes
