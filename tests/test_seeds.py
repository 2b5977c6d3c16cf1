"""Seed derivation: one sha256 per label path."""

import pytest

from metamine.seeds import derive_seed, derive_seeds


@pytest.mark.parametrize("parts", [(), (0,), (7, "baseline"), (2**64 - 1, "cycle", 3, "train"), ("é", -1)])
@pytest.mark.parametrize("n", [0, 1, 12, 300])
def test_derive_seeds_lists_derive_seed_over_the_indices(parts, n):
    assert derive_seeds(*parts, n=n) == [derive_seed(*parts, i) for i in range(n)]
