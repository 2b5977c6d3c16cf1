"""Seed derivation: one sha256 per label path."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metamine.seeds import derive_seed, derive_seeds


# the last two: a label path past one 64-byte sha256 block, and labels outside ASCII
@pytest.mark.parametrize("parts", [(), (0,), (7, "baseline"), (2**64 - 1, "cycle", 3, "train"), ("é", -1),
                                   (2**200, "cycle" * 10, 3), ("ночь", "日本", "🚀", 2)])
@pytest.mark.parametrize("n", [0, 1, 12, 300])
def test_derive_seeds_lists_derive_seed_over_the_indices(parts, n):
    assert derive_seeds(*parts, n=n) == [derive_seed(*parts, i) for i in range(n)]


# label parts: any int, negative or past 64 bits, and any text, non-ASCII and "/" included
PARTS = st.lists(st.integers() | st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-1)
                 | st.text(), max_size=5)


@given(PARTS, st.integers(0, 1000))
def test_derive_seeds_equals_derive_seed_on_any_label_path(parts, n):
    assert derive_seeds(*parts, n=n) == [derive_seed(*parts, i) for i in range(n)]
