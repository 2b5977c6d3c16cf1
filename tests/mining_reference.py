"""Mining measures that only the tests ask for, built on the functions the
package runs.

entropy and info_gain go through mining._count_entropy and
mining._partition_gain, the functions tree induction ranks its splits
with. stratified_folds deals instance indices from mining._start_folds,
the start fold per distinct row that cross_validate deals its counts
from, so its fold f holds the rows cross_validate holds out in fold f.
tree_depth is the number of tests on a tree's longest path.
"""

from __future__ import annotations

from collections import Counter

from metamine.mining import _count_entropy, _partition_gain, _start_folds


def entropy(labels):
    """Shannon entropy of a label multiset, in bits. Empty input is 0."""
    return _count_entropy(Counter(labels).values())


def info_gain(dataset, attribute):
    """Information gain of splitting the dataset on one feature attribute."""
    return _partition_gain(dataset.patterns(), [a.name for a in dataset.feature_attributes].index(attribute))


def stratified_folds(dataset, rows, k, seed):
    """Seeded stratified partition into k test folds of indices into rows,
    the dataset's instances in any order.

    Each distinct row's indices go round-robin, in row order, from its
    start fold; fold sizes, class and row counts are within one across
    folds. Fewer than two folds is BadConfig, more folds than rows
    TooFewInstances.
    """
    assert Counter(rows) == dataset.patterns(), "rows must be the dataset's instances"
    cursor = _start_folds(dataset, k, seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for i, row in enumerate(rows):
        folds[cursor[row]].append(i)
        cursor[row] = (cursor[row] + 1) % k
    return folds


def tree_depth(tree):
    return max(len(path) for path, _ in tree.paths())
