"""Tree induction, frequent itemsets, rule derivation, and cross-validation."""

import inspect
import math
import sys
from collections import Counter
from dataclasses import asdict
from itertools import combinations, product
from random import Random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import cat, count_rows, make_dataset, striped_world
from metamine.errors import ConsistencyError, InputFormatError, MiningError
from metamine.introspection import Dataset, featurise
from metamine.jsonio import canonical_dumps, decode
from metamine.knowledge import AttributeDef, float_sum
from metamine.mining import (
    MAX_TREE_DEPTH,
    DecisionTree,
    Leaf,
    MetaModel,
    MiningConfig,
    Split,
    apriori,
    classify,
    cross_validate,
    derive_rules,
    fit_rules_model,
    fit_tree_model,
    induce_tree,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    training_accuracy,
)
from metamine import mining
from metamine.mining import _grow_tree, _hits, _start_folds
from metamine.policy import initial_policy
from metamine.rover import run_seeded, world_schema
from mining_reference import entropy, info_gain, stratified_folds, tree_depth

TOL = 1e-6


def xor_dataset():
    defs = (
        AttributeDef("a", "boolean", "world"),
        AttributeDef("b", "boolean", "world"),
        cat("label", ("+", "-"), scope="self"),
    )
    rows = tuple((p, q, "+" if p != q else "-") for p in (False, True) for q in (False, True))
    return Dataset(defs, "label", count_rows(rows))


def labeled_rows(labels, feature="k"):
    """The instance rows of labeled(labels, feature), in label order."""
    return [(feature, label) for label in labels]


def labeled(labels, feature="k"):
    """Single constant-feature dataset with the given label string."""
    return make_dataset({"c": (feature,)}, ("+", "-"), [{"c": feature, "label": l} for l in labels])


class TestMiningConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_depth=0),
            dict(min_leaf_instances=0),
            dict(min_support=0.0),
            dict(min_support=1.2),
            dict(min_confidence=0.0),
            dict(min_confidence=1.5),
            dict(cv_folds=1),
            dict(seed="x"),
            dict(max_depth=MAX_TREE_DEPTH + 1),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(MiningError):
            MiningConfig(**kwargs)

    def test_json_round_trip(self):
        config = MiningConfig(max_depth=3, min_leaf_instances=2, min_support=0.2,
                              min_confidence=0.7, cv_folds=4, seed=9)
        assert decode(MiningConfig, asdict(config), "mining config") == config

    def test_unknown_field_rejected(self):
        with pytest.raises(InputFormatError) as err:
            decode(MiningConfig, {"max_depth": 2, "pruning": True}, "mining config")
        assert err.value.code == "UnknownField"


class TestEntropy:
    def test_balanced_binary_is_one_bit(self):
        assert entropy(["+", "+", "-", "-"]) == pytest.approx(1.0, abs=TOL)

    def test_three_to_one_split(self):
        assert entropy(["+", "+", "+", "-"]) == pytest.approx(0.811278, abs=TOL)

    def test_pure_and_empty_are_zero(self):
        assert entropy(["+"] * 5) == 0.0
        assert entropy([]) == 0.0

    @given(st.lists(st.sampled_from("abcd"), max_size=40))
    def test_bounds(self, labels):
        h = entropy(labels)
        assert -1e-12 <= h <= math.log2(max(len(set(labels)), 1)) + 1e-9


class TestInfoGain:
    def test_worked_example(self):
        ds = make_dataset({"a": ("x", "y")}, ("+", "-"), [
            {"a": "x", "label": "+"},
            {"a": "x", "label": "-"},
            {"a": "y", "label": "+"},
            {"a": "y", "label": "+"},
        ])
        assert info_gain(ds, "a") == pytest.approx(0.311278, abs=TOL)

    def test_constant_attribute_has_zero_gain(self):
        assert abs(info_gain(labeled("++--"), "c")) <= 1e-12

    def test_perfect_separator_gains_the_whole_entropy(self):
        ds = make_dataset({"a": ("x", "y")}, ("+", "-"), [
            {"a": "x", "label": "+"},
            {"a": "x", "label": "+"},
            {"a": "y", "label": "-"},
        ])
        assert info_gain(ds, "a") == pytest.approx(entropy("++-"), abs=TOL)

    @given(st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from("uv"),
                              st.sampled_from("+-")), min_size=1, max_size=30))
    def test_gain_is_never_negative(self, triples):
        rows = [{"a": a, "b": b, "label": l} for a, b, l in triples]
        ds = make_dataset({"a": ("x", "y"), "b": ("u", "v")}, ("+", "-"), rows)
        assert info_gain(ds, "a") >= -1e-12
        assert info_gain(ds, "b") >= -1e-12


class TestInduceTree:
    def test_pure_partition_is_a_single_leaf(self):
        tree = induce_tree(labeled("+++"), MiningConfig())
        assert isinstance(tree.root, Leaf)
        assert tree.root.label == "+" and tree.root.support == 3 and tree.root.confidence == 1.0
        assert tree_depth(tree) == 0

    def test_perfect_separator_yields_depth_one(self):
        ds = make_dataset({"a": ("x", "y")}, ("+", "-"), [
            {"a": "x", "label": "+"},
            {"a": "y", "label": "-"},
            {"a": "x", "label": "+"},
        ])
        tree = induce_tree(ds, MiningConfig())
        assert tree_depth(tree) == 1 and tree.root.attribute == "a"
        assert classify(tree, {"a": "x"}) == "+" and classify(tree, {"a": "y"}) == "-"

    def test_xor_needs_depth_two_and_gets_it(self):
        tree = induce_tree(xor_dataset(), MiningConfig())
        assert tree_depth(tree) == 2
        assert training_accuracy(tree, xor_dataset()) == 1.0
        assert len(tree.paths()) == 4
        assert tree.split_attributes() == {"a", "b"}

    def test_max_depth_stops_growth(self):
        tree = induce_tree(xor_dataset(), MiningConfig(max_depth=1))
        assert tree_depth(tree) == 1

    def test_small_partitions_become_majority_leaves(self):
        tree = induce_tree(xor_dataset(), MiningConfig(min_leaf_instances=5))
        assert isinstance(tree.root, Leaf)
        assert tree.root.support == 4 and tree.root.confidence == 0.5
        # label tie resolved by class domain order
        assert tree.root.label == "+"

    def test_gain_tie_prefers_the_earlier_attribute(self):
        rows = [
            {"a": "x", "b": "x", "label": "+"},
            {"a": "x", "b": "x", "label": "+"},
            {"a": "y", "b": "y", "label": "-"},
        ]
        ds = make_dataset({"a": ("x", "y"), "b": ("x", "y")}, ("+", "-"), rows)
        tree = induce_tree(ds, MiningConfig())
        assert isinstance(tree.root, Split) and tree.root.attribute == "a"

    def test_every_domain_value_gets_a_child(self):
        ds = make_dataset({"a": ("x", "y", "z")}, ("+", "-"), [
            {"a": "x", "label": "+"},
            {"a": "x", "label": "+"},
            {"a": "y", "label": "-"},
        ])
        tree = induce_tree(ds, MiningConfig())
        assert [v for v, _ in tree.root.children] == ["x", "y", "z"]
        empty = tree.root.child_for("z")
        assert isinstance(empty, Leaf)
        assert empty.support == 0
        assert empty.label == "+"  # parent majority
        assert empty.confidence == pytest.approx(2 / 3)

    def test_empty_dataset_is_an_error(self):
        with pytest.raises(MiningError) as err:
            induce_tree(make_dataset({"a": ("x",)}, ("+", "-"), []), MiningConfig())
        assert err.value.code == "EmptyDataset"

    def test_a_tree_too_deep_to_grow_is_a_mining_error(self):
        # constant features tie at zero gain, so every level splits on the next one
        features = {f"a{i}": ("x", "y") for i in range(150)}
        rows = [dict(dict.fromkeys(features, "x"), label=label) for label in "+-+-"]
        ds = make_dataset(features, ("+", "-"), rows)
        limit = sys.getrecursionlimit()
        # fewer free frames than the tree has levels: the stack overflows while it grows
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            with pytest.raises(MiningError) as err:
                induce_tree(ds, MiningConfig(max_depth=150))
        finally:
            sys.setrecursionlimit(limit)
        assert err.value.code == "TreeTooDeep"

    @given(st.lists(st.tuples(st.sampled_from("xyz"), st.sampled_from("uv"),
                              st.sampled_from("+-")), min_size=1, max_size=40),
           st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5))
    def test_leaf_supports_partition_the_data(self, triples, depth, min_leaf):
        rows = [{"a": a, "b": b, "label": l} for a, b, l in triples]
        ds = make_dataset({"a": ("x", "y", "z"), "b": ("u", "v")}, ("+", "-"), rows)
        tree = induce_tree(ds, MiningConfig(max_depth=depth, min_leaf_instances=min_leaf))
        assert sum(leaf.support for _, leaf in tree.paths()) == len(rows)
        assert tree_depth(tree) <= depth
        for _, leaf in tree.paths():
            assert 0.0 < leaf.confidence <= 1.0

    @given(st.lists(st.tuples(st.sampled_from("xyz"), st.sampled_from("+-")),
                    min_size=1, max_size=40))
    def test_training_accuracy_beats_the_class_prior(self, pairs):
        rows = [{"a": a, "label": l} for a, l in pairs]
        ds = make_dataset({"a": ("x", "y", "z")}, ("+", "-"), rows)
        tree = induce_tree(ds, MiningConfig())
        labels = [label for _, label in pairs]
        prior = max(labels.count("+"), labels.count("-")) / len(rows)
        assert training_accuracy(tree, ds) >= prior - 1e-12


class TestClassify:
    def test_accepts_plain_mappings(self):
        tree = induce_tree(xor_dataset(), MiningConfig())
        assert classify(tree, {"a": True, "b": False}) == "+"

    def test_missing_tested_attribute_is_an_error(self):
        tree = induce_tree(xor_dataset(), MiningConfig())
        with pytest.raises(MiningError) as err:
            classify(tree, {"a": True})
        assert err.value.code == "MissingAttribute"

    def test_unseen_value_falls_back_to_node_majority(self):
        ds = make_dataset({"a": ("x", "y")}, ("+", "-"), [
            {"a": "x", "label": "+"},
            {"a": "x", "label": "+"},
            {"a": "y", "label": "-"},
        ])
        tree = induce_tree(ds, MiningConfig())
        assert classify(tree, {"a": "weird"}) == "+"


def brute_force_frequent(transactions, min_support):
    """Oracle: count every non-empty itemset over the observed alphabet."""
    tx = [frozenset(t) for t in transactions]
    items = sorted({i for t in tx for i in t})
    out = {}
    for size in range(1, len(items) + 1):
        for combo in combinations(items, size):
            s = frozenset(combo)
            count = sum(1 for t in tx if s <= t)
            if count / len(tx) >= min_support:
                out[s] = count
    return out


def counted(transactions):
    """The transactions as apriori takes them: each distinct one with its count."""
    return Counter(frozenset(t) for t in transactions)


class TestApriori:
    def test_worked_example(self):
        frequent = apriori(counted([{"a", "b"}, {"a", "c"}, {"a", "b", "c"}]), 2 / 3)
        assert frequent == {
            frozenset({"a"}): 3,
            frozenset({"b"}): 2,
            frozenset({"c"}): 2,
            frozenset({"a", "b"}): 2,
            frozenset({"a", "c"}): 2,
        }

    def test_nothing_frequent_gives_empty_result(self):
        assert apriori(counted([{"a"}, {"b"}]), 1.0) == {}

    def test_single_transaction(self):
        assert apriori(counted([{"a", "b"}]), 1.0) == {
            frozenset({"a"}): 1,
            frozenset({"b"}): 1,
            frozenset({"a", "b"}): 1,
        }

    def test_empty_transaction_list_is_an_error(self):
        with pytest.raises(MiningError):
            apriori(Counter(), 0.5)

    @pytest.mark.parametrize("support", [0.0, -0.2, 1.01])
    def test_support_threshold_must_be_in_unit_interval(self, support):
        with pytest.raises(MiningError):
            apriori(counted([{"a"}]), support)

    @given(st.lists(st.sets(st.sampled_from("abcde")), min_size=1, max_size=10),
           st.floats(min_value=0.05, max_value=1.0))
    def test_matches_brute_force(self, transactions, min_support):
        assert apriori(counted(transactions), min_support) == brute_force_frequent(transactions, min_support)

    @given(st.lists(st.sets(st.sampled_from("abcd")), min_size=1, max_size=10))
    def test_anti_monotonicity(self, transactions):
        frequent = apriori(counted(transactions), 0.3)
        for itemset in frequent:
            for item in itemset:
                if len(itemset) > 1:
                    subset = itemset - {item}
                    assert subset in frequent
                    assert frequent[subset] >= frequent[itemset]


class TestDeriveRules:
    def test_worked_example_confidences(self):
        tx = [{"a", "b"}, {"a", "c"}, {"a", "b", "c"}]
        frequent = apriori(counted(tx), 2 / 3)
        rules = derive_rules(frequent, 0.6, len(tx))
        by_text = {r.text: r for r in rules}
        assert by_text["b => a"].confidence == pytest.approx(1.0)
        assert by_text["a => b"].confidence == pytest.approx(2 / 3)
        assert by_text["b => a"].support == pytest.approx(2 / 3)

    def test_confidence_threshold_filters(self):
        tx = [{"a", "b"}, {"a", "c"}, {"a", "b", "c"}]
        rules = derive_rules(apriori(counted(tx), 2 / 3), 1.0, len(tx))
        texts = [r.text for r in rules]
        assert "b => a" in texts and "c => a" in texts
        assert "a => b" not in texts

    def test_rules_come_sorted(self):
        tx = [{"a", "b"}, {"a", "c"}, {"a", "b", "c"}, {"b"}]
        rules = derive_rules(apriori(counted(tx), 0.25), 0.3, len(tx))
        keys = [(-r.confidence, -r.support, r.text) for r in rules]
        assert keys == sorted(keys)

    def test_singletons_yield_no_rules(self):
        assert derive_rules({frozenset({"a"}): 3}, 0.1, 3) == ()

    def test_non_closed_input_is_an_error(self):
        with pytest.raises(ConsistencyError) as err:
            derive_rules({frozenset({"a", "b"}): 2}, 0.1, 3)
        assert err.value.code == "MissingSubset"

    @pytest.mark.parametrize("confidence, n, code", [
        (0.0, 3, "BadConfig"),
        (1.5, 3, "BadConfig"),
        (math.nan, 3, "BadConfig"),
        (0.5, 0, "BadCount"),
    ])
    def test_bad_threshold_or_transaction_count_is_an_error(self, confidence, n, code):
        frequent = {frozenset({"a"}): 2, frozenset({"b"}): 2, frozenset({"a", "b"}): 2}
        with pytest.raises((MiningError, ConsistencyError)) as err:
            derive_rules(frequent, confidence, n)
        assert err.value.code == code

    @given(st.lists(st.sets(st.sampled_from("abcd")), min_size=1, max_size=12))
    def test_confidence_and_support_identities(self, transactions):
        n = len(transactions)
        frequent = apriori(counted(transactions), 0.05)
        counts = {s: sum(1 for t in transactions if s <= t)
                  for s in brute_force_frequent(transactions, 0.0001)}
        for rule in derive_rules(frequent, 0.0001, n):
            whole = rule.antecedent | {rule.consequent}
            assert rule.confidence == pytest.approx(counts[whole] / counts[rule.antecedent], abs=1e-12)
            assert rule.support == pytest.approx(counts[whole] / n, abs=1e-12)
            assert rule.antecedent  # never empty


class TestStratifiedFolds:
    def test_leave_one_out_partition(self):
        folds = stratified_folds(labeled("++--"), labeled_rows("++--"), 4, seed=7)
        assert sorted(i for f in folds for i in f) == [0, 1, 2, 3]
        assert all(len(f) == 1 for f in folds)

    def test_same_seed_same_folds(self):
        ds, rows = labeled("+++---++"), labeled_rows("+++---++")
        assert stratified_folds(ds, rows, 3, seed=5) == stratified_folds(ds, rows, 3, seed=5)

    def test_more_folds_than_rows_is_an_error(self):
        with pytest.raises(MiningError) as err:
            stratified_folds(labeled("++"), labeled_rows("++"), 3, seed=0)
        assert err.value.code == "TooFewInstances"

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_fewer_than_two_folds_is_an_error(self, k):
        with pytest.raises(MiningError) as err:
            stratified_folds(labeled("++--"), labeled_rows("++--"), k, seed=0)
        assert err.value.code == "BadConfig"

    @given(st.lists(st.sampled_from("+-"), min_size=2, max_size=40),
           st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=99))
    def test_partition_and_class_balance(self, labels, k, seed):
        if k > len(labels):
            return
        rows = labeled_rows(labels)
        folds = stratified_folds(labeled("".join(labels)), rows, k, seed)
        flat = sorted(i for f in folds for i in f)
        assert flat == list(range(len(labels)))
        assert all(f for f in folds)
        for value in "+-":
            counts = [sum(1 for i in f if rows[i][-1] == value) for f in folds]
            assert max(counts) - min(counts) <= 1

    @given(st.data())
    def test_deal_matches_a_cursor_reference(self, data):
        """One cursor, started by one Random(seed).randrange(k) draw, walks
        the classes in domain order, each class's distinct rows in
        first-occurrence order and each row's indices in row order,
        dealing one index per fold."""
        domain = data.draw(st.permutations("abc"[: data.draw(st.integers(2, 3))]))
        rows = data.draw(st.lists(st.tuples(st.sampled_from("xyz"), st.sampled_from(domain)), min_size=2, max_size=40))
        k, seed = data.draw(st.integers(2, 6)), data.draw(st.integers(0, 99))
        assume(k <= len(rows))
        ds = make_dataset({"c": ("x", "y", "z")}, tuple(domain), [{"c": c, "label": l} for c, l in rows])
        folds: list[list[int]] = [[] for _ in range(k)]
        cursor = Random(seed).randrange(k)
        for value in domain:
            for distinct in dict.fromkeys(row for row in rows if row[-1] == value):
                for i, row in enumerate(rows):
                    if row == distinct:
                        folds[cursor % k].append(i)
                        cursor += 1
        assert stratified_folds(ds, rows, k, seed) == [sorted(f) for f in folds]

    @given(st.lists(st.integers(1, 400), min_size=1, max_size=6), st.integers(2, 10),
           st.integers(0, 99), st.randoms(use_true_random=False))
    def test_each_distinct_row_is_balanced_across_folds(self, counts, k, seed, rng):
        """Per distinct row, fold counts differ by at most one, also for
        counts far above k."""
        values = ("x", "y", "z")
        distinct = [(values[j % 3], "+-"[j // 3]) for j in range(len(counts))]
        rows = [row for row, count in zip(distinct, counts) for _ in range(count)]
        assume(k <= len(rows))
        rng.shuffle(rows)
        ds = make_dataset({"c": values}, ("+", "-"), [{"c": c, "label": l} for c, l in rows])
        folds = stratified_folds(ds, rows, k, seed)
        for row in distinct:
            per_fold = [sum(1 for i in fold if rows[i] == row) for fold in folds]
            assert max(per_fold) - min(per_fold) <= 1


class TestCrossValidate:
    def test_leave_one_out_majority_paradox(self):
        assert cross_validate(labeled("++--"), MiningConfig(cv_folds=4, seed=7)) == (0.0, 0.0, 0.0, 0.0)

    def test_separable_data_scores_perfectly(self):
        rows = [{"a": "x", "label": "+"} for _ in range(6)] + [{"a": "y", "label": "-"} for _ in range(6)]
        ds = make_dataset({"a": ("x", "y")}, ("+", "-"), rows)
        assert cross_validate(ds, MiningConfig(cv_folds=3, seed=1)) == (1.0, 1.0, 1.0)

    def test_single_class_is_an_error(self):
        with pytest.raises(MiningError) as err:
            cross_validate(labeled("+++"), MiningConfig(cv_folds=2, seed=0))
        assert err.value.code == "FewerThanTwoClasses"

    def test_too_few_rows_is_an_error(self):
        with pytest.raises(MiningError) as err:
            cross_validate(labeled("+-"), MiningConfig(cv_folds=5, seed=0))
        assert err.value.code == "TooFewInstances"

    def test_mean_adds_the_folds_left_to_right(self):
        """cv_mean is float_sum over the folds, the same bytes on every
        Python: sum() compensates its rounding since 3.12 and would give 0.1
        here."""
        assert float_sum((0.1,) * 10) / 10 == 0.09999999999999999

    @given(st.data())
    def test_counted_folds_match_a_row_wise_reference(self, data):
        """Each fold's score equals growing a tree on a fresh dataset of the
        fold's training rows and classifying every held-out row."""
        domains = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        defs = tuple(cat(f"f{j}", tuple(f"v{i}" for i in range(d))) for j, d in enumerate(domains))
        defs += (cat("label", ("a", "b", "c")[: data.draw(st.integers(2, 3))], scope="self"),)
        rows = tuple(data.draw(st.lists(st.tuples(*(st.sampled_from(a.values()) for a in defs)),
                                        min_size=5, max_size=40)))
        config = MiningConfig(max_depth=data.draw(st.integers(1, 4)), min_leaf_instances=data.draw(st.integers(1, 4)),
                              cv_folds=data.draw(st.integers(2, 5)), seed=data.draw(st.integers(0, 99)))
        ds = Dataset(defs, "label", count_rows(rows))
        assume(config.cv_folds <= len(ds) and len({row[-1] for row in rows}) >= 2)
        names = [a.name for a in defs]
        expected = []
        for fold in stratified_folds(ds, rows, config.cv_folds, config.seed):
            train = Dataset(defs, "label", count_rows(row for i, row in enumerate(rows) if i not in fold))
            tree = induce_tree(train, config)
            expected.append(sum(classify(tree, dict(zip(names, rows[i]))) == rows[i][-1] for i in fold) / len(fold))
        assert cross_validate(ds, config) == tuple(expected)


class TestCountedFolds:
    """cross_validate deals counts, the reference stratified_folds deals
    indices of the instance rows, both from _start_folds; the folds and
    scores are the same either way."""

    @pytest.fixture(scope="class")
    def loop_dataset(self):
        """A loop-shaped dataset and its instance rows, each decision of
        the traces projected in trace order."""
        world = striped_world()
        schema = world_schema(world)
        traces = run_seeded(world, initial_policy(schema), range(60), 0.8)
        ds = featurise(traces, schema, "outcome-as-class", 4)
        names = [a.name for a in ds.attributes]
        rows = [tuple(rec.outcome if n == "outcome" else rec.strategy if n == schema.class_attribute
                      else rec.observed[n] for n in names) for trace in traces for rec in trace.records]
        return ds, rows

    @pytest.mark.parametrize("k, seed", [(2, 0), (3, 7), (5, 0), (5, 1), (10, 42)])
    def test_fold_multisets_and_scores_match_the_index_folds(self, loop_dataset, monkeypatch, k, seed):
        ds, rows = loop_dataset
        folds = stratified_folds(ds, rows, k, seed)
        for row, fold in _start_folds(ds, k, seed).items():
            assert rows.index(row) in folds[fold]
        held_out = []

        def hits(tree, dataset, test):
            held_out.append(Counter(test))
            return _hits(tree, dataset, test)

        monkeypatch.setattr(mining, "_hits", hits)
        config = MiningConfig(max_depth=4, min_leaf_instances=5, cv_folds=k, seed=seed)
        scores = cross_validate(ds, config)
        assert held_out == [Counter(rows[i] for i in fold) for fold in folds]
        total = ds.patterns()
        expected = []
        for fold in folds:
            test = Counter(rows[i] for i in fold)
            expected.append(_hits(_grow_tree(ds, total - test, config), ds, test) / len(fold))
        assert scores == tuple(expected)


class TestModels:
    def strategy_dataset(self):
        rows = [("sand", "CAREFUL")] * 8 + [("rock", "FAST")] * 8 + [("sand", "FAST")] * 2
        defs = (cat("terrain", ("sand", "rock")), cat("strategy", ("FAST", "CAREFUL"), scope="self"))
        return Dataset(defs, "strategy", count_rows(rows))

    def test_tree_model_evaluation_record(self):
        model_config = MiningConfig(cv_folds=3, seed=2)
        model = fit_tree_model(self.strategy_dataset(), model_config)
        assert model.kind == "tree" and model.label_attribute == "strategy"
        assert model.scope == "mixed"  # world feature + self class
        assert model.evaluation["training_size"] == 18
        assert model.evaluation["training_accuracy"] == pytest.approx(16 / 18)
        per_fold = cross_validate(self.strategy_dataset(), model_config)
        assert model.evaluation["cv_mean"] == float_sum(per_fold) / len(per_fold)
        assert set(model.evaluation) == {"training_size", "config", "cv_mean", "training_accuracy"}

    def test_tree_model_skips_cv_when_data_cannot_support_it(self):
        ds = labeled("+++")
        model = fit_tree_model(ds, MiningConfig(cv_folds=2, seed=0))
        assert model.evaluation["cv_mean"] is None
        assert set(model.evaluation) == {"training_size", "config", "cv_mean", "training_accuracy"}

    def test_tree_model_on_world_attributes_has_world_scope(self):
        defs = (cat("row", ("top", "bottom")), cat("terrain", ("sand", "rock")))
        ds = Dataset(defs, "terrain", count_rows((("top", "sand"), ("bottom", "rock")) * 3))
        model = fit_tree_model(ds, MiningConfig(cv_folds=2, seed=0))
        assert model.tree.split_attributes() == {"row"}
        assert model.scope == "world"

    def test_rules_model_counts_and_scope(self):
        model = fit_rules_model(self.strategy_dataset(), MiningConfig(min_support=0.2, min_confidence=0.6))
        assert model.kind == "rules"
        assert model.evaluation["n_frequent"] == len(model.frequent)
        assert model.evaluation["n_rules"] == len(model.rules)
        assert model.evaluation["training_size"] == 18
        assert set(model.evaluation) == {"training_size", "config", "cv_mean", "n_frequent", "n_rules"}
        assert "n_transactions" not in model_to_json(model)
        assert model.scope == "mixed"
        texts = [r.text for r in model.rules]
        assert "terrain=rock => strategy=FAST" in texts

    def test_rules_model_without_rules_takes_the_class_scope(self):
        model = fit_rules_model(self.strategy_dataset(), MiningConfig(min_support=1.0))
        assert model.rules == ()
        assert model.scope == "self"  # the class alone, not the world-scoped terrain

    def test_model_files_round_trip_byte_identically(self, tmp_path):
        config = MiningConfig(cv_folds=3, seed=2, min_support=0.2, min_confidence=0.6)
        for model in (fit_tree_model(self.strategy_dataset(), config),
                      fit_rules_model(self.strategy_dataset(), config)):
            path = tmp_path / f"{model.kind}.model.json"
            save_model(model, path)
            loaded = load_model(path)
            assert canonical_dumps(model_to_json(loaded)) == canonical_dumps(model_to_json(model))
            again = tmp_path / f"{model.kind}.again.json"
            save_model(loaded, again)
            assert again.read_bytes() == path.read_bytes()

    def test_a_model_carries_the_bin_edges_of_the_binned_attributes_it_uses(self, tmp_path):
        defs = (cat("slope", ("bin_0", "bin_1")), cat("wind", ("bin_0", "bin_1")),
                cat("strategy", ("FAST", "CAREFUL"), scope="self"))
        rows = [("bin_0", "bin_0", "FAST")] * 4 + [("bin_1", "bin_0", "CAREFUL")] * 4
        ds = Dataset(defs, "strategy", count_rows(rows), {"slope": (2.5,), "wind": ()})
        config = MiningConfig(cv_folds=2, seed=0, min_support=0.4, min_confidence=0.9)
        tree, rules = fit_tree_model(ds, config), fit_rules_model(ds, config)
        assert tree.bin_edges == {"slope": (2.5,)}
        assert rules.bin_edges == {"slope": (2.5,), "wind": ()}
        for model in (tree, rules):
            assert model_to_json(model)["bin_edges"] == {name: list(e) for name, e in model.bin_edges.items()}
            save_model(model, tmp_path / "m.json")
            assert load_model(tmp_path / "m.json") == model
        assert "bin_edges" not in model_to_json(fit_tree_model(self.strategy_dataset(), config))

    def test_keys_the_reader_does_not_use_are_ignored(self):
        config = MiningConfig(cv_folds=3, seed=2, min_support=0.2, min_confidence=0.6)
        rules = fit_rules_model(self.strategy_dataset(), config)
        assert model_from_json(dict(model_to_json(rules), n_transactions=18)) == rules
        tree = fit_tree_model(self.strategy_dataset(), config)
        older = model_to_json(tree)
        older["evaluation"] = dict(older["evaluation"], cv_per_fold=[0.5, 0.5, 0.5])
        assert model_from_json(older).tree == tree.tree

    def test_reloaded_tree_classifies_identically(self, tmp_path):
        ds = xor_dataset()
        model = fit_tree_model(ds, MiningConfig(cv_folds=2, seed=0))
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        for a, b in product((False, True), repeat=2):
            assert classify(loaded.tree, {"a": a, "b": b}) == classify(model.tree, {"a": a, "b": b})

    def test_model_json_rejects_garbage(self):
        with pytest.raises(InputFormatError):
            model_from_json({"kind": "net"})
        # with every other field present, the kind itself is refused
        with pytest.raises(InputFormatError) as err:
            model_from_json({"kind": "net", "label_attribute": "strategy", "scope": "self", "evaluation": {}})
        assert "unknown model kind 'net'" in err.value.message

    def test_a_tree_nested_deeper_than_the_depth_cap_is_an_input_error(self):
        node = {"type": "leaf", "label": "+", "support": 1, "confidence": 1.0}
        for depth in range(MAX_TREE_DEPTH + 1):
            node = {"type": "split", "attribute": f"a{depth}", "majority_label": "+", "children": [["x", node]]}
        obj = {"kind": "tree", "label_attribute": "label", "scope": "world", "evaluation": {},
               "tree": {"class_attribute": "label", "class_values": ["+", "-"], "root": node}}
        with pytest.raises(InputFormatError) as err:
            model_from_json(obj)
        assert f"deeper than {MAX_TREE_DEPTH} levels" in err.value.message
        obj["tree"]["root"] = node["children"][0][1]  # exactly MAX_TREE_DEPTH splits deep
        assert tree_depth(model_from_json(obj).tree) == MAX_TREE_DEPTH

    def test_a_tree_too_deep_to_write_is_a_mining_error(self, tmp_path):
        node = Leaf("+", 1, 1.0)
        for depth in range(150):
            node = Split(f"a{depth}", (("x", node),), "+")
        model = MetaModel("tree", "label", "world", {}, tree=DecisionTree("label", ("+", "-"), node))
        limit = sys.getrecursionlimit()
        # fewer free frames than the tree has levels: the stack overflows while it is written
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            with pytest.raises(MiningError) as err:
                save_model(model, tmp_path / "m.json")
        finally:
            sys.setrecursionlimit(limit)
        assert err.value.code == "TreeTooDeep"
