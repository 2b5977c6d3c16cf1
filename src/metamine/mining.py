"""Symbolic learners over featurised datasets.

Two model families, both transparent enough to compile into rules:
entropy/information-gain decision trees (multiway splits over finite
domains, no pruning) and level-wise apriori frequent itemsets with
association-rule derivation. Evaluation is distribution-balanced
stratified k-fold cross-validation from a seeded start fold. Every
tie-break (gain ties, label ties, rule order, the fold deal) is fixed
and documented so mined artifacts are byte-reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import combinations
from pathlib import Path
from random import Random
from typing import Any, Collection, Iterable, Mapping, Union

from .errors import ConsistencyError, InputFormatError, MiningError
from .introspection import Dataset
from .jsonio import ATOM, expect_field, expect_object, expect_pairs, read_json, write_json
from .knowledge import float_sum, format_value, is_int, is_number


# The deepest tree a config may ask for: a tree this deep writes as model
# JSON and reads back on every supported Python (3.10's to 3.12's indenting
# JSON writer recurses in Python and fails a little beyond 325 levels).
MAX_TREE_DEPTH = 256


@dataclass(frozen=True)
class MiningConfig:
    max_depth: int = 6
    min_leaf_instances: int = 1
    min_support: float = 0.1
    min_confidence: float = 0.6
    cv_folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if not is_int(self.max_depth) or not 1 <= self.max_depth <= MAX_TREE_DEPTH:
            raise MiningError("BadConfig", f"max_depth must be in [1, {MAX_TREE_DEPTH}], got {self.max_depth!r}")
        if not is_int(self.min_leaf_instances) or self.min_leaf_instances < 1:
            raise MiningError("BadConfig", f"min_leaf_instances must be >= 1, got {self.min_leaf_instances!r}")
        if not is_number(self.min_support) or not 0.0 < self.min_support <= 1.0:
            raise MiningError("BadConfig", f"min_support must be in (0, 1], got {self.min_support!r}")
        if not is_number(self.min_confidence) or not 0.0 < self.min_confidence <= 1.0:
            raise MiningError("BadConfig", f"min_confidence must be in (0, 1], got {self.min_confidence!r}")
        if not is_int(self.cv_folds) or self.cv_folds < 2:
            raise MiningError("BadConfig", f"cv_folds must be >= 2, got {self.cv_folds!r}")
        if not is_int(self.seed):
            raise MiningError("BadConfig", f"seed must be an integer, got {self.seed!r}")


def _count_entropy(counts: Collection[int]) -> float:
    """Shannon entropy, in bits, of a multiset given by its counts; 0 when empty."""
    total = sum(counts)
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        p = c / total
        h -= p * math.log2(p)
    return h


def _partition_gain(patterns: Mapping[tuple, int], column: int) -> float:
    """Information gain of splitting counted rows (class last) on one column."""
    classes: Counter = Counter()
    groups: dict[Any, Counter] = {}
    for row, count in patterns.items():
        classes[row[-1]] += count
        groups.setdefault(row[column], Counter())[row[-1]] += count
    n = sum(classes.values())
    remainder = float_sum(sum(g.values()) / n * _count_entropy(g.values()) for g in groups.values())
    return _count_entropy(classes.values()) - remainder


@dataclass(frozen=True)
class Leaf:
    """label with its training support and majority fraction (confidence)."""

    label: Any
    support: int
    confidence: float


@dataclass(frozen=True)
class Split:
    """Multiway test on one attribute; one child per domain value."""

    attribute: str
    children: tuple[tuple[Any, "Node"], ...]
    majority_label: Any

    def child_for(self, value: Any) -> "Node | None":
        for v, child in self.children:
            if v == value:
                return child
        return None


Node = Union[Leaf, Split]


@dataclass(frozen=True)
class DecisionTree:
    class_attribute: str
    class_values: tuple
    root: Node

    def paths(self) -> list[tuple[tuple[tuple[str, Any], ...], Leaf]]:
        """Each leaf with the (attribute, value) tests on its path, depth first."""
        out: list[tuple[tuple[tuple[str, Any], ...], Leaf]] = []
        stack: list[tuple[tuple[tuple[str, Any], ...], Node]] = [((), self.root)]
        while stack:
            path, node = stack.pop()
            if isinstance(node, Leaf):
                out.append((path, node))
            else:
                stack.extend((path + ((node.attribute, value),), child) for value, child in reversed(node.children))
        return out

    def split_attributes(self) -> set[str]:
        return {attribute for path, _ in self.paths() for attribute, _ in path}


def induce_tree(dataset: Dataset, config: MiningConfig) -> DecisionTree:
    """Greedy recursive induction on the highest-gain attribute.

    A node becomes a majority leaf when it is pure, at max_depth, out of
    attributes, or holds fewer than min_leaf_instances rows. Gain ties go
    to the earlier dataset attribute; label ties to the earlier class
    domain value. Every domain value of a split attribute gets a child;
    values unseen in the partition get a support-0 leaf inheriting the
    node's majority label and fraction.
    """
    return _grow_tree(dataset, dataset.patterns(), config)


def _grow_tree(dataset: Dataset, patterns: Mapping[tuple, int], config: MiningConfig) -> DecisionTree:
    """induce_tree on a non-empty multiset of the dataset's own rows,
    given as distinct rows with their counts."""
    class_values = dataset.class_def.values()

    def build(patterns: Mapping[tuple, int], remaining: tuple[int, ...], depth: int) -> Node:
        classes: Counter = Counter()
        for row, count in patterns.items():
            classes[row[-1]] += count
        n = sum(classes.values())
        best = max(classes.values())
        label = next(v for v in class_values if classes[v] == best)
        fraction = best / n
        if fraction == 1.0 or depth >= config.max_depth or not remaining or n < config.min_leaf_instances:
            return Leaf(label, n, fraction)
        best_column = None
        best_gain = -math.inf
        for column in remaining:
            g = _partition_gain(patterns, column)
            if g > best_gain + 1e-12:
                best_gain = g
                best_column = column
        assert best_column is not None
        attr = dataset.attributes[best_column]
        rest = tuple(c for c in remaining if c != best_column)
        children = []
        for value in attr.values():
            part = {row: count for row, count in patterns.items() if row[best_column] == value}
            if part:
                children.append((value, build(part, rest, depth + 1)))
            else:
                children.append((value, Leaf(label, 0, fraction)))
        return Split(attr.name, tuple(children), label)

    try:
        root = build(patterns, tuple(range(len(dataset.feature_attributes))), 0)
    except RecursionError:
        raise MiningError("TreeTooDeep", f"a tree up to {config.max_depth} levels deep is too deep to grow; "
                                         "lower max_depth") from None
    return DecisionTree(dataset.class_attribute, class_values, root)


def classify(tree: DecisionTree, values: Mapping[str, Any]) -> Any:
    """Follow branches to a leaf.

    A value with no branch (possible when discretization drifted between
    training and use) falls back to the node's majority label. A missing
    tested attribute is an error.
    """
    node = tree.root
    while isinstance(node, Split):
        if node.attribute not in values:
            raise MiningError("MissingAttribute", f"instance lacks tested attribute {node.attribute!r}")
        child = node.child_for(values[node.attribute])
        if child is None:
            return node.majority_label
        node = child
    return node.label


def _hits(tree: DecisionTree, dataset: Dataset, patterns: Mapping[tuple, int]) -> int:
    """Instances among the counted rows whose class the tree predicts;
    each distinct row is classified once."""
    names = [a.name for a in dataset.attributes]
    return sum(count for row, count in patterns.items() if classify(tree, dict(zip(names, row))) == row[-1])


def training_accuracy(tree: DecisionTree, dataset: Dataset) -> float:
    return _hits(tree, dataset, dataset.patterns()) / len(dataset)


def _itemset_key(itemset: Iterable) -> tuple:
    return tuple(sorted(repr(item) for item in itemset))


def apriori(transactions: Mapping[frozenset, int], min_support: float) -> dict[frozenset, int]:
    """Level-wise frequent itemset mining with subset pruning.

    transactions maps each distinct transaction to its count (at least
    one transaction). Returns every itemset whose support count /
    n_transactions is at least min_support, mapped to its absolute count,
    in a deterministic order.
    """
    if not 0.0 < min_support <= 1.0:
        raise MiningError("BadConfig", f"min_support must be in (0, 1], got {min_support!r}")
    if not transactions:
        raise MiningError("EmptyDataset", "apriori needs at least one transaction")
    n = sum(transactions.values())
    result: dict[frozenset, int] = {}
    candidates = [frozenset([item]) for item in sorted({item for t in transactions for item in t}, key=repr)]
    k = 1
    while candidates:
        counts = {c: sum(weight for t, weight in transactions.items() if c <= t) for c in candidates}
        current = {c: cnt for c, cnt in counts.items() if cnt / n >= min_support}
        result.update(current)
        k += 1
        unions = {a | b for a, b in combinations(current, 2)}
        candidates = [
            c for c in sorted(unions, key=_itemset_key)
            if len(c) == k and all(frozenset(sub) in current for sub in combinations(c, k - 1))
        ]
    return result


@dataclass(frozen=True)
class AssociationRule:
    """antecedent => consequent with support and confidence over the
    originating transaction list."""

    antecedent: frozenset
    consequent: Any
    support: float
    confidence: float

    def __post_init__(self):
        for name in ("support", "confidence"):
            value = getattr(self, name)
            if not is_number(value) or not 0.0 <= value <= 1.0:
                raise MiningError("BadRule", f"rule {name} must be in [0, 1], got {value!r}")

    @property
    def text(self) -> str:
        left = " AND ".join(sorted(_item_text(i) for i in self.antecedent)) or "TRUE"
        return f"{left} => {_item_text(self.consequent)}"


def _item_text(item: Any) -> str:
    if isinstance(item, tuple) and len(item) == 2:
        return f"{item[0]}={format_value(item[1])}"
    return str(item)


def derive_rules(frequent: Mapping[frozenset, int], min_confidence: float, n_transactions: int) -> tuple[AssociationRule, ...]:
    """Single-consequent rules from frequent itemsets of size >= 2.

    confidence = support(itemset) / support(antecedent). Sorted by
    (confidence desc, support desc, rule text). Rules with an empty
    antecedent (from singleton itemsets) are not emitted: they restate
    the class prior, which the policy default action already covers.
    """
    if not 0.0 < min_confidence <= 1.0:
        raise MiningError("BadConfig", f"min_confidence must be in (0, 1], got {min_confidence!r}")
    if frequent and n_transactions < 1:
        raise ConsistencyError("BadCount", "n_transactions must be >= 1 when frequent sets exist")
    rules = []
    for itemset, count in frequent.items():
        if len(itemset) < 2:
            continue
        for consequent in sorted(itemset, key=repr):
            antecedent = itemset - {consequent}
            if antecedent not in frequent:
                raise ConsistencyError("MissingSubset", "frequent sets are not closed; not an apriori output")
            confidence = count / frequent[antecedent]
            if confidence >= min_confidence:
                rules.append(AssociationRule(antecedent, consequent, count / n_transactions, confidence))
    rules.sort(key=lambda r: (-r.confidence, -r.support, r.text))
    return tuple(rules)


def _start_folds(dataset: Dataset, k: int, seed: int) -> dict[tuple, int]:
    """The stratified k-fold deal: the fold each distinct row's first copy
    goes to; its j-th copy goes j folds on. One cursor, started by
    Random(seed).randrange(k), walks the distinct rows by class domain
    order, then first occurrence, moving on by each row's count."""
    if not is_int(k) or k < 2:
        raise MiningError("BadConfig", f"fold count must be >= 2, got {k!r}")
    if k > len(dataset):
        raise MiningError("TooFewInstances", f"cannot make {k} folds from {len(dataset)} instances")
    classes = dataset.class_def.values()
    cursor = Random(seed).randrange(k)
    start = {}
    for row, count in sorted(dataset.patterns().items(), key=lambda item: classes.index(item[0][-1])):
        start[row] = cursor
        cursor = (cursor + count) % k
    return start


def cross_validate(dataset: Dataset, config: MiningConfig) -> tuple[float, ...]:
    """Per-fold stratified k-fold accuracy of the tree inducer on the dataset.

    A row with count c is held out c // k times in each fold, once more in
    the c % k folds from its start fold (_start_folds), so fold sizes, class
    and row counts are within one across folds. Trees grow from the row
    counts minus the fold's; each distinct held-out row is scored once,
    weighted by its count. Too few rows (TooFewInstances) is reported before
    one class (FewerThanTwoClasses).
    """
    k = config.cv_folds
    start = _start_folds(dataset, k, config.seed)
    total = dataset.patterns()
    if len({row[-1] for row in total}) < 2:
        raise MiningError("FewerThanTwoClasses", "cross-validation needs at least two classes")
    per_fold = []
    for f in range(k):
        test = +Counter({row: c // k + ((f - start[row]) % k < c % k) for row, c in total.items()})
        tree = _grow_tree(dataset, total - test, config)
        per_fold.append(_hits(tree, dataset, test) / sum(test.values()))
    return tuple(per_fold)


@dataclass(frozen=True)
class MetaModel:
    """A mined artifact plus its evaluation record.

    scope reflects the attributes the model actually uses: world when all
    are world-scoped, self when all are self-scoped, mixed otherwise.
    bin_edges holds the dataset's bin boundaries of the binned attributes
    the model uses, so that a model over bins can be told from one over
    raw values.
    """

    kind: str
    label_attribute: str
    scope: str
    evaluation: dict
    tree: DecisionTree | None = None
    rules: tuple[AssociationRule, ...] = ()
    frequent: tuple[tuple[frozenset, int], ...] = ()
    bin_edges: dict[str, tuple[float, ...]] = field(default_factory=dict)


def scope_of(dataset: Dataset, names: Collection[str]) -> str:
    """The MetaModel scope of the named attributes of the dataset."""
    scopes = {a.scope for a in dataset.attributes if a.name in names}
    if scopes == {"world"}:
        return "world"
    if scopes == {"self"}:
        return "self"
    return "mixed"


def _used_edges(dataset: Dataset, names: Collection[str]) -> dict[str, tuple[float, ...]]:
    """The dataset's bin boundaries of the named attributes."""
    return {name: edges for name, edges in dataset.bin_edges.items() if name in names}


def _base_evaluation(dataset: Dataset, config: MiningConfig) -> dict:
    return {
        "training_size": len(dataset),
        "config": asdict(config),
        "cv_mean": None,
    }


def fit_tree_model(dataset: Dataset, config: MiningConfig) -> MetaModel:
    """Induce a tree on the full dataset; attach CV scores when the
    dataset supports them (enough rows, at least two classes)."""
    tree = induce_tree(dataset, config)
    used = tree.split_attributes()
    evaluation = _base_evaluation(dataset, config)
    evaluation["training_accuracy"] = training_accuracy(tree, dataset)
    if config.cv_folds <= len(dataset) and len({row[-1] for row in dataset.patterns()}) >= 2:
        per_fold = cross_validate(dataset, config)
        evaluation["cv_mean"] = float_sum(per_fold) / len(per_fold)
    return MetaModel(
        kind="tree",
        label_attribute=dataset.class_attribute,
        scope=scope_of(dataset, used | {dataset.class_attribute}),
        evaluation=evaluation,
        tree=tree,
        bin_edges=_used_edges(dataset, used),
    )


def fit_rules_model(dataset: Dataset, config: MiningConfig) -> MetaModel:
    """Mine frequent itemsets and derive association rules from the
    dataset's rows, each a transaction of (attribute, value) items
    including the class attribute; each distinct row is mined once,
    weighted by its count."""
    names = [a.name for a in dataset.attributes]
    tx = {frozenset(zip(names, row)): count for row, count in dataset.patterns().items()}
    frequent = apriori(tx, config.min_support)
    rules = derive_rules(frequent, config.min_confidence, len(dataset))
    evaluation = _base_evaluation(dataset, config)
    evaluation["n_frequent"] = len(frequent)
    evaluation["n_rules"] = len(rules)
    used = {item[0] for rule in rules for item in rule.antecedent | {rule.consequent}}
    return MetaModel(
        kind="rules",
        label_attribute=dataset.class_attribute,
        scope=scope_of(dataset, used or {dataset.class_attribute}),
        evaluation=evaluation,
        rules=rules,
        frequent=tuple((itemset, count) for itemset, count in frequent.items()),
        bin_edges=_used_edges(dataset, used),
    )


def _node_to_json(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"type": "leaf", "label": node.label, "support": node.support, "confidence": node.confidence}
    return {
        "type": "split",
        "attribute": node.attribute,
        "majority_label": node.majority_label,
        "children": [[value, _node_to_json(child)] for value, child in node.children],
    }


def _node_from_json(obj: Any, depth: int = 0) -> Node:
    """The node at depth splits below the root; no tree mined under
    MAX_TREE_DEPTH reaches deeper."""
    if depth > MAX_TREE_DEPTH:
        raise InputFormatError("BadField", f"the tree nests deeper than {MAX_TREE_DEPTH} levels")
    obj = expect_object(obj, "tree node")
    kind = expect_field(obj, "type", "tree node")
    if kind == "leaf":
        return Leaf(expect_field(obj, "label", "leaf", ATOM), expect_field(obj, "support", "leaf"),
                    expect_field(obj, "confidence", "leaf"))
    if kind != "split":
        raise InputFormatError("BadField", f"unknown tree node type {kind!r}")
    children = expect_pairs(expect_field(obj, "children", "split"), "split children", "[value, node]", dict)
    return Split(
        expect_field(obj, "attribute", "split", ATOM),
        tuple((value, _node_from_json(child, depth + 1)) for value, child in children),
        expect_field(obj, "majority_label", "split", ATOM),
    )


def _itemset_to_json(itemset: frozenset) -> list:
    return [list(item) for item in sorted(itemset, key=repr)]


def model_to_json(model: MetaModel) -> dict:
    out: dict[str, Any] = {
        "kind": model.kind,
        "label_attribute": model.label_attribute,
        "scope": model.scope,
        "evaluation": model.evaluation,
    }
    if model.kind == "tree":
        assert model.tree is not None
        out["tree"] = {
            "class_attribute": model.tree.class_attribute,
            "class_values": list(model.tree.class_values),
            "root": _node_to_json(model.tree.root),
        }
    else:
        out["frequent"] = [
            {"items": _itemset_to_json(itemset), "count": count}
            for itemset, count in sorted(model.frequent, key=lambda e: (len(e[0]), _itemset_key(e[0])))
        ]
        out["rules"] = [
            {
                "antecedent": _itemset_to_json(rule.antecedent),
                "consequent": list(rule.consequent),
                "support": rule.support,
                "confidence": rule.confidence,
            }
            for rule in model.rules
        ]
    if model.bin_edges:
        out["bin_edges"] = {name: list(edges) for name, edges in sorted(model.bin_edges.items())}
    return out


def model_from_json(obj: Any) -> MetaModel:
    obj = expect_object(obj, "model")
    kind = expect_field(obj, "kind", "model")
    edges = expect_object(obj.get("bin_edges", {}), "model bin_edges")
    common = {
        "kind": kind,
        "label_attribute": expect_field(obj, "label_attribute", "model", ATOM),
        "scope": expect_field(obj, "scope", "model", ATOM),
        "evaluation": expect_field(obj, "evaluation", "model", dict),
        "bin_edges": {name: tuple(expect_field(edges, name, "model bin_edges", list)) for name in edges},
    }
    if kind == "tree":
        tree_json = expect_field(obj, "tree", "model", dict)
        tree = DecisionTree(
            expect_field(tree_json, "class_attribute", "tree", ATOM),
            tuple(expect_field(tree_json, "class_values", "tree", list)),
            _node_from_json(expect_field(tree_json, "root", "tree")),
        )
        return MetaModel(tree=tree, **common)
    if kind != "rules":
        raise InputFormatError("BadField", f"unknown model kind {kind!r}")
    frequent = []
    for entry in expect_field(obj, "frequent", "model", list):
        entry = expect_object(entry, "frequent set")
        frequent.append((frozenset(expect_pairs(expect_field(entry, "items", "frequent set"), "frequent set items")),
                         expect_field(entry, "count", "frequent set")))
    rules = []
    for r in expect_field(obj, "rules", "model", list):
        r = expect_object(r, "rule")
        rules.append(AssociationRule(
            frozenset(expect_pairs(expect_field(r, "antecedent", "rule"), "rule antecedent")),
            expect_pairs([expect_field(r, "consequent", "rule")], "rule consequent")[0],
            expect_field(r, "support", "rule"),
            expect_field(r, "confidence", "rule"),
        ))
    return MetaModel(rules=tuple(rules), frequent=tuple(frequent), **common)


def save_model(model: MetaModel, path: str | Path) -> None:
    try:
        write_json(path, model_to_json(model))
    except RecursionError:
        raise MiningError("TreeTooDeep", "the tree is too deep to write as JSON; lower max_depth") from None


def load_model(path: str | Path) -> MetaModel:
    return model_from_json(read_json(path))
