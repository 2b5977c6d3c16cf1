"""From episode logs to mineable tables.

featurise is the data-preparation step: given which attributes a dataset
shows and how each row is labeled, it projects every decision the rover
took into one row and discretizes any numeric attributes, so the miners
only ever see finite domains. A Dataset is its distinct rows with their
counts, in memory and in its CSV file. It records its bin boundaries,
which say what range each bin_k label stands for. Nothing maps a raw
value to its bin later, so rules over a binned attribute never match a
numeric observation: a model keeps the boundaries of the binned
attributes it uses, and compile refuses it.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConsistencyError, InputFormatError, MiningError, SchemaError
from .jsonio import ATOM, csv_record, expect_field, expect_object, located, open_table, read_json, write_json
from .knowledge import (
    AttributeDef,
    Schema,
    attribute_from_json,
    attribute_to_json,
    define_schema,
    format_value,
    is_int,
)
from .rover import OUTCOME_ATTR, OUTCOME_SUCCESS, EpisodeTrace

LABEL_RULES = ("outcome-as-class", "strategy-as-class")
# The most equal-width bins a numeric attribute may be cut into; each bin
# is a domain value that the dataset and its sidecar list.
MAX_BINS = 1000
# The last column of a dataset CSV: how many instances its row stands for,
# in at most as many digits as sys.maxsize has.
COUNT_COLUMN = "count"
MAX_COUNT_DIGITS = len(str(sys.maxsize))


@dataclass(frozen=True)
class Dataset:
    """Non-empty finite-domain training table; the class attribute is last.

    counts holds each distinct row (one value tuple, in attribute order)
    once, with how many instances it stands for, a positive int, in
    first-occurrence order: the order the learners' tie-breaks read.
    len() is the total, computed once. Values and counts are checked
    where they enter (featurise and the dataset CSV reader), so the
    dataset checks its columns, that it has rows and that len() can
    return their total. bin_edges holds, per formerly numeric attribute,
    the interior interval boundaries used to discretize it (empty when
    every value was identical, so all went to bin_0).
    """

    attributes: tuple[AttributeDef, ...]
    class_attribute: str
    counts: tuple[tuple[tuple, int], ...]
    bin_edges: dict[str, tuple[float, ...]] = field(default_factory=dict)
    _size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        define_schema(self.attributes, self.class_attribute)
        if self.attributes[-1].name != self.class_attribute:
            raise SchemaError("ClassNotLast", "the class attribute must be the last dataset column")
        for a in self.attributes:
            if not a.is_finite:
                raise SchemaError("NumericAttribute", f"dataset attribute {a.name!r} is numeric; discretize first")
        if not self.counts:
            raise MiningError("EmptyDataset", "a dataset needs at least one row to learn from")
        size = sum(count for _, count in self.counts)
        if size > sys.maxsize:
            raise MiningError("TooManyInstances", f"a dataset holds at most {sys.maxsize} instances, got {size}")
        object.__setattr__(self, "_size", size)

    def __len__(self) -> int:
        return self._size

    @property
    def feature_attributes(self) -> tuple[AttributeDef, ...]:
        return self.attributes[:-1]

    @property
    def class_def(self) -> AttributeDef:
        return self.attributes[-1]

    def patterns(self) -> Counter:
        """The distinct rows with their counts, in first-occurrence order;
        a copy, so editing it leaves the dataset unchanged."""
        return Counter(dict(self.counts))


def bin_label(index: int) -> str:
    return f"bin_{index}"


def assign_bin(edges: tuple[float, ...], value: float) -> str:
    return bin_label(bisect_right(edges, value))


def equal_width_edges(lo: float, hi: float, bins: int) -> tuple[float, ...]:
    """The interior boundaries of `bins` equal-width intervals over [lo, hi]."""
    if not hi > lo:
        return ()
    if math.isfinite(hi - lo):
        width = (hi - lo) / bins
        return tuple(lo + width * i for i in range(1, bins))
    # the range is wider than the largest float: mix the ends instead
    return tuple(lo / bins * (bins - i) + hi / bins * i for i in range(1, bins))


def featurise(traces: Iterable[EpisodeTrace], schema: Schema, label_rule: str, bins: int,
              selected: Sequence[str] | None = None) -> Dataset:
    """Project every decision of every trace into one dataset row.

    `selected` names the attributes the rows show; None is the default
    view, the schema's world attributes and its class attribute. A view
    shows the class attribute and at least one world attribute. The label
    rule picks the label: outcome-as-class labels every step with its
    success/failure outcome (performance monitoring data);
    strategy-as-class keeps only the successful steps and labels them with
    the strategy that worked (decision data the operationaliser can
    compile).

    A row holds the selected attributes in schema order, then the label:
    outcome is the step's outcome, the class attribute its strategy, and
    any other attribute what the rover observed. Numeric attributes are
    cut into `bins` (1 to MAX_BINS) equal-width intervals over the
    observed [min, max]; a constant column maps everything to bin_0.
    Records hash by identity, so the traces' records are counted in one
    pass and each distinct record is projected once, adding its count to
    its row's; a row's place is its first record's, the order the
    learners' tie-breaks read. Binning merges the counts of distinct rows
    that fall into the same bins.
    """
    if label_rule not in LABEL_RULES:
        raise SchemaError("BadLabelRule", f"label_rule must be one of {LABEL_RULES}, got {label_rule!r}")
    if not is_int(bins) or not 1 <= bins <= MAX_BINS:
        raise MiningError("BadBins", f"bins must be an integer from 1 to {MAX_BINS}, got {bins!r}")
    if selected is None:
        selected = tuple(a.name for a in schema.scoped("world")) + (schema.class_attribute,)
    if not selected:
        raise SchemaError("EmptySelection", "the view must select at least one attribute")
    if len(set(selected)) != len(selected):
        raise SchemaError("DuplicateAttribute", "the view selects an attribute twice")
    scopes = [schema.attribute(name).scope for name in selected]
    class_attr = schema.class_attribute
    if class_attr not in selected:
        raise SchemaError("MissingClassAttribute", "the view must select the schema's class attribute")
    if "world" not in scopes:
        raise SchemaError("NoWorldAttribute", "the view must select at least one world attribute")
    keep_failures = label_rule == "outcome-as-class"
    label = OUTCOME_ATTR if keep_failures else class_attr
    if not schema.attribute(label).is_finite:
        raise MiningError("NumericLabel", f"label attribute {label!r} must be categorical or boolean")
    column_names = [n for n in schema.names if n in selected and n != label] + [label]
    counts: Counter = Counter()
    for rec, count in Counter(chain.from_iterable(map(attrgetter("records"), traces))).items():
        if keep_failures or rec.outcome == OUTCOME_SUCCESS:
            try:
                key = tuple(rec.outcome if name == OUTCOME_ATTR else rec.strategy if name == class_attr
                            else rec.observed[name] for name in column_names)
            except KeyError as exc:
                raise ConsistencyError("MissingObservation",
                                       f"trace records carry no value for {exc.args[0]!r}") from None
            counts[key] += count
    if not counts:
        raise MiningError("EmptyDataset", "the traces hold no decisions to learn from")

    defs: list[AttributeDef] = []
    edges_by_attr: dict[str, tuple[float, ...]] = {}
    for col, name in enumerate(column_names):
        attr = schema.attribute(name)
        if attr.is_finite:
            defs.append(attr)
            continue
        values = [row[col] for row in counts]
        edges_by_attr[name] = equal_width_edges(min(values), max(values), bins)
        defs.append(AttributeDef(name, "categorical", attr.scope, tuple(bin_label(i) for i in range(bins))))

    if edges_by_attr:
        cuts = [edges_by_attr.get(name) for name in column_names]
        binned: Counter = Counter()
        for key, count in counts.items():
            binned[tuple(v if edges is None else assign_bin(edges, v) for edges, v in zip(cuts, key))] += count
        counts = binned
    return Dataset(tuple(defs), label, tuple(counts.items()), edges_by_attr)


def dataset_meta_path(csv_path: str | Path) -> Path:
    return Path(str(csv_path) + ".meta.json")


def save_dataset(dataset: Dataset, csv_path: str | Path) -> None:
    """Write the dataset as CSV, its attribute names then count in the
    header and one line per distinct row, plus a sidecar with attribute
    definitions and bin boundaries (<csv_path>.meta.json)."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_record([a.name for a in dataset.attributes] + [COUNT_COLUMN]))
        fh.writelines(csv_record([*map(format_value, row), count]) for row, count in dataset.counts)
    write_json(dataset_meta_path(csv_path), {
        "attributes": [attribute_to_json(a) for a in dataset.attributes],
        "class_attribute": dataset.class_attribute,
        "bin_edges": {name: list(edges) for name, edges in sorted(dataset.bin_edges.items())},
    })


def load_dataset(csv_path: str | Path) -> Dataset:
    """Read a dataset CSV and its sidecar. The header must be the
    sidecar's attribute names then count, so a file of one line per
    instance is a BadHeader. Each line is parsed with csv; its cells must
    lie in their attributes' domains, and its count must be a whole number
    from 1 to sys.maxsize in ASCII digits without leading zeros (BadRow).
    A row on two lines adds its counts up at its first line."""
    meta =expect_object(read_json(dataset_meta_path(csv_path)), "dataset metadata")
    defs = tuple(attribute_from_json(a) for a in expect_field(meta, "attributes", "dataset metadata", list))
    edges_json = expect_object(meta.get("bin_edges", {}), "bin_edges")
    edges = {name: tuple(expect_field(edges_json, name, "bin_edges", list)) for name in edges_json}
    names = {a.name for a in defs}
    for name, cuts in edges.items():
        if name not in names:
            raise InputFormatError("BadField", f"bin_edges names {name!r}, which is no dataset attribute")
        # read_json has refused NaN and infinities; ties stand, as equal-width cuts of a range
        # only a few floats wide round to them
        if not all(type(v) in (int, float) for v in cuts) or cuts != tuple(sorted(cuts)):
            raise InputFormatError("BadField", f"bin_edges of {name!r} must be numbers in ascending order")
    counts: dict[tuple, int] = {}
    with open_table(csv_path, [a.name for a in defs] + [COUNT_COLUMN]) as (lines, cells):
        for line, raw in enumerate(lines, start=2):
            *values, count = cells(line, raw)[0]
            try:
                row = tuple(a.parse(cell) for a, cell in zip(defs, values))
                # int() refuses over 4300 digits, and len() a total past sys.maxsize
                n = int(count) if count.isascii() and count.isdigit() and len(count) <= MAX_COUNT_DIGITS else 0
                if not 0 < n <= sys.maxsize or count[0] == "0":
                    raise InputFormatError("BadRow", f"count must be a whole number from 1 to {sys.maxsize} in "
                                                     f"ASCII digits without leading zeros, got {count[:40]!r}")
            except (InputFormatError, SchemaError) as exc:
                raise located(exc, csv_path, line) from exc
            counts[row] = counts.get(row, 0) + n
    return Dataset(defs, expect_field(meta, "class_attribute", "dataset metadata", ATOM), tuple(counts.items()),
                   edges)
