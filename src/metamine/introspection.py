"""From episode logs to mineable tables.

featurise is the data-preparation step: given which attributes a dataset
shows and how each row is labeled, it projects every decision the rover
took into one row and discretizes any numeric attributes, so the miners
only ever see finite domains. The resulting Dataset records its bin
boundaries, which say what range each bin_k label stands for. Nothing
maps a raw value to its bin later, so rules over a binned attribute
never match a numeric observation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
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
from .rover import OUTCOME_ATTR, OUTCOME_SUCCESS, DecisionRecord, EpisodeTrace

LABEL_RULES = ("outcome-as-class", "strategy-as-class")
# The most equal-width bins a numeric attribute may be cut into; each bin
# is a domain value that the dataset and its sidecar list.
MAX_BINS = 1000


@dataclass(frozen=True)
class Dataset:
    """Non-empty finite-domain training table; the class attribute is last.

    rows holds one value tuple per instance, in attribute order. Values
    are checked where rows enter (the trace and dataset CSV readers), so
    the dataset checks its columns and that it has rows, then counts the
    rows once for every learner (patterns()). bin_edges holds, per
    formerly numeric attribute, the interior interval boundaries used to
    discretize it (empty when every value was identical, so all went to bin_0).
    """

    attributes: tuple[AttributeDef, ...]
    class_attribute: str
    rows: tuple[tuple, ...]
    bin_edges: dict[str, tuple[float, ...]] = field(default_factory=dict)
    _patterns: Counter = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        define_schema(self.attributes, self.class_attribute)
        if self.attributes[-1].name != self.class_attribute:
            raise SchemaError("ClassNotLast", "the class attribute must be the last dataset column")
        for a in self.attributes:
            if not a.is_finite:
                raise SchemaError("NumericAttribute", f"dataset attribute {a.name!r} is numeric; discretize first")
        if not self.rows:
            raise MiningError("EmptyDataset", "a dataset needs at least one row to learn from")
        object.__setattr__(self, "_patterns", Counter(self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def feature_attributes(self) -> tuple[AttributeDef, ...]:
        return self.attributes[:-1]

    @property
    def class_def(self) -> AttributeDef:
        return self.attributes[-1]

    def patterns(self) -> Counter:
        """The distinct rows with their counts, in first-occurrence order;
        a copy, so editing it leaves the dataset unchanged."""
        return Counter(self._patterns)


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
    Rows keep their input order and their duplicates; equal rows share
    one tuple, since a dataset repeats a few patterns many times, and a
    record object the traces share is projected once.
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
    shared: dict[tuple, tuple] = {}
    # id(rec) -> (rec, its row); holding rec keeps its id unique
    projected: dict[int, tuple[DecisionRecord, tuple]] = {}
    rows = []
    for trace in traces:
        for rec in trace.records:
            if keep_failures or rec.outcome == OUTCOME_SUCCESS:
                known = projected.get(id(rec))
                if known is None:
                    try:
                        key = tuple(rec.outcome if n == OUTCOME_ATTR else rec.strategy if n == class_attr
                                    else rec.observed[n] for n in column_names)
                    except KeyError as exc:
                        raise ConsistencyError("MissingObservation",
                                               f"trace records carry no value for {exc.args[0]!r}") from None
                    known = projected[id(rec)] = (rec, shared.setdefault(key, key))
                rows.append(known[1])
    if not rows:
        raise MiningError("EmptyDataset", "the traces hold no decisions to learn from")

    defs: list[AttributeDef] = []
    edges_by_attr: dict[str, tuple[float, ...]] = {}
    for col, name in enumerate(column_names):
        attr = schema.attribute(name)
        if attr.is_finite:
            defs.append(attr)
            continue
        values = [row[col] for row in shared]
        edges_by_attr[name] = equal_width_edges(min(values), max(values), bins)
        defs.append(AttributeDef(name, "categorical", attr.scope, tuple(bin_label(i) for i in range(bins))))

    if edges_by_attr:
        cuts = [edges_by_attr.get(name) for name in column_names]
        binned = {key: tuple(v if edges is None else assign_bin(edges, v) for edges, v in zip(cuts, key))
                  for key in shared}
        canonical = {row: row for row in binned.values()}
        rows = [canonical[binned[row]] for row in rows]
    return Dataset(tuple(defs), label, tuple(rows), edges_by_attr)


def dataset_meta_path(csv_path: str | Path) -> Path:
    return Path(str(csv_path) + ".meta.json")


def save_dataset(dataset: Dataset, csv_path: str | Path) -> None:
    """Write rows as CSV plus a sidecar with attribute definitions
    and bin boundaries (<csv_path>.meta.json). Each distinct row's line
    is rendered once."""
    text = {row: csv_record(map(format_value, row)) for row in dataset.patterns()}
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_record([a.name for a in dataset.attributes]))
        fh.writelines(map(text.__getitem__, dataset.rows))
    write_json(dataset_meta_path(csv_path), {
        "attributes": [attribute_to_json(a) for a in dataset.attributes],
        "class_attribute": dataset.class_attribute,
        "bin_edges": {name: list(edges) for name, edges in sorted(dataset.bin_edges.items())},
    })


def load_dataset(csv_path: str | Path) -> Dataset:
    meta = expect_object(read_json(dataset_meta_path(csv_path)), "dataset metadata")
    defs = tuple(attribute_from_json(a) for a in expect_field(meta, "attributes", "dataset metadata", list))
    edges_json = expect_object(meta.get("bin_edges", {}), "bin_edges")
    edges = {name: tuple(expect_field(edges_json, name, "bin_edges", list)) for name in edges_json}
    # a record's cells -> its row, and a one-line record's text -> its row: equal rows share one tuple
    parsed: dict[tuple, tuple] = {}
    known: dict[str, tuple] = {}
    rows = []
    with open_table(csv_path, [a.name for a in defs]) as (lines, cells):
        for line, text in lines:
            row = known.get(text)
            if row is None:
                values, whole = cells(line, text)
                key = tuple(values)
                row = parsed.get(key)
                if row is None:
                    try:
                        row = parsed[key] = tuple(a.parse(cell) for a, cell in zip(defs, values))
                    except (InputFormatError, SchemaError) as exc:
                        raise located(exc, csv_path, line) from exc
                if whole:
                    known[text] = row
            rows.append(row)
    return Dataset(defs, expect_field(meta, "class_attribute", "dataset metadata", ATOM), tuple(rows), edges)
