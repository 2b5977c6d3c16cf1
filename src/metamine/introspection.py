"""From episode logs to mineable tables.

A MetadataProvider picks which attributes a report shows and how each row
is labeled; collect_report turns one trace into schema-conforming rows,
one per decision the rover took. featurise concatenates reports and
discretizes any numeric attributes so the miners only ever see finite
domains. The resulting Dataset remembers its bin boundaries, so the same
discretization can be replayed at deployment time.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import ConsistencyError, MiningError, SchemaError
from .jsonio import ATOM, expect_field, expect_object, read_json, read_table, write_json
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


@dataclass(frozen=True)
class MetadataProvider:
    """Chooses report content and labeling.

    outcome-as-class labels every step with its success/failure outcome
    (performance monitoring data); strategy-as-class keeps only the
    successful steps and labels them with the strategy that worked
    (decision data the operationaliser can compile).
    """

    selected_attributes: tuple[str, ...]
    label_rule: str

    def __post_init__(self):
        if self.label_rule not in LABEL_RULES:
            raise SchemaError("BadLabelRule", f"label_rule must be one of {LABEL_RULES}, got {self.label_rule!r}")
        if not self.selected_attributes:
            raise SchemaError("EmptySelection", "provider must select at least one attribute")
        if len(set(self.selected_attributes)) != len(self.selected_attributes):
            raise SchemaError("DuplicateAttribute", "provider selects an attribute twice")

    def label_attribute(self, schema: Schema) -> str:
        if self.label_rule == "outcome-as-class":
            return OUTCOME_ATTR
        return schema.class_attribute

    def validate_against(self, schema: Schema) -> None:
        for name in self.selected_attributes:
            schema.attribute(name)
        if schema.class_attribute not in self.selected_attributes:
            raise SchemaError("MissingClassAttribute", "provider must select the schema's class attribute")
        if not any(schema.attribute(n).scope == "world" for n in self.selected_attributes):
            raise SchemaError("NoWorldAttribute", "provider must select at least one world attribute")
        schema.attribute(self.label_attribute(schema))


@dataclass(frozen=True)
class IntrospectiveReport:
    """Selected, labeled rows describing one episode, one per decision;
    each row maps attribute names to values."""

    schema: Schema
    selected_attributes: tuple[str, ...]
    label_attribute: str
    rows: tuple[dict, ...]


def collect_report(trace: EpisodeTrace, provider: MetadataProvider, schema: Schema) -> IntrospectiveReport:
    """Interpret a trace as labeled rows.

    Each row is the projection of one DecisionRecord onto the provider's
    selected attributes plus the label attribute. strategy-as-class drops
    failed steps: only decisions that worked are worth imitating.
    """
    provider.validate_against(schema)
    label_attr = provider.label_attribute(schema)
    wanted = list(provider.selected_attributes)
    if label_attr not in wanted:
        wanted.append(label_attr)
    rows = []
    for rec in trace.records:
        if provider.label_rule == "strategy-as-class" and rec.outcome != OUTCOME_SUCCESS:
            continue
        available = dict(rec.observed)
        available[schema.class_attribute] = rec.strategy
        if OUTCOME_ATTR in schema:
            available[OUTCOME_ATTR] = rec.outcome
        values = {}
        for name in wanted:
            if name not in available:
                raise ConsistencyError("MissingObservation", f"trace records carry no value for {name!r}")
            values[name] = available[name]
        rows.append(values)
    return IntrospectiveReport(schema, tuple(provider.selected_attributes), label_attr, tuple(rows))


@dataclass(frozen=True)
class Dataset:
    """Finite-domain training table; the class attribute is last.

    rows holds one value tuple per instance, in attribute order. Values
    are checked where rows enter (the trace and dataset CSV readers), so
    the dataset checks only its columns. bin_edges holds, per formerly
    numeric attribute, the interior interval boundaries used to
    discretize it (empty tuple when every value was identical and
    everything went to bin_0).
    """

    attributes: tuple[AttributeDef, ...]
    class_attribute: str
    rows: tuple[tuple, ...]
    bin_edges: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        define_schema(self.attributes, self.class_attribute)
        if self.attributes[-1].name != self.class_attribute:
            raise SchemaError("ClassNotLast", "the class attribute must be the last dataset column")
        for a in self.attributes:
            if not a.is_finite:
                raise SchemaError("NumericAttribute", f"dataset attribute {a.name!r} is numeric; discretize first")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def feature_attributes(self) -> tuple[AttributeDef, ...]:
        return self.attributes[:-1]

    @property
    def class_def(self) -> AttributeDef:
        return self.attributes[-1]

    def labels(self) -> list:
        return [row[-1] for row in self.rows]

    def patterns(self) -> Counter:
        """The distinct rows with their counts, in first-occurrence order."""
        return Counter(self.rows)


def bin_label(index: int) -> str:
    return f"bin_{index}"


def assign_bin(edges: tuple[float, ...], value: float) -> str:
    return bin_label(bisect_right(edges, value))


def featurise(reports: Sequence[IntrospectiveReport], bins: int) -> Dataset:
    """Concatenate report rows into one dataset, discretizing numerics.

    Numeric attributes are cut into `bins` equal-width intervals over the
    observed [min, max]; a constant column maps everything to bin_0.
    Rows keep their input order and their duplicates; equal rows share
    one tuple, since a dataset repeats a few patterns many times.
    """
    if not is_int(bins) or bins < 1:
        raise MiningError("BadBins", f"bins must be a positive integer, got {bins!r}")
    reports = list(reports)
    if not reports:
        raise MiningError("EmptyDataset", "no reports to featurise")
    first = reports[0]
    for rep in reports[1:]:
        same = (
            rep.schema == first.schema
            and rep.selected_attributes == first.selected_attributes
            and rep.label_attribute == first.label_attribute
        )
        if not same:
            raise ConsistencyError("MixedReports", "all reports must share one schema, selection, and label")
    label = first.label_attribute
    schema = first.schema
    column_names = [n for n in schema.names if n in set(first.selected_attributes) and n != label] + [label]
    shared: dict[tuple, tuple] = {}
    rows = [shared.setdefault(key, key)
            for key in (tuple(row[n] for n in column_names) for rep in reports for row in rep.rows)]
    if not rows:
        raise MiningError("EmptyDataset", "reports contain no rows")
    if not schema.attribute(label).is_finite:
        raise MiningError("NumericLabel", f"label attribute {label!r} must be categorical or boolean")

    defs: list[AttributeDef] = []
    edges_by_attr: dict[str, tuple[float, ...]] = {}
    for col, name in enumerate(column_names):
        attr = schema.attribute(name)
        if attr.is_finite:
            defs.append(attr)
            continue
        values = [row[col] for row in rows]
        lo, hi = min(values), max(values)
        if hi > lo:
            width = (hi - lo) / bins
            edges = tuple(lo + width * i for i in range(1, bins))
        else:
            edges = ()
        edges_by_attr[name] = edges
        defs.append(AttributeDef(name, "categorical", attr.scope, tuple(bin_label(i) for i in range(bins))))

    if edges_by_attr:
        cuts = [edges_by_attr.get(name) for name in column_names]
        rows = [tuple(v if edges is None else assign_bin(edges, v) for edges, v in zip(cuts, row)) for row in rows]
    return Dataset(tuple(defs), label, tuple(rows), edges_by_attr)


def dataset_meta_path(csv_path: str | Path) -> Path:
    return Path(str(csv_path) + ".meta.json")


def save_dataset(dataset: Dataset, csv_path: str | Path) -> None:
    """Write rows as CSV plus a sidecar with attribute definitions
    and bin boundaries (<csv_path>.meta.json)."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in dataset.attributes])
        writer.writerows([format_value(v) for v in row] for row in dataset.rows)
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
    rows = tuple(tuple(a.parse(cell, where) for a, cell in zip(defs, row))
                 for where, row in read_table(csv_path, [a.name for a in defs]))
    return Dataset(defs, expect_field(meta, "class_attribute", "dataset metadata", ATOM), rows, edges)
