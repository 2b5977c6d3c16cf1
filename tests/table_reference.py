"""Reference trace and dataset readers that parse every record with csv,
and a reference dataset writer that writes one record at a time.

The trace reader is load_traces as it was before the package learned to
parse each distinct line once: one csv.reader runs over the whole file in
text mode, every record's cells are checked, and only the attribute
parses are shared between records whose cells read the same. The dataset
reader runs one csv.reader the same way over a counted dataset file,
parses every record's cells and checks its count cell against a regular
expression, adding the counts of repeated rows up. The differential tests
hold load_traces and load_dataset to them: the same value, or the same
error class and message, on any file. The writer writes each distinct
row and its count through csv.writer; save_dataset must write its bytes.
"""

from __future__ import annotations

import csv
import re
import sys

from metamine.errors import InputFormatError, SchemaError
from metamine.introspection import Dataset, dataset_meta_path
from metamine.jsonio import ATOM, expect_field, expect_object, located, read_json, write_json
from metamine.knowledge import attribute_from_json, attribute_to_json, format_value
from metamine.rover import (
    OUTCOME_ATTR,
    OUTCOME_DEF,
    REACHED_DEF,
    REWARD_DEF,
    DecisionRecord,
    EpisodeTrace,
    _trace_header,
)


def read_table(path, header):
    """Stream the data rows of a UTF-8 CSV file whose first row is header,
    each with one cell per column, as (record number, row)."""
    name = str(path)
    width = len(header)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first != header:
                raise InputFormatError("BadHeader", f"{name}: expected columns {header}, got {first or 'nothing'}")
            for line, row in enumerate(reader, start=2):
                if len(row) != width:
                    raise InputFormatError("BadRow", f"{name} line {line}: expected {width} cells, got {len(row)}")
                yield line, row
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputFormatError("UnreadableFile", f"cannot read {name}: {exc}") from exc


def load_traces(path, schema):
    world_defs = schema.scoped("world")
    strategy_def = schema.class_def
    outcome_def = schema.attribute(OUTCOME_ATTR) if OUTCOME_ATTR in schema else OUTCOME_DEF
    base = 4 + len(world_defs)
    episodes = {}
    shared = {}
    for line, row in read_table(path, _trace_header(schema)):
        key = tuple(row[2:base + 3])
        rec = shared.get(key)
        try:
            episode, epoch = int(row[0]), int(row[1])
            if rec is None:
                cell = (int(row[2]), int(row[3]))
                observed = {a.name: a.parse(row[4 + k]) for k, a in enumerate(world_defs)}
                rec = shared[key] = DecisionRecord(cell, observed, strategy_def.parse(row[base]),
                                                   outcome_def.parse(row[base + 1]), REWARD_DEF.parse(row[base + 2]))
            reached = REACHED_DEF.parse(row[base + 3])
            records, first_reached = episodes.setdefault(episode, ([], reached))
            if first_reached != reached:
                raise InputFormatError("BadTrace", f"reached_goal changes within episode {episode}")
            if epoch != len(records):
                raise InputFormatError("BadTrace", f"episode {episode} has epoch {epoch} where "
                                                   f"{len(records)} comes next")
        except ValueError as exc:
            raise located(InputFormatError("BadRow", str(exc)), path, line) from exc
        except (InputFormatError, SchemaError) as exc:
            raise located(exc, path, line) from exc
        records.append(rec)
    return [EpisodeTrace(tuple(records), reached) for _, (records, reached) in sorted(episodes.items())]


def load_dataset(csv_path):
    meta = expect_object(read_json(dataset_meta_path(csv_path)), "dataset metadata")
    defs = tuple(attribute_from_json(a) for a in expect_field(meta, "attributes", "dataset metadata", list))
    edges_json = expect_object(meta.get("bin_edges", {}), "bin_edges")
    edges = {name: tuple(expect_field(edges_json, name, "bin_edges", list)) for name in edges_json}
    counts = {}
    for line, cells in read_table(csv_path, [a.name for a in defs] + ["count"]):
        try:
            row = tuple(a.parse(cell) for a, cell in zip(defs, cells))
            count = cells[-1]
            if not re.fullmatch("[1-9][0-9]*", count) or len(count) > 19 or int(count) > sys.maxsize:
                raise InputFormatError("BadRow", f"count must be a whole number from 1 to {sys.maxsize} in "
                                                 f"ASCII digits without leading zeros, got {count[:40]!r}")
        except (InputFormatError, SchemaError) as exc:
            raise located(exc, csv_path, line) from exc
        counts[row] = counts.get(row, 0) + int(count)
    return Dataset(defs, expect_field(meta, "class_attribute", "dataset metadata", ATOM), tuple(counts.items()),
                   edges)


def save_dataset(dataset, csv_path):
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in dataset.attributes] + ["count"])
        for row, count in dataset.counts:
            writer.writerow([format_value(v) for v in row] + [count])
    write_json(dataset_meta_path(csv_path), {
        "attributes": [attribute_to_json(a) for a in dataset.attributes],
        "class_attribute": dataset.class_attribute,
        "bin_edges": {name: list(edges) for name, edges in sorted(dataset.bin_edges.items())},
    })
