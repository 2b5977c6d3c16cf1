"""The trace and dataset readers against the reference readers that parse
every record with csv (table_reference): on any file, the same value, or
the same error class and exact message.

The generated files mix what a reader can meet: quoted cells, quoted
leading cells, cells that span lines, blank lines, NUL bytes, LF, CR and
CRLF line ends, a missing final newline, rows repeated verbatim, stray
quotes, commas and line breaks, and bytes that are not UTF-8. Trace files
also mix numbers with leading zeros, episodes that come back after another,
and rows whose reached_goal differs from their episode's.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import table_reference
from metamine.introspection import Dataset, load_dataset, save_dataset
from metamine.knowledge import AttributeDef, define_schema
from metamine.rover import OUTCOME_DEF, load_traces

TERRAINS = ("sand, wet", 'say "rock"', "line\nbreak", "plain")
STRATEGIES = ("FAST", "CA,RE")
SCHEMA = define_schema((AttributeDef("terrain", "categorical", "world", TERRAINS),
                        AttributeDef("slope", "numeric", "world", (-8.0, 8.0)),
                        AttributeDef("strategy", "categorical", "self", STRATEGIES), OUTCOME_DEF), "strategy")
TRACE_HEADER = ["episode", "epoch", "x", "y", "terrain", "slope", "strategy", "outcome", "reward", "reached_goal"]
DATASET = Dataset((AttributeDef("terrain", "categorical", "world", TERRAINS), AttributeDef("wet", "boolean", "world"),
                   AttributeDef("strategy", "categorical", "self", STRATEGIES)), "strategy", (("plain", True, "FAST"),))
DATASET_HEADER = ["terrain", "wet", "strategy"]

# Cells that are not what the writers write; most fail a check.
ODD = ["", " 0", '"0"', "0\0", "-0", "00", "01", "007", "٣", "0" * 45, "x", "1.5", "nan", "inf", "mud", "WALK", "yes",
       "9", "a\rb", "a\nb"]


def quoted(cell: str, style: str) -> str:
    if style == "all" or (style == "minimal" and any(c in cell for c in ',"\r\n')):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def rarely(k: int):
    """True about one time in k."""
    return st.sampled_from([False] * (k - 1) + [True])


@st.composite
def table_text(draw, header, rows):
    """A CSV text of header and rows, each cell quoted its own way, with
    odd cells and stray characters put in and lines repeated or blank;
    about one file in three is well formed."""
    records = [list(header)] + draw(rows)
    if len(records) > 1 and draw(rarely(2)):
        for i, k, cell in draw(st.lists(st.tuples(st.integers(1, 60), st.integers(0, 20), st.sampled_from(ODD)),
                                        min_size=1, max_size=2)):
            row = records[1 + i % (len(records) - 1)]
            row[k % len(row)] = cell
    lines = []
    for row in records:
        style = draw(st.sampled_from(["minimal"] * 8 + ["all"] * 3 + ["none"]))
        ending = draw(st.sampled_from(["\r\n", "\n", "\r"]))
        lines.append(",".join(quoted(cell, style) for cell in row) + ending)
        if len(lines) > 1 and draw(rarely(20)):
            lines.append(draw(st.sampled_from([lines[-1], ending])))
    if draw(rarely(4)):
        i = draw(st.integers(0, 10**6)) % len(lines)
        at = draw(st.integers(0, 10**6)) % (len(lines[i]) + 1)
        lines[i] = lines[i][:at] + draw(st.sampled_from('",\n\r\0 ')) + lines[i][at:]
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(rarely(20)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def trace_rows(draw):
    """Runs of 1-12 rows, each going on with its episode at the next epoch,
    so epochs reach two digits and an episode may come back after another.
    A row's cells after its epoch come from a few drawn rests, so most rows
    repeat an earlier row's; about one row in twelve flips its episode's
    reached_goal."""
    rests = draw(st.lists(st.tuples(st.sampled_from("012"), st.sampled_from(TERRAINS),
                                    st.sampled_from(["0", "1.5", "-8"]), st.sampled_from(STRATEGIES),
                                    st.sampled_from(["success", "failure"]), st.sampled_from(["-1.0", "-3.0"])),
                          min_size=1, max_size=4))
    reached, length, rows = {}, {}, []
    for episode in draw(st.lists(st.integers(0, 3), max_size=4)):
        reached.setdefault(episode, draw(st.booleans()))
        first = length.get(episode, 0)
        length[episode] = first + draw(st.integers(1, 12))
        for epoch in range(first, length[episode]):
            x, terrain, slope, strategy, result, reward = draw(st.sampled_from(rests))
            flag = reached[episode] != draw(rarely(12))
            rows.append([str(episode), str(epoch), x, "0", terrain, slope, strategy, result, reward,
                         "true" if flag else "false"])
    return rows


dataset_rows = st.lists(st.tuples(st.sampled_from(TERRAINS), st.sampled_from(["true", "false"]),
                                  st.sampled_from(STRATEGIES)).map(list), max_size=12)


def outcome(load, *args):
    """What load returns, or the class, code and message of what it raises."""
    try:
        value = load(*args)
    except Exception as exc:  # noqa: BLE001 - any divergence counts, whatever it raises
        return type(exc), getattr(exc, "code", None), getattr(exc, "message", str(exc))
    return value, repr(value)


def assert_traces_read_alike(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(data)
        assert outcome(load_traces, path, SCHEMA) == outcome(table_reference.load_traces, path, SCHEMA)


def assert_datasets_read_alike(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        save_dataset(DATASET, path)
        path.write_bytes(data)
        assert outcome(load_dataset, path) == outcome(table_reference.load_dataset, path)


@given(table_text(TRACE_HEADER, trace_rows()))
def test_load_traces_reads_as_a_record_by_record_csv_reader(data):
    assert_traces_read_alike(data)


@given(table_text(DATASET_HEADER, dataset_rows))
def test_load_dataset_reads_as_a_record_by_record_csv_reader(data):
    assert_datasets_read_alike(data)


ROW = "0,{},1,0,plain,0,FAST,success,-1.0,false"
# episode 1 reaches the goal, so its rest differs from episode 0's only in reached_goal
ROW_1 = "1,{},1,0,plain,0,FAST,success,-1.0,true"


@pytest.mark.parametrize("rows", [
    [ROW.format(0), "0\0,1,1,0,plain,0,FAST,success,-1.0,false"],  # csv's NUL handling differs across versions
    [ROW.format(0), '"0","1",1,0,plain,0,FAST,success,-1.0,false', '0,"2",1,0,plain,0,FAST,success,-1.0,false'],
    [ROW.format(0), ROW.format(1).replace("plain", '"line\nbreak"'), ROW.format(2), ROW.format(9)],
    [ROW.format(0), ROW.format(1), ROW.format(1)],
    [ROW.format(0), '0,1,1,0,"line\nbreak,0,FAST,success,-1.0,false'],
    [ROW.format(0), "", ROW.format(1)],
    [ROW.format(0), "0" * 45 + ",1,1,0,plain,0,FAST,success,-1.0,false"],
    [ROW.format(0), "0" * 131073 + ",1,1,0,plain,0,FAST,success,-1.0,false"],  # beyond csv's field size limit
    [ROW.format(0), "0,01,1,0,plain,0,FAST,success,-1.0,false", ROW.format(2)],
    [ROW.format(0), ROW.format(1), "00,2,1,0,plain,0,FAST,success,-1.0,false", ROW.format(3)],
    [ROW_1.format(0), ROW.format(0), ROW.format(1).replace("false", "true")],
    [ROW.format(0), ROW.format(2)],
    [ROW.format(0), ROW_1.format(0), ROW.format(1), ROW_1.format(1)],
], ids=["nul-episode", "quoted-leading-cells", "bad-row-after-multi-line", "repeated-row", "open-quote-at-end",
        "blank-line", "long-episode", "episode-beyond-the-field-limit", "epoch-01", "episode-00-mid-episode",
        "reached-flips-to-a-known-rest", "known-rest-at-a-skipped-epoch", "episode-revisited-at-its-next-epoch"])
def test_trace_rows_read_as_a_record_by_record_csv_reader(rows):
    assert_traces_read_alike(("\r\n".join([",".join(TRACE_HEADER)] + rows) + "\r\n").encode("utf-8"))


def test_a_last_row_that_is_a_known_rest_without_its_line_end_reads_as_a_record_by_record_csv_reader():
    assert_traces_read_alike(("\r\n".join([",".join(TRACE_HEADER), ROW.format(0), ROW.format(1)])).encode("utf-8"))
