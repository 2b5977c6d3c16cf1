"""The trace and dataset readers against the reference readers that parse
every record with csv (table_reference): on any file, the same value, or
the same error class and exact message; and the dataset writer against
the reference writer that writes one row at a time.

The generated files mix what a reader can meet: quoted cells, quoted
leading cells, cells that span lines, blank lines, NUL bytes, LF, CR and
CRLF line ends, a missing final newline, rows repeated verbatim, stray
quotes, commas and line breaks, and bytes that are not UTF-8. Trace files
also mix numbers with leading zeros, episodes that come back after another,
episodes of both reached_goal values over the same rows, and rows whose
reached_goal differs from their episode's. Both properties also run with
the readers' block size cut to a few bytes, so lines, line ends and quoted
cells fall across block boundaries.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import table_reference
from metamine import jsonio
from metamine.introspection import ROWS_PER_WRITE, Dataset, load_dataset, save_dataset
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
def table_text(draw, header, rows, alike=st.just(False)):
    """A CSV text of header and rows, each line quoted and ended its own
    way, with odd cells and stray characters put in and lines repeated or
    blank; about one file in three is well formed. Where alike draws True,
    every line is quoted and ended as the first row is."""
    records = [list(header)] + draw(rows)
    if len(records) > 1 and draw(rarely(2)):
        for i, k, cell in draw(st.lists(st.tuples(st.integers(1, 60), st.integers(0, 20), st.sampled_from(ODD)),
                                        min_size=1, max_size=2)):
            row = records[1 + i % (len(records) - 1)]
            row[k % len(row)] = cell
    lines = []
    alike = draw(alike)
    for row in records:
        if not alike or len(lines) < 2:
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


REST = st.tuples(st.sampled_from("012"), st.sampled_from(TERRAINS), st.sampled_from(["0", "1.5", "-8"]),
                 st.sampled_from(STRATEGIES), st.sampled_from(["success", "failure"]),
                 st.sampled_from(["-1.0", "-3.0"]))


def trace_row(episode, epoch, rest, reached):
    x, terrain, slope, strategy, result, reward = rest
    return [str(episode), str(epoch), x, "0", terrain, slope, strategy, result, reward, "true" if reached else "false"]


@st.composite
def free_trace_rows(draw):
    """Runs of 1-12 rows, each going on with its episode at the next epoch,
    so epochs reach two digits and an episode may come back after another.
    A row's cells after its epoch come from a few drawn rests, so most rows
    repeat an earlier row's; about one row in twelve flips its episode's
    reached_goal."""
    rests = draw(st.lists(REST, min_size=1, max_size=4))
    reached, length, rows = {}, {}, []
    for episode in draw(st.lists(st.integers(0, 3), max_size=4)):
        reached.setdefault(episode, draw(st.booleans()))
        first = length.get(episode, 0)
        length[episode] = first + draw(st.integers(1, 12))
        for epoch in range(first, length[episode]):
            rows.append(trace_row(episode, epoch, draw(st.sampled_from(rests)), reached[episode] != draw(rarely(12))))
    return rows


@st.composite
def route_trace_rows(draw):
    """Runs as free_trace_rows draws them, of 2-4 episodes that mostly take
    turns at reaching the goal, half of them one shared length. A row's
    cells after its epoch are those of one route, drawn from a few rests,
    at that epoch, so most rows repeat a row of an episode that reached the
    goal the other way. Past epoch 0, where a row with the other
    reached_goal value has had the same epoch, a row flips its episode's
    value half the time, so the flipped row's bytes after its episode cell
    are often ones the reader already knows."""
    rests = draw(st.lists(REST, min_size=1, max_size=4))
    route = draw(st.lists(st.sampled_from(rests), min_size=12, max_size=12))
    reached, length, seen, rows = {}, {}, set(), []
    span = draw(st.integers(2, 12))
    episodes = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4, unique=True))
    for episode in draw(st.permutations(episodes + draw(st.lists(st.sampled_from(episodes), max_size=2)))):
        reached.setdefault(episode, (len(reached) % 2 == 1) != draw(rarely(4)))
        first = length.get(episode, 0)
        length[episode] = first + (span if draw(st.booleans()) else draw(st.integers(1, 12)))
        for epoch in range(first, length[episode]):
            flag = reached[episode] != (epoch > 0 and (epoch, not reached[episode]) in seen and draw(st.booleans()))
            seen.add((epoch, flag))
            rows.append(trace_row(episode, epoch, route[epoch % 12], flag))
    return rows


# Per example, a trace drawn with free rows and one whose episodes share a
# route, the second mostly quoted and ended alike so that its rows repeat
# byte for byte.
traces = st.tuples(table_text(TRACE_HEADER, free_trace_rows()),
                   table_text(TRACE_HEADER, route_trace_rows(), alike=st.sampled_from([True] * 3 + [False])))

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


@given(traces)
def test_load_traces_reads_as_a_record_by_record_csv_reader(files):
    for data in files:
        assert_traces_read_alike(data)


@given(table_text(DATASET_HEADER, dataset_rows))
def test_load_dataset_reads_as_a_record_by_record_csv_reader(data):
    assert_datasets_read_alike(data)


@pytest.mark.parametrize("block_size", [1, 7])
@given(files=traces)
def test_load_traces_reads_as_a_record_by_record_csv_reader_in_small_blocks(block_size, files):
    with mock.patch.object(jsonio, "BLOCK_SIZE", block_size):
        for data in files:
            assert_traces_read_alike(data)


@pytest.mark.parametrize("block_size", [1, 7])
@given(data=table_text(DATASET_HEADER, dataset_rows))
def test_load_dataset_reads_as_a_record_by_record_csv_reader_in_small_blocks(block_size, data):
    with mock.patch.object(jsonio, "BLOCK_SIZE", block_size):
        assert_datasets_read_alike(data)


ROW = "0,{},1,0,plain,0,FAST,success,-1.0,false"
# episode 1 reaches the goal, so its rest differs from episode 0's only in reached_goal
ROW_1 = "1,{},1,0,plain,0,FAST,success,-1.0,true"


def row(episode, epoch, reached="false"):
    return f"{episode},{epoch},1,0,plain,0,FAST,success,-1.0,{reached}"


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
    [row(1, 0, "true"), row(1, 1, "true"), row(0, 0), row(0, 1, "true")],
    [row(0, 0), row(0, 1), row(1, 0), row(0, 0)],
    [row(0, 0), row(1, 0), row("00", 0)],
    [row(7, 0), row(1, 0), row("007", 0)],
    [row("007", 0), row(1, 0), row(7, 0)],
    [row(0, 0), row("\u0663", 0), row("\u0663", 1)],
    [row(0, 0), row(0, 1), row(1, 1)],
    [row(0, 0), row("0" * 131072 + "5", 0)],
    [row(0, 0, "true"), row(1, 0), row(2, 0, "true"), row(2, 1, "true")],
], ids=["nul-episode", "quoted-leading-cells", "bad-row-after-multi-line", "repeated-row", "open-quote-at-end",
        "blank-line", "long-episode", "episode-beyond-the-field-limit", "epoch-01", "episode-00-mid-episode",
        "reached-flips-to-a-known-rest", "known-rest-at-a-skipped-epoch", "episode-revisited-at-its-next-epoch",
        "reached-flips-to-a-rest-known-at-its-epoch", "episode-back-at-epoch-0", "episode-00-after-0",
        "episode-007-after-7", "episode-7-after-007", "non-ascii-digit-episode", "new-episode-at-a-known-epoch-1",
        "new-episode-beyond-the-field-limit", "known-epoch-0-rest-of-the-other-reached-goal"])
def test_trace_rows_read_as_a_record_by_record_csv_reader(rows):
    assert_traces_read_alike(("\r\n".join([",".join(TRACE_HEADER)] + rows) + "\r\n").encode("utf-8"))


def test_a_last_row_that_is_a_known_rest_without_its_line_end_reads_as_a_record_by_record_csv_reader():
    assert_traces_read_alike(("\r\n".join([",".join(TRACE_HEADER), ROW.format(0), ROW.format(1)])).encode("utf-8"))


TABLES = {
    "traces": [",".join(TRACE_HEADER), ROW.format(0), ROW.format(1).replace("plain", '"line\nbreak"'), ROW.format(2),
               ROW.format(3)],
    "dataset": [",".join(DATASET_HEADER), "plain,true,FAST", '"line\nbreak",false,"CA,RE"', "plain,true,FAST",
                '"sand, wet",true,FAST'],
}
# Files to read with every block size up to their length, so that every
# byte starts a block once: CRLFs and quoted line breaks split between two.
SPLIT_FILES = {
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "lf": lambda lines: "\n".join(lines) + "\n",
    "cr-only": lambda lines: "\r".join(lines) + "\r",
    "no-final-line-end": lambda lines: "\r\n".join(lines),
    "bom": lambda lines: "\ufeff" + "\r\n".join(lines) + "\r\n",
}


def assert_read_alike_in_blocks(kind, data, block_sizes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        if kind == "traces":
            args, load, reference = (path, SCHEMA), load_traces, table_reference.load_traces
        else:
            save_dataset(DATASET, path)
            args, load, reference = (path,), load_dataset, table_reference.load_dataset
        path.write_bytes(data)
        expected = outcome(reference, *args)
        for size in block_sizes:
            with mock.patch.object(jsonio, "BLOCK_SIZE", size):
                assert outcome(load, *args) == expected, f"block size {size}"


@pytest.mark.parametrize("case", sorted(SPLIT_FILES))
@pytest.mark.parametrize("kind", sorted(TABLES))
def test_files_split_at_any_byte_read_as_a_record_by_record_csv_reader(kind, case):
    data = SPLIT_FILES[case](TABLES[kind]).encode("utf-8")
    assert_read_alike_in_blocks(kind, data, range(1, len(data) + 1))


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_a_byte_that_is_not_utf8_past_the_first_text_chunk_reads_as_a_record_by_record_csv_reader(kind):
    """The text reader decodes 8 KB at a time and names the bad byte's
    place in its chunk; the fallback must say the same."""
    lines = TABLES[kind]
    rows = [ROW.format(i) for i in range(400)] if kind == "traces" else lines[1:] * 150
    data = ("\r\n".join(lines[:1] + rows) + "\r\n").encode("utf-8")
    assert len(data) > 12000
    assert_read_alike_in_blocks(kind, data[:9001] + b"\xff" + data[9001:], [1, 7, jsonio.BLOCK_SIZE])


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_a_trace_piped_in_reads_as_the_same_file_on_disk(tmp_path):
    """A pipe cannot be read twice, so it takes the text reader."""
    data = ("\r\n".join([",".join(TRACE_HEADER), ROW.format(0), ROW.format(1), ROW.format(2)]) + "\r\n").encode("utf-8")
    (tmp_path / "t.csv").write_bytes(data)
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        piped = outcome(load_traces, f"/dev/fd/{r}", SCHEMA)
    finally:
        os.close(r)
    assert piped == outcome(load_traces, tmp_path / "t.csv", SCHEMA)
    assert len(piped[0][0].records) == 3


@pytest.mark.parametrize("n", [1, ROWS_PER_WRITE, ROWS_PER_WRITE + 1],
                         ids=["one-row", "one-block", "a-block-and-a-row"])
def test_save_dataset_writes_what_a_row_by_row_writer_writes(tmp_path, n):
    patterns = [(t, w, s) for t in TERRAINS for w in (True, False) for s in STRATEGIES]
    dataset = Dataset(DATASET.attributes, "strategy", tuple(patterns[i * 5 % len(patterns)] for i in range(n)))
    save_dataset(dataset, tmp_path / "d.csv")
    table_reference.save_dataset(dataset, tmp_path / "r.csv")
    for suffix in ("", ".meta.json"):
        assert (tmp_path / f"d.csv{suffix}").read_bytes() == (tmp_path / f"r.csv{suffix}").read_bytes()
