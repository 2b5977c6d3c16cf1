"""Malformed input files never crash the command line tool.

Each test starts from a valid file of one kind, applies one mutation
(a JSON value of the wrong type, a deleted key, NaN, a bad CSV cell, or a
byte that is not UTF-8) and runs every subcommand that reads that kind of
file. The exit code
must be 0, 3 or 4: the file still made sense, or it was rejected as
malformed (3) or inconsistent (4). Exit 5, an internal error, is a bug.
Where the mutation cannot make sense (a non-finite reward, a terrain the
world does not have, a boolean count) the exit code is pinned.
"""

import contextlib
import copy
import csv
import io
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metamine.cli import EXIT_INPUT, EXIT_OK, EXIT_SCHEMA, EXIT_USAGE, main

WORLD = {
    "width": 3, "height": 2, "terrains": ["flat", "dune"],
    "cells": [["flat", "dune", "flat"], ["dune", "flat", "dune"]],
    "start": [0, 0], "goal": [2, 1], "strategies": ["FAST", "CAREFUL"],
    "hazard": {"flat": {"FAST": 0.05, "CAREFUL": 0.05}, "dune": {"FAST": 0.6, "CAREFUL": 0.1}},
    "rewards": {"step_cost": 1.0, "failure_penalty": 2.0, "goal_reward": 10.0},
    "max_steps": 12,
}
# Gates that always pass, so the final policy carries mined rules.
CONFIG = {
    "world": "world.json", "cycles": 1, "training_episodes": 20, "evaluation_episodes": 10,
    "mining": {"max_depth": 3, "min_leaf_instances": 2, "min_support": 0.05, "min_confidence": 0.5,
               "cv_folds": 2, "seed": 0},
    "acceptance": {"min_cv_accuracy": 0.0, "min_heldout_delta": -1.0},
    "master_seed": 5, "model_kind": "both", "integration_mode": "override", "exploration": 0.8, "bins": 4,
}

DELETE = object()
MUTATIONS = [None, True, 0, -1, 2.5, "", "x", [], {}, [1, 2], [["a", 1]], {"a": 1}, math.nan, DELETE]
BAD_CELLS = ["", "x", "-1", "1.5", "nan", "inf", "true", "yes", "999", "CAREFUL", "failure", "[]"]

# Keys a command-line flag can stand in for: without them the run is a
# usage error (exit 2), as documented, not a malformed file.
FLAG_BACKED = {
    "cycle": {("master_seed",)},
    "mining": {(), ("seed",)},
}


def run(*argv):
    """main() on argv with its output captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def dump(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory of valid inputs of every kind, plus a scratch directory."""
    v = tmp_path_factory.mktemp("valid")
    dump(v / "world.json", WORLD)
    dump(v / "cycle.json", CONFIG)
    dump(v / "mining.json", CONFIG["mining"])
    assert run("cycle", "--config", v / "cycle.json", "--out", v / "run")[0] == EXIT_OK
    assert run("collect", "--traces", v / "run/traces/cycle_01.csv", "--world", v / "world.json",
               "--label-rule", "strategy-as-class", "--out", v / "d.csv")[0] == EXIT_OK
    assert run("mine", "--data", v / "d.csv", "--algo", "tree", "--seed", "1", "--out", v / "tree.json")[0] == EXIT_OK
    assert run("mine", "--data", v / "d.csv", "--algo", "apriori", "--out", v / "rules.json")[0] == EXIT_OK
    assert json.loads((v / "run/final.policy.json").read_text())["rules"]
    (v / "work").mkdir()
    return v


FILES = {
    "world": "world.json", "cycle": "cycle.json", "mining": "mining.json", "schema": "run/schema.json",
    "policy": "run/final.policy.json", "tree": "tree.json", "rules": "rules.json",
    "sidecar": "d.csv.meta.json",
}


def invocations(kind, v, f):
    """Every subcommand run that reads a file of this kind from path f."""
    w = v / "work"
    traces = v / "run/traces/cycle_01.csv"
    if kind == "world":
        dump(w / "world-cycle.json", dict(CONFIG, world=str(f)))
        return [("simulate", "--world", f, "--episodes", "3", "--seed", "1", "--out", w / "t.csv"),
                ("collect", "--traces", traces, "--world", f, "--label-rule", "outcome-as-class",
                 "--out", w / "d.csv"),
                ("cycle", "--config", w / "world-cycle.json", "--out", w / "run")]
    if kind == "cycle":
        (w / "world.json").write_bytes((v / "world.json").read_bytes())
        return [("cycle", "--config", f, "--out", w / "run")]
    if kind == "mining":
        return [("mine", "--data", v / "d.csv", "--algo", algo, "--config", f, "--out", w / "m.json")
                for algo in ("tree", "apriori")]
    if kind == "schema":
        return [("collect", "--traces", traces, "--schema", f, "--label-rule", "strategy-as-class",
                 "--out", w / "d.csv"),
                ("compile", "--model", v / "tree.json", "--default", "FAST", "--schema", f, "--out", w / "p.json")]
    if kind == "policy":
        return [("simulate", "--world", v / "world.json", "--policy", f, "--episodes", "3", "--seed", "1",
                 "--out", w / "t.csv")]
    if kind in ("tree", "rules"):
        return [("compile", "--model", f, "--default", "FAST", "--out", w / "p.json"),
                ("compile", "--model", f, "--default", "FAST", "--schema", v / "run/schema.json",
                 "--out", w / "p.json")]
    (w / "d.csv").write_bytes((v / "d.csv").read_bytes())  # sidecar
    return [("mine", "--data", w / "d.csv", "--algo", "tree", "--seed", "1", "--out", w / "m.json"),
            ("mine", "--data", w / "d.csv", "--algo", "apriori", "--out", w / "m.json")]


def json_paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from json_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from json_paths(value, prefix + (index,))


def mutated(doc, path, value):
    if not path:
        return {} if value is DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", sorted(FILES))
@given(data=st.data())
def test_mutated_json_inputs_never_exit_internal(valid, kind, data):
    doc = json.loads((valid / FILES[kind]).read_text())
    path = data.draw(st.sampled_from(list(json_paths(doc))), label="path")
    value = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    target = valid / "work" / FILES[kind].replace("run/", "")
    dump(target, mutated(doc, path, value))
    allowed = {EXIT_OK, EXIT_INPUT, EXIT_SCHEMA}
    if path in FLAG_BACKED.get(kind, ()):
        allowed.add(EXIT_USAGE)
    for argv in invocations(kind, valid, target):
        code, err = run(*argv)
        assert code in allowed, f"{argv[0]} exited {code}: {err}"


@pytest.mark.parametrize("kind", sorted(FILES))
def test_json_nested_too_deeply_is_an_input_error(valid, kind):
    target = valid / "work" / FILES[kind].replace("run/", "")
    target.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    for argv in invocations(kind, valid, target):
        code, err = run(*argv)
        assert code == EXIT_INPUT, f"{argv[0]} exited {code}: {err}"


def trace_rows(valid):
    with open(valid / "run/traces/cycle_01.csv", newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def collect_exits(valid, rows):
    """Exit codes of collect on the trace rows under both label rules."""
    target = valid / "work" / "traces.csv"
    with open(target, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return [run("collect", "--traces", target, "--world", valid / "world.json", "--label-rule", rule,
                "--out", valid / "work" / "d.csv")
            for rule in ("outcome-as-class", "strategy-as-class")]


@given(data=st.data())
def test_bad_trace_cells_never_exit_internal(valid, data):
    rows = trace_rows(valid)
    r = data.draw(st.integers(1, len(rows) - 1), label="row")
    c = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
    rows[r][c] = data.draw(st.sampled_from(BAD_CELLS), label="cell")
    for code, err in collect_exits(valid, rows):
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_SCHEMA), f"collect exited {code}: {err}"


@pytest.mark.parametrize("column, cell, expected", [
    ("reward", "nan", EXIT_INPUT),
    ("reward", "inf", EXIT_INPUT),
    ("terrain", "mud", EXIT_SCHEMA),
])
def test_bad_cells_on_a_failure_row_are_rejected_under_both_label_rules(valid, column, cell, expected):
    rows = trace_rows(valid)
    failure = next(row for row in rows if row[rows[0].index("outcome")] == "failure")
    failure[rows[0].index(column)] = cell
    assert [code for code, _ in collect_exits(valid, rows)] == [expected, expected]


# Every count, seed and coordinate a config or world file carries.
BOOL_COUNTS = (
    [("cycle", (name,)) for name in ("training_episodes", "evaluation_episodes", "bins", "master_seed", "cycles")]
    + [("mining", (name,)) for name in ("max_depth", "min_leaf_instances", "cv_folds", "seed")]
    + [("world", ("max_steps",)), ("world", ("start", 0)), ("world", ("goal", 1))]
)


@pytest.mark.parametrize("kind, path", BOOL_COUNTS, ids=[f"{k}:{'.'.join(map(str, p))}" for k, p in BOOL_COUNTS])
def test_boolean_counts_are_schema_errors(valid, kind, path):
    target = valid / "work" / FILES[kind]
    dump(target, mutated(json.loads((valid / FILES[kind]).read_text()), path, True))
    for argv in invocations(kind, valid, target):
        code, err = run(*argv)
        assert code == EXIT_SCHEMA, f"{argv[0]} exited {code}: {err}"


@pytest.mark.parametrize("control", ["", 5, None], ids=["empty", "number", "null"])
def test_a_policy_whose_control_attribute_is_no_name_is_rejected(valid, control):
    target = valid / "work" / "policy.json"
    dump(target, mutated(json.loads((valid / FILES["policy"]).read_text()), ("control_attribute",), control))
    [argv] = invocations("policy", valid, target)
    trace = argv[argv.index("--out") + 1]
    trace.unlink(missing_ok=True)
    code, err = run(*argv)
    assert code == EXIT_SCHEMA, err
    assert "BadControlAttribute" in err
    assert not trace.exists()


def run_with_one_file_changed(valid, broken, old, new):
    """Copies the valid inputs to work/, replaces the first old by new in
    the file named broken, and returns the exit code of a run that reads it."""
    work = valid / "work"
    for source in ("world.json", "run/traces/cycle_01.csv", "d.csv", "d.csv.meta.json"):
        data = (valid / source).read_bytes()
        name = source.rsplit("/", 1)[-1]
        (work / name).write_bytes(data.replace(old, new, 1) if name == broken else data)
    argv = {
        "world.json": ("simulate", "--world", work / "world.json", "--seed", "1"),
        "cycle_01.csv": ("collect", "--traces", work / "cycle_01.csv", "--world", work / "world.json",
                         "--label-rule", "outcome-as-class"),
        "d.csv": ("mine", "--data", work / "d.csv", "--algo", "apriori"),
    }[broken]
    return run(*argv, "--out", work / "out")[0]


@pytest.mark.parametrize("broken", ["world.json", "cycle_01.csv", "d.csv"])
def test_files_that_are_not_utf8_are_input_errors(valid, broken):
    assert run_with_one_file_changed(valid, broken, b"dune", b"d\xfcne") == EXIT_INPUT


@pytest.mark.parametrize("broken", ["cycle_01.csv", "d.csv"])
def test_csv_fields_beyond_the_parser_limit_are_input_errors(valid, broken):
    assert run_with_one_file_changed(valid, broken, b"dune", b"x" * 200_000) == EXIT_INPUT


@pytest.mark.parametrize("old, new, code", [
    (b"dune", b"mud", EXIT_SCHEMA),  # a cell outside its attribute's domain
    (b"dune,", b"", EXIT_INPUT),  # a row one cell short
], ids=["out-of-domain", "short-row"])
def test_malformed_dataset_rows_are_rejected_when_read(valid, old, new, code):
    assert run_with_one_file_changed(valid, "d.csv", old, new) == code
