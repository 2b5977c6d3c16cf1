"""Command-line surface: pipeline flow, exit codes, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metamine.cli as cli
from helpers import cat, loop_config, make_dataset, save_world, striped_world
from metamine.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_SCHEMA, EXIT_USAGE, main
from metamine.introspection import MAX_BINS, Dataset, save_dataset
from metamine.jsonio import write_json
from metamine.knowledge import AttributeDef, define_schema, save_schema
from metamine.mining import MAX_TREE_DEPTH, load_model
from metamine.policy import load_policy
from metamine.rover import DecisionRecord, EpisodeTrace, save_traces, world_schema
from mining_reference import tree_depth

MINING = {"max_depth": 4, "min_leaf_instances": 5, "min_support": 0.05,
          "min_confidence": 0.55, "cv_folds": 5, "seed": 0}
GATES = {"min_cv_accuracy": 0.65, "min_heldout_delta": 0.0}


@pytest.fixture()
def workdir(tmp_path):
    world = striped_world()
    save_world(world, tmp_path / "world.json")
    save_schema(world_schema(world), tmp_path / "schema.json")
    return tmp_path


def mining_config(workdir, **fields):
    path = workdir / "mining.json"
    write_json(path, fields)
    return str(path)


def cycle_config(workdir, **overrides):
    payload = {
        "world": "world.json",
        "cycles": 2,
        "training_episodes": 80,
        "evaluation_episodes": 40,
        "mining": MINING,
        "acceptance": GATES,
        "master_seed": 7,
        "model_kind": "both",
        "integration_mode": "override",
        "exploration": 0.8,
        "bins": 4,
    }
    payload.update(overrides)
    path = workdir / "cycle.config.json"
    write_json(path, payload)
    return path


class TestParsing:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["transmogrify"]) == EXIT_USAGE
        assert main(["report", "--experiment", "run/experiment.json", "--out", "cycles.csv"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_cleanly_and_documents_exit_codes(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        for word in ("simulate", "collect", "mine", "compile", "cycle"):
            assert word in out
        assert "exit codes" in out.lower()

    @pytest.mark.parametrize("command", ["simulate", "collect", "mine", "compile", "cycle"])
    def test_subcommand_help_exits_cleanly(self, command, capsys):
        assert main([command, "--help"]) == EXIT_OK
        assert "exit codes" in capsys.readouterr().out.lower()

    def test_the_package_runs_as_a_module(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = [sys.executable, "-m", "metamine"]
        bare = subprocess.run(run, env=env, capture_output=True, text=True)
        assert bare.returncode == EXIT_USAGE
        assert "subcommand" in bare.stderr
        helped = subprocess.run(run + ["--help"], env=env, capture_output=True, text=True)
        assert helped.returncode == EXIT_OK
        assert "exit codes" in helped.stdout

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        assert main(["simulate", "--world", "w.json"]) == EXIT_USAGE
        capsys.readouterr()


class TestSimulate:
    def test_writes_a_trace_file(self, workdir, capsys):
        out = workdir / "traces.csv"
        code = main(["simulate", "--world", str(workdir / "world.json"), "--episodes", "20",
                     "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()
        assert "20 episodes" in capsys.readouterr().out

    def test_no_seed_anywhere_is_a_usage_error(self, workdir, capsys):
        code = main(["simulate", "--world", str(workdir / "world.json"), "--episodes", "5",
                     "--out", str(workdir / "t.csv")])
        assert code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        assert not (workdir / "t.csv").exists()

    def test_a_step_budget_beyond_float_range_is_a_schema_error(self, workdir, capsys):
        payload = json.loads((workdir / "world.json").read_text())
        payload["max_steps"] = 10**400
        write_json(workdir / "long.json", payload)
        code = main(["simulate", "--world", str(workdir / "long.json"), "--seed", "1", "--out", str(workdir / "t.csv")])
        assert code == EXIT_SCHEMA
        assert "BadMaxSteps" in capsys.readouterr().err
        assert not (workdir / "t.csv").exists()

    def test_a_step_budget_beyond_the_cap_is_a_schema_error(self, workdir, capsys):
        """Every strategy slips everywhere, so each episode would run its whole budget."""
        payload = json.loads((workdir / "world.json").read_text())
        payload["hazard"] = {t: dict.fromkeys(payload["strategies"], 1.0) for t in payload["terrains"]}
        payload["max_steps"] = 10_001
        write_json(workdir / "slippery.json", payload)
        code = main(["simulate", "--world", str(workdir / "slippery.json"), "--episodes", "1", "--seed", "1",
                     "--out", str(workdir / "t.csv")])
        assert code == EXIT_SCHEMA
        assert "max_steps must be an integer from 1 to 10000" in capsys.readouterr().err
        assert not (workdir / "t.csv").exists()

    def test_no_episodes_is_a_usage_error(self, workdir, capsys):
        out = workdir / "t.csv"
        code = main(["simulate", "--world", str(workdir / "world.json"), "--episodes", "0", "--seed", "1",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "--episodes" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_world_file_is_an_input_error(self, workdir, capsys):
        code = main(["simulate", "--world", str(workdir / "absent.json"), "--seed", "1",
                     "--out", str(workdir / "t.csv")])
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_malformed_world_file_is_an_input_error(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        code = main(["simulate", "--world", str(bad), "--seed", "1", "--out", str(workdir / "t.csv")])
        assert code == EXIT_INPUT
        capsys.readouterr()

    @pytest.mark.parametrize("number", ["NaN", "1e400"])
    def test_non_finite_numbers_are_input_errors(self, workdir, capsys, number):
        text = (workdir / "world.json").read_text().replace('"step_cost": 1.0', f'"step_cost": {number}')
        assert number in text
        bad = workdir / "bad.json"
        bad.write_text(text)
        code = main(["simulate", "--world", str(bad), "--seed", "1", "--out", str(workdir / "t.csv")])
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_same_seed_gives_identical_bytes(self, workdir, capsys):
        args = ["simulate", "--world", str(workdir / "world.json"), "--episodes", "15", "--seed", "9"]
        a, b = workdir / "a.csv", workdir / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()


class TestPipeline:
    def simulate(self, workdir):
        traces = workdir / "traces.csv"
        assert main(["simulate", "--world", str(workdir / "world.json"), "--episodes", "60",
                     "--seed", "3", "--explore", "0.8", "--out", str(traces)]) == EXIT_OK
        return traces

    def test_full_chain_from_traces_to_policy(self, workdir, capsys):
        traces = self.simulate(workdir)
        decision_data = workdir / "decision.csv"
        assert main(["collect", "--traces", str(traces), "--world", str(workdir / "world.json"),
                     "--label-rule", "strategy-as-class", "--out", str(decision_data)]) == EXIT_OK
        assert (workdir / "decision.csv.meta.json").exists()

        tree_model = workdir / "tree.model.json"
        assert main(["mine", "--data", str(decision_data), "--algo", "tree", "--seed", "0",
                     "--out", str(tree_model)]) == EXIT_OK

        rules_model = workdir / "rules.model.json"
        assert main(["mine", "--data", str(decision_data), "--algo", "apriori",
                     "--config", mining_config(workdir, min_support=0.05, min_confidence=0.55),
                     "--out", str(rules_model)]) == EXIT_OK

        tree_policy = workdir / "tree.policy.json"
        assert main(["compile", "--model", str(tree_model), "--default", "FAST",
                     "--schema", str(workdir / "schema.json"), "--out", str(tree_policy)]) == EXIT_OK
        policy = load_policy(tree_policy)
        assert policy.decide({"terrain": "sand"}) == "CAREFUL"
        assert policy.decide({"terrain": "ice"}) == "CAREFUL"
        assert policy.decide({"terrain": "rock"}) == "FAST"

        rules_policy = workdir / "rules.policy.json"
        assert main(["compile", "--model", str(rules_model), "--default", "FAST",
                     "--schema", str(workdir / "schema.json"), "--out", str(rules_policy)]) == EXIT_OK
        assert load_policy(rules_policy).decide({"terrain": "sand"}) == "CAREFUL"
        capsys.readouterr()

    def test_collect_needs_exactly_one_schema_source(self, workdir, capsys):
        traces = self.simulate(workdir)
        base = ["collect", "--traces", str(traces), "--label-rule", "outcome-as-class",
                "--out", str(workdir / "d.csv")]
        assert main(base) == EXIT_USAGE
        assert main(base + ["--world", str(workdir / "world.json"),
                            "--schema", str(workdir / "schema.json")]) == EXIT_USAGE
        capsys.readouterr()

    def test_collect_select_names_the_columns_in_any_order(self, workdir, capsys):
        traces = self.simulate(workdir)
        base = ["collect", "--traces", str(traces), "--world", str(workdir / "world.json"),
                "--label-rule", "outcome-as-class"]
        default, selected = workdir / "default.csv", workdir / "selected.csv"
        assert main(base + ["--out", str(default)]) == EXIT_OK
        assert main(base + ["--select", " outcome,strategy , terrain", "--out", str(selected)]) == EXIT_OK
        assert selected.read_text().splitlines()[0] == "terrain,strategy,outcome,count"
        assert selected.read_bytes() == default.read_bytes()
        code = main(base + ["--select", "strategy,outcome", "--out", str(workdir / "none.csv")])
        assert code == EXIT_SCHEMA
        assert "NoWorldAttribute" in capsys.readouterr().err
        assert not (workdir / "none.csv").exists()

    def test_collect_bins_a_range_wider_than_the_largest_float(self, workdir, capsys):
        base = world_schema(striped_world())
        slope = AttributeDef("slope", "numeric", "world", (-1e308, 1e308))
        schema = define_schema((base.attributes[0], slope) + base.attributes[1:], base.class_attribute)
        records = tuple(DecisionRecord((0, 0), {"terrain": "sand", "slope": v}, "FAST", "success", -1.0)
                        for v in (-1e308, 0.0, 1e308))
        save_schema(schema, workdir / "slope.schema.json")
        save_traces([EpisodeTrace(records, True)], schema, workdir / "slope.csv")
        data = workdir / "d.csv"
        assert main(["collect", "--traces", str(workdir / "slope.csv"), "--schema", str(workdir / "slope.schema.json"),
                     "--label-rule", "outcome-as-class", "--bins", "3", "--out", str(data)]) == EXIT_OK
        edges = json.loads((workdir / "d.csv.meta.json").read_text())["bin_edges"]["slope"]
        assert len(edges) == 2 and all(math.isfinite(e) for e in edges) and edges == sorted(edges)
        assert [line.split(",")[1] for line in data.read_text().splitlines()[1:]] == ["bin_0", "bin_1", "bin_2"]
        capsys.readouterr()

    @pytest.mark.parametrize("bins", [MAX_BINS + 1, 10**400], ids=["cap+1", "10**400"])
    def test_collect_refuses_more_bins_than_the_cap(self, workdir, capsys, bins):
        traces = self.simulate(workdir)
        data = workdir / "d.csv"
        assert main(["collect", "--traces", str(traces), "--world", str(workdir / "world.json"),
                     "--label-rule", "outcome-as-class", "--bins", str(bins), "--out", str(data)]) == EXIT_SCHEMA
        assert "BadBins" in capsys.readouterr().err
        assert not data.exists()

    def test_mine_tree_without_a_seed_is_a_usage_error(self, workdir, capsys):
        traces = self.simulate(workdir)
        data = workdir / "d.csv"
        assert main(["collect", "--traces", str(traces), "--world", str(workdir / "world.json"),
                     "--label-rule", "outcome-as-class", "--out", str(data)]) == EXIT_OK
        code = main(["mine", "--data", str(data), "--algo", "tree", "--out", str(workdir / "m.json")])
        assert code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_mine_takes_its_settings_from_the_config_and_its_seed_flag(self, workdir, capsys):
        traces = self.simulate(workdir)
        data = workdir / "d.csv"
        assert main(["collect", "--traces", str(traces), "--world", str(workdir / "world.json"),
                     "--label-rule", "outcome-as-class", "--out", str(data)]) == EXIT_OK
        settings = {"max_depth": 2, "min_leaf_instances": 3, "min_support": 0.2, "min_confidence": 0.7,
                    "cv_folds": 3, "seed": 4}
        base = ["mine", "--data", str(data), "--algo", "tree", "--config", mining_config(workdir, **settings)]
        model = workdir / "m.json"
        assert main(base + ["--seed", "9", "--out", str(model)]) == EXIT_OK
        assert json.loads(model.read_text())["evaluation"]["config"] == dict(settings, seed=9)
        capsys.readouterr()
        for flag, value in (("--max-depth", "2"), ("--min-leaf", "3"), ("--min-support", "0.2"),
                            ("--min-confidence", "0.7"), ("--cv-folds", "3")):
            other = workdir / "other.json"
            assert main(base + [flag, value, "--out", str(other)]) == EXIT_USAGE
            assert "unrecognized arguments" in capsys.readouterr().err
            assert not other.exists()

    def test_mine_config_errors_come_before_the_missing_seed(self, workdir, capsys):
        traces = self.simulate(workdir)
        data = workdir / "d.csv"
        assert main(["collect", "--traces", str(traces), "--world", str(workdir / "world.json"),
                     "--label-rule", "outcome-as-class", "--out", str(data)]) == EXIT_OK
        base = ["mine", "--data", str(data), "--algo", "tree", "--out", str(workdir / "m.json")]
        assert main(base + ["--config", str(workdir / "missing.json")]) == EXIT_INPUT
        assert main(base + ["--config", mining_config(workdir, depth=2)]) == EXIT_INPUT
        assert main(base + ["--config", mining_config(workdir, cv_folds=1)]) == EXIT_SCHEMA
        assert main(base + ["--config", mining_config(workdir, cv_folds=3)]) == EXIT_USAGE
        assert not (workdir / "m.json").exists()
        capsys.readouterr()

    def outcome_model(self, workdir, algo):
        """A model mined on outcome-as-class data, written to a file."""
        traces = self.simulate(workdir)
        data = workdir / "outcome.csv"
        assert main(["collect", "--traces", str(traces), "--world", str(workdir / "world.json"),
                     "--label-rule", "outcome-as-class", "--out", str(data)]) == EXIT_OK
        model = workdir / "outcome.model.json"
        assert main(["mine", "--data", str(data), "--algo", algo, "--seed", "0",
                     "--out", str(model)]) == EXIT_OK
        return model

    @pytest.mark.parametrize("algo", ["tree", "apriori"])
    def test_compiling_a_non_control_model_is_a_schema_error(self, workdir, capsys, algo):
        """An outcome model's rules that decide the control attribute test
        outcome, which the rover learns only after it decides."""
        model = self.outcome_model(workdir, algo)
        capsys.readouterr()
        code = main(["compile", "--model", str(model), "--default", "FAST",
                     "--schema", str(workdir / "schema.json"), "--out", str(workdir / "p.json")])
        assert code == EXIT_SCHEMA
        assert "NotControlAttribute" in capsys.readouterr().err
        assert not (workdir / "p.json").exists()

    @pytest.mark.parametrize("algo", ["tree", "apriori"])
    def test_compiling_an_outcome_model_without_a_schema_is_a_schema_error(self, workdir, capsys, algo):
        """Without a schema the model's own label would be the control:
        outcome, which no policy chooses."""
        model = self.outcome_model(workdir, algo)
        capsys.readouterr()
        assert main(["compile", "--model", str(model), "--default", "success",
                     "--out", str(workdir / "p.json")]) == EXIT_SCHEMA
        assert ("NotControlAttribute: the model predicts 'outcome', the outcome of a step, which no policy chooses"
                in capsys.readouterr().err)
        assert not (workdir / "p.json").exists()

    @pytest.mark.parametrize("schema", [False, True], ids=["without-schema", "with-schema"])
    def test_compiling_a_tree_that_classifies_another_attribute_is_a_schema_error(self, workdir, capsys, schema):
        """A hand-edited model file whose label is the control attribute but
        whose tree classifies something else."""
        traces = self.simulate(workdir)
        data = workdir / "decision.csv"
        assert main(["collect", "--traces", str(traces), "--world", str(workdir / "world.json"),
                     "--label-rule", "strategy-as-class", "--out", str(data)]) == EXIT_OK
        model = workdir / "decision.model.json"
        assert main(["mine", "--data", str(data), "--algo", "tree", "--seed", "0", "--out", str(model)]) == EXIT_OK
        edited = json.loads(model.read_text())
        assert edited["label_attribute"] == edited["tree"]["class_attribute"] == "strategy"
        edited["tree"]["class_attribute"] = "outcome"
        write_json(model, edited)
        capsys.readouterr()
        argv = ["compile", "--model", str(model), "--default", "FAST", "--out", str(workdir / "p.json")]
        assert main(argv + ["--schema", str(workdir / "schema.json")] * schema) == EXIT_SCHEMA
        assert "NotControlAttribute" in capsys.readouterr().err
        assert not (workdir / "p.json").exists()

    def boolean_model(self, workdir, algo):
        """A model of a boolean `careful` control, and the schema that types it."""
        terrain, careful = cat("terrain", ("sand", "rock")), AttributeDef("careful", "boolean", "self")
        save_schema(define_schema((terrain, careful), "careful"), workdir / "bool.schema.json")
        save_dataset(Dataset((terrain, careful), "careful", ((("sand", True), 4), (("rock", False), 4))),
                     workdir / "bool.csv")
        model = workdir / "bool.model.json"
        assert main(["mine", "--data", str(workdir / "bool.csv"), "--algo", algo, "--seed", "0",
                     "--config", mining_config(workdir, cv_folds=2), "--out", str(model)]) == EXIT_OK
        return model

    def test_compile_types_the_default_of_a_boolean_control(self, workdir, capsys):
        model = self.boolean_model(workdir, "tree")
        base = ["compile", "--model", str(model), "--schema", str(workdir / "bool.schema.json")]
        for text, action in (("true", True), ("false", False)):
            policy = workdir / f"{text}.policy.json"
            assert main(base + ["--default", text, "--out", str(policy)]) == EXIT_OK
            assert load_policy(policy).default_action is action
            assert load_policy(policy).decide({"terrain": "sand"}) is True
        code = main(base + ["--default", "yes", "--out", str(workdir / "yes.policy.json")])
        assert code == EXIT_USAGE
        assert "true or false" in capsys.readouterr().err
        assert not (workdir / "yes.policy.json").exists()

    @pytest.mark.parametrize("algo", ["tree", "apriori"])
    def test_compile_without_a_schema_types_the_default_from_the_model(self, workdir, capsys, algo):
        model = self.boolean_model(workdir, algo)
        for text, action in (("true", True), ("false", False)):
            defaults = []
            for schema in ([], ["--schema", str(workdir / "bool.schema.json")]):
                policy = workdir / f"{text}{len(schema)}.policy.json"
                assert main(["compile", "--model", str(model), "--default", text, *schema,
                             "--out", str(policy)]) == EXIT_OK
                defaults.append(json.loads(policy.read_text())["default_action"])
            assert defaults == [action, action]
        capsys.readouterr()

    def test_compile_takes_no_confidence_threshold(self, workdir, capsys):
        """The threshold is the one the model was mined with (mine --min-confidence)."""
        model = self.boolean_model(workdir, "apriori")
        policy = workdir / "p.policy.json"
        code = main(["compile", "--model", str(model), "--default", "true", "--min-confidence", "0.5",
                     "--out", str(policy)])
        assert code == EXIT_USAGE
        assert "--min-confidence" in capsys.readouterr().err
        assert not policy.exists()

    def test_a_rule_that_tests_the_control_attribute_is_a_schema_error(self, workdir, capsys):
        """No miner writes one; a hand-edited model used to compile with the rule dropped."""
        rule = {"antecedent": [["strategy", "CAREFUL"]], "consequent": ["strategy", "FAST"],
                "support": 0.5, "confidence": 0.9}
        model = workdir / "self.model.json"
        write_json(model, {"kind": "rules", "label_attribute": "strategy", "scope": "self", "evaluation": {},
                           "frequent": [], "n_transactions": 2, "rules": [rule]})
        policy = workdir / "p.json"
        code = main(["compile", "--model", str(model), "--default", "FAST", "--out", str(policy)])
        assert code == EXIT_SCHEMA
        assert "SelfReference" in capsys.readouterr().err
        assert not policy.exists()

    @pytest.mark.parametrize("algo", ["tree", "apriori"])
    def test_mining_a_header_only_dataset_is_a_schema_error(self, workdir, capsys, algo):
        data = workdir / "empty.csv"
        save_dataset(Dataset((cat("terrain", ("sand",)), cat("strategy", ("FAST",), scope="self")), "strategy",
                             ((("sand", "FAST"), 1),)), data)
        data.write_text(data.read_text().splitlines()[0] + "\n", encoding="utf-8")
        code = main(["mine", "--data", str(data), "--algo", algo, "--seed", "0", "--out", str(workdir / "m.json")])
        assert code == EXIT_SCHEMA
        assert "EmptyDataset" in capsys.readouterr().err
        assert not (workdir / "m.json").exists()

    @pytest.mark.parametrize("child", [5, "x"])
    def test_tree_children_that_are_not_pairs_are_an_input_error(self, workdir, capsys, child):
        root = {"type": "split", "attribute": "terrain", "majority_label": "FAST", "children": [child]}
        model = workdir / "bad.model.json"
        write_json(model, {"kind": "tree", "label_attribute": "strategy", "scope": "world", "evaluation": {},
                           "tree": {"class_attribute": "strategy", "class_values": ["FAST", "CAREFUL"],
                                    "root": root}})
        code = main(["compile", "--model", str(model), "--default", "FAST", "--out", str(workdir / "p.json")])
        assert code == EXIT_INPUT
        assert "[value, node] pairs" in capsys.readouterr().err

    def test_a_tree_too_deep_to_write_is_a_schema_error(self, workdir, capsys):
        """A depth beyond MAX_TREE_DEPTH is refused when the config is built,
        before any mining, on every Python."""
        data = workdir / "d.csv"
        save_dataset(make_dataset({"a": ("x", "y")}, ("+", "-"), [{"a": "x", "label": l} for l in "+-+-"]), data)
        model = workdir / "deep.model.json"
        code = main(["mine", "--data", str(data), "--algo", "tree", "--seed", "1", "--out", str(model),
                     "--config", mining_config(workdir, max_depth=MAX_TREE_DEPTH + 1, cv_folds=2)])
        assert code == EXIT_SCHEMA
        assert f"BadConfig: max_depth must be in [1, {MAX_TREE_DEPTH}]" in capsys.readouterr().err
        assert not model.exists()

    def test_a_tree_of_the_deepest_allowed_depth_writes_and_compiles(self, workdir):
        # constant features tie at zero gain, so every level splits on the next one
        features = {f"a{i}": ("x", "y") for i in range(MAX_TREE_DEPTH)}
        rows = [dict(dict.fromkeys(features, "x"), label=label) for label in "+-+-"]
        data = workdir / "deep.csv"
        save_dataset(make_dataset(features, ("+", "-"), rows), data)
        model = workdir / "deep.model.json"
        assert main(["mine", "--data", str(data), "--algo", "tree", "--seed", "1", "--out", str(model),
                     "--config", mining_config(workdir, max_depth=MAX_TREE_DEPTH, cv_folds=2)]) == EXIT_OK
        assert tree_depth(load_model(model).tree) == MAX_TREE_DEPTH
        policy = workdir / "deep.policy.json"
        assert main(["compile", "--model", str(model), "--default", "+", "--out", str(policy)]) == EXIT_OK
        assert load_policy(policy).default_action == "+"


class TestCycleCommand:
    def test_writes_the_full_output_bundle(self, workdir, capsys):
        out = workdir / "run"
        code = main(["cycle", "--config", str(cycle_config(workdir)), "--out", str(out)])
        assert code == EXIT_OK
        for name in ("experiment.json", "cycles.csv", "final.policy.json", "schema.json"):
            assert (out / name).exists()
        assert (out / "traces" / "cycle_01.csv").exists()
        assert (out / "traces" / "cycle_02.csv").exists()
        stdout = capsys.readouterr().out
        assert "cycle 1:" in stdout and "cycle 2:" in stdout and "final policy" in stdout
        experiment = json.loads((out / "experiment.json").read_text())
        assert [c["index"] for c in experiment["cycles"]] == [1, 2]

    @pytest.mark.parametrize("model_kind", ["tree", "rules"])
    def test_a_replacing_cycle_deploys_what_collect_mine_compile_make_of_its_traces(self, workdir, capsys,
                                                                                   model_kind):
        """The loop operationalises its models as the file chain does: on the
        cycle's own trace file, collect, mine with the cycle's mining config
        and compile against its schema give the rules the cycle deployed."""
        config = dataclasses.asdict(loop_config(1, integration_mode="replace", model_kind=model_kind))
        path = workdir / "loop.config.json"
        write_json(path, {"world": "world.json", "cycles": 1, **config})
        out = workdir / "run"
        assert main(["cycle", "--config", str(path), "--out", str(out)]) == EXIT_OK
        [cycle] = json.loads((out / "experiment.json").read_text())["cycles"]
        assert cycle["decision"] == "deployed"
        data, model, policy = workdir / "decision.csv", workdir / "decision.model.json", workdir / "p.json"
        assert main(["collect", "--traces", str(out / "traces" / "cycle_01.csv"), "--world", str(workdir / "world.json"),
                     "--label-rule", "strategy-as-class", "--bins", str(config["bins"]), "--out", str(data)]) == EXIT_OK
        assert main(["mine", "--data", str(data), "--algo", {"tree": "tree", "rules": "apriori"}[model_kind],
                     "--config", mining_config(workdir, **config["mining"]), "--out", str(model)]) == EXIT_OK
        assert main(["compile", "--model", str(model), "--default", "FAST", "--schema", str(out / "schema.json"),
                     "--out", str(policy)]) == EXIT_OK
        capsys.readouterr()
        deployed = load_policy(out / "final.policy.json")
        assert deployed.ruleset.rules
        assert load_policy(policy).ruleset.rules == deployed.ruleset.rules

    def test_cycles_csv_rows_match_the_experiment_json(self, workdir, capsys):
        out = workdir / "run"
        assert main(["cycle", "--config", str(cycle_config(workdir)), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        experiment = json.loads((out / "experiment.json").read_text())
        lines = (out / "cycles.csv").read_text().splitlines()
        assert lines[0] == "index,dataset_size,cv_accuracy,incumbent_rate,candidate_rate,delta,decision"
        assert len(lines) == 1 + len(experiment["cycles"])
        for line, cycle in zip(lines[1:], experiment["cycles"]):
            heldout = cycle["heldout"] or {}
            numbers = [cycle["cv_accuracy"], heldout.get("incumbent_rate"), heldout.get("candidate_rate"),
                       heldout.get("delta")]
            assert line.split(",") == [str(cycle["index"]), str(cycle["dataset_sizes"]["performance"]),
                                       *("" if v is None else repr(float(v)) for v in numbers),
                                       cycle["decision"]]

    @pytest.mark.parametrize("flag", ["--world", "--cycles"])
    def test_world_and_cycle_count_come_only_from_the_config(self, workdir, capsys, flag):
        code = main(["cycle", "--config", str(cycle_config(workdir)), flag, "1", "--out", str(workdir / "x")])
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("field", ["world", "cycles"])
    def test_missing_world_or_cycle_count_is_an_input_error(self, workdir, capsys, field):
        config = cycle_config(workdir)
        payload = json.loads(config.read_text())
        del payload[field]
        write_json(config, payload)
        assert main(["cycle", "--config", str(config), "--out", str(workdir / "x")]) == EXIT_INPUT
        assert f"MissingField: cycle config is missing required field {field!r}" in capsys.readouterr().err
        assert not (workdir / "x").exists()

    def test_missing_master_seed_everywhere_is_a_usage_error(self, workdir, capsys):
        config = cycle_config(workdir)
        payload = json.loads(config.read_text())
        del payload["master_seed"]
        write_json(config, payload)
        assert main(["cycle", "--config", str(config), "--out", str(workdir / "x")]) == EXIT_USAGE
        assert "master seed" in capsys.readouterr().err
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("section, name, value", [
        ("mining", "min_support", "0.1"),
        ("mining", "min_confidence", "0.5"),
        (None, "exploration", "0.8"),
        ("acceptance", "min_cv_accuracy", "0.6"),
        ("acceptance", "min_heldout_delta", "0"),
        ("world", "width", "8"),
    ])
    def test_string_typed_numbers_are_schema_errors(self, workdir, capsys, section, name, value):
        config = cycle_config(workdir)
        path = workdir / "world.json" if section == "world" else config
        payload = json.loads(path.read_text())
        target = payload[section] if section in ("mining", "acceptance") else payload
        target[name] = value
        write_json(path, payload)
        assert main(["cycle", "--config", str(config), "--out", str(workdir / "x")]) == EXIT_SCHEMA
        assert name in capsys.readouterr().err

    # 1e308: an episode's reward sum overflows; 1e306: each episode's sum is
    # finite but the mean of ten is not; 10**400: beyond float range at all.
    @pytest.mark.parametrize("step_cost", [1e308, 1e306, 10**400], ids=["1e308", "1e306", "10**400"])
    def test_rewards_that_overflow_are_schema_errors(self, workdir, capsys, step_cost):
        config = cycle_config(workdir, cycles=1, training_episodes=20, evaluation_episodes=10)
        payload = json.loads((workdir / "world.json").read_text())
        payload["rewards"]["step_cost"] = step_cost
        write_json(workdir / "world.json", payload)
        assert main(["cycle", "--config", str(config), "--out", str(workdir / "x")]) == EXIT_SCHEMA
        assert "BadReward" in capsys.readouterr().err

    def test_unknown_config_fields_are_an_input_error(self, workdir, capsys):
        config = cycle_config(workdir, pruning=True)
        assert main(["cycle", "--config", str(config), "--out", str(workdir / "x")]) == EXIT_INPUT
        capsys.readouterr()

    def test_same_config_and_seed_reproduce_byte_identical_outputs(self, workdir, capsys):
        config = cycle_config(workdir)
        a, b = workdir / "a", workdir / "b"
        assert main(["cycle", "--config", str(config), "--out", str(a)]) == EXIT_OK
        assert main(["cycle", "--config", str(config), "--out", str(b)]) == EXIT_OK
        for name in ("experiment.json", "cycles.csv", "final.policy.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / "traces" / "cycle_01.csv").read_bytes() == (b / "traces" / "cycle_01.csv").read_bytes()
        capsys.readouterr()

    def test_changing_the_seed_changes_the_traces(self, workdir, capsys):
        config = cycle_config(workdir)
        a, c = workdir / "a2", workdir / "c"
        assert main(["cycle", "--config", str(config), "--out", str(a)]) == EXIT_OK
        assert main(["cycle", "--config", str(config), "--seed", "8", "--out", str(c)]) == EXIT_OK
        assert (a / "traces" / "cycle_01.csv").read_bytes() != (c / "traces" / "cycle_01.csv").read_bytes()
        assert (a / "experiment.json").read_bytes() != (c / "experiment.json").read_bytes()
        capsys.readouterr()


def test_unexpected_exceptions_exit_internal(workdir, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli.COMMANDS, "compile", boom)
    code = main(["compile", "--model", "x", "--default", "FAST", "--out", "y"])
    assert code == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, out", [
    (["simulate", "--world", "world.json", "--episodes", "3", "--seed", "1"], "nodir/x"),
    (["collect", "--traces", "t.csv", "--world", "world.json", "--label-rule", "strategy-as-class"], "nodir/x"),
    (["mine", "--data", "d.csv", "--algo", "apriori"], "nodir/x"),
    (["cycle", "--config", "cycle.config.json"], "afile"),
    (["compile", "--model", "m.json", "--default", "FAST"], "."),
], ids=["simulate-missing-dir", "collect-missing-dir", "mine-missing-dir", "cycle-out-is-a-file",
        "compile-out-is-a-dir"])
def test_an_unwritable_out_is_an_input_error(workdir, capsys, monkeypatch, argv, out):
    monkeypatch.chdir(workdir)
    assert main(["simulate", "--world", "world.json", "--episodes", "20", "--seed", "3", "--explore", "0.8",
                 "--out", "t.csv"]) == EXIT_OK
    assert main(["collect", "--traces", "t.csv", "--world", "world.json", "--label-rule", "strategy-as-class",
                 "--out", "d.csv"]) == EXIT_OK
    assert main(["mine", "--data", "d.csv", "--algo", "apriori", "--out", "m.json"]) == EXIT_OK
    cycle_config(workdir)
    (workdir / "afile").write_text("not a directory")
    capsys.readouterr()
    assert main(argv + ["--out", out]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err
    assert "internal error" not in err
