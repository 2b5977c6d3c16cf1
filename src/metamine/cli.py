"""The `metamine` command line tool.

Five subcommands cover the pipeline end to end: simulate episodes, collect
traces into a dataset, mine a model, compile it into a policy, and run the
full gated cycle experiment, which also writes its per-cycle CSV summary.
Every output file is byte-deterministic given the same inputs and seed;
stochastic subcommands require an explicit seed (there is no wall-clock
default).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Any

from .cycle import (
    cycle_config_from_json,
    cycles_csv,
    experiment_to_json,
    run_experiment,
)
from .errors import ConsistencyError, InputFormatError, MetamineError, PolicyError
from .introspection import LABEL_RULES, featurise, load_dataset, save_dataset
from .jsonio import decode, expect_field, expect_object, read_json, write_json
from .knowledge import format_value, load_schema, save_schema
from .mining import MiningConfig, fit_rules_model, fit_tree_model, load_model, save_model
from .policy import (
    compile_policy,
    initial_policy,
    load_policy,
    policy_id,
    rules_to_ruleset,
    save_policy,
    tree_to_rules,
)
from .rover import load_traces, load_world, run_episodes, save_traces, world_schema

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_SCHEMA = 4
EXIT_INTERNAL = 5

EXIT_CODES_DOC = """\
exit codes:
  0  success
  2  usage error (unknown subcommand, bad or missing arguments)
  3  input format error (missing, unparsable or unwritable file)
  4  schema or consistency error (valid files that do not fit together)
  5  internal error
"""


class UsageError(Exception):
    """Argument combinations argparse cannot express (e.g. missing seed)."""


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every subcommand, built once per process: parsing
    leaves it unchanged, and each call gets a new namespace."""
    shared = {"epilog": EXIT_CODES_DOC, "formatter_class": argparse.RawDescriptionHelpFormatter}
    parser = argparse.ArgumentParser(
        prog="metamine",
        description="Closed-loop self-adaptation: simulate, introspect, mine, compile, deploy.",
        **shared,
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, **shared)

    p = command("simulate", help="run episodes on a world and write a trace CSV")
    p.add_argument("--world", required=True, help="world definition JSON")
    p.add_argument("--policy", help="policy JSON (default: the world's naive default policy)")
    p.add_argument("--episodes", type=int, default=100, help="episode count (default 100)")
    p.add_argument("--seed", type=int, required=True, help="master seed of the per-episode seeds")
    p.add_argument("--explore", type=float, default=0.0, help="exploration rate in [0,1] (default 0)")
    p.add_argument("--out", required=True, help="trace CSV to write")

    p = command("collect", help="turn a trace CSV into a labeled dataset CSV (+ sidecar)")
    p.add_argument("--traces", required=True, help="trace CSV from `simulate`")
    p.add_argument("--world", help="world definition JSON (source of the schema)")
    p.add_argument("--schema", help="schema JSON (alternative to --world)")
    p.add_argument("--label-rule", required=True, choices=LABEL_RULES,
                   help="how rows are labeled")
    p.add_argument("--select", help="comma-separated attributes to keep (default: world attributes + class)")
    p.add_argument("--bins", type=int, default=4, help="equal-width bins for numeric attributes (default 4)")
    p.add_argument("--out", required=True, help="dataset CSV to write (sidecar: <out>.meta.json)")

    p = command("mine", help="mine a model from a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV from `collect`")
    p.add_argument("--algo", required=True, choices=("tree", "apriori"), help="model family")
    p.add_argument("--config", help="mining config JSON (see README; default: the field defaults)")
    p.add_argument("--seed", type=int, help="CV start-fold seed (overrides the config's; needed for --algo tree)")
    p.add_argument("--out", required=True, help="model JSON to write")

    p = command("compile", help="compile a model file into a policy file")
    p.add_argument("--model", required=True, help="model JSON from `mine`")
    p.add_argument("--default", required=True, help="default action when no rule matches")
    p.add_argument("--schema", help="schema JSON for domain validation and typed values")
    p.add_argument("--out", required=True, help="policy JSON to write")

    p = command("cycle", help="run a full gated multi-cycle experiment")
    p.add_argument("--config", required=True, help="experiment config JSON (see README)")
    p.add_argument("--seed", type=int, help="master seed (overrides the config's master_seed)")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    world = load_world(args.world)
    schema = world_schema(world)
    policy = load_policy(args.policy) if args.policy else initial_policy(schema)
    if args.episodes < 1:
        raise UsageError("--episodes must be >= 1")
    traces = run_episodes(world, policy, args.episodes, args.seed, explore=args.explore)
    save_traces(traces, schema, args.out)
    reached = sum(t.reached_goal for t in traces)
    print(f"wrote {len(traces)} episodes ({reached}/{len(traces)} reached the goal) to {args.out}")
    return EXIT_OK


def _schema_from_args(args: argparse.Namespace):
    if args.schema and args.world:
        raise UsageError("give either --schema or --world, not both")
    if args.schema:
        return load_schema(args.schema)
    if args.world:
        return world_schema(load_world(args.world))
    raise UsageError("one of --schema or --world is required")


def cmd_collect(args: argparse.Namespace) -> int:
    schema = _schema_from_args(args)
    traces = load_traces(args.traces, schema)
    selected = tuple(name.strip() for name in args.select.split(",") if name.strip()) if args.select else None
    dataset = featurise(traces, schema, args.label_rule, args.bins, selected)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} instances ({args.label_rule}) to {args.out}")
    return EXIT_OK


def cmd_mine(args: argparse.Namespace) -> int:
    raw = dict(expect_object(read_json(args.config), "mining config")) if args.config else {}
    if args.seed is not None:
        raw["seed"] = args.seed
    config = decode(MiningConfig, raw, "mining config")
    if args.algo == "tree" and "seed" not in raw:
        raise UsageError("mine --algo tree seeds its cross-validation folds; give --seed "
                         "(or a seed in the config file)")
    dataset = load_dataset(args.data)
    model = fit_tree_model(dataset, config) if args.algo == "tree" else fit_rules_model(dataset, config)
    save_model(model, args.out)
    if model.kind == "tree":
        detail = f"cv_mean={model.evaluation['cv_mean']}"
    else:
        detail = f"{model.evaluation['n_frequent']} frequent sets, {model.evaluation['n_rules']} rules"
    print(f"wrote {model.kind} model ({detail}) to {args.out}")
    return EXIT_OK


def _typed_action(value: str, schema, control: str, model) -> Any:
    if schema is None:  # the model's own values on the control carry its type
        values = (model.tree.class_values if model.kind == "tree"
                  else [r.consequent[1] for r in model.rules if r.consequent[0] == control])
        return next((v for v in values if format_value(v) == value), value)
    if schema.attribute(control).kind != "boolean":
        return value
    if value not in ("true", "false"):
        raise UsageError(f"--default for boolean control must be true or false, got {value!r}")
    return value == "true"


def cmd_compile(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    if model.bin_edges:  # a policy matches raw observations, which no rule over bin_k labels matches
        raise ConsistencyError("BinnedModel", f"the model tests binned attributes {sorted(model.bin_edges)}; "
                                              "a policy cannot act on bins")
    schema = load_schema(args.schema) if args.schema else None
    control = schema.class_attribute if schema is not None else model.label_attribute
    if model.label_attribute != control:  # its rules may test what the rover only learns after deciding
        raise PolicyError("NotControlAttribute", f"the model predicts {model.label_attribute!r}, "
                                                 f"not the control attribute {control!r}")
    rules = tree_to_rules(model.tree, control) if model.kind == "tree" else rules_to_ruleset(model.rules, control)
    default = _typed_action(args.default, schema, control, model)
    policy = compile_policy(rules, control, default, schema=schema,
                            provenance={"sources": [model.kind], "model_scope": model.scope})
    save_policy(policy, args.out)
    print(f"wrote policy {policy_id(policy)} ({len(policy.ruleset.rules)} rules, default {args.default}) to {args.out}")
    return EXIT_OK


def cmd_cycle(args: argparse.Namespace) -> int:
    raw = dict(expect_object(read_json(args.config), "cycle config"))
    world_path = Path(args.config).parent / expect_field(raw, "world", "cycle config", str)
    n_cycles = expect_field(raw, "cycles", "cycle config")
    del raw["world"], raw["cycles"]
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if "master_seed" not in raw:
        raise UsageError("cycle needs a master seed: --seed or \"master_seed\" in the config file")
    world = load_world(world_path)
    config = cycle_config_from_json(raw)

    out_dir = Path(args.out)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    schema = world_schema(world)

    def sink(cycle_index: int, traces) -> None:
        save_traces(traces, schema, traces_dir / f"cycle_{cycle_index:02d}.csv")

    experiment = run_experiment(world, config, n_cycles, trace_sink=sink)
    exp_json = experiment_to_json(experiment)
    write_json(out_dir / "experiment.json", exp_json)
    (out_dir / "cycles.csv").write_text(cycles_csv(experiment), encoding="utf-8")
    save_policy(experiment.final_policy, out_dir / "final.policy.json")
    save_schema(schema, out_dir / "schema.json")
    for cycle in experiment.cycles:
        print(f"cycle {cycle.index}: {cycle.decision} ({cycle.reason})")
    print(f"final policy {exp_json['final_policy_id']} -> {out_dir / 'final.policy.json'}")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "collect": cmd_collect,
    "mine": cmd_mine,
    "compile": cmd_compile,
    "cycle": cmd_cycle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse already printed usage/help
        code = exit_.code
        return code if isinstance(code, int) else EXIT_USAGE
    if not args.command:
        parser.print_usage(sys.stderr)
        print("metamine: error: a subcommand is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"metamine: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputFormatError as exc:
        print(f"metamine: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MetamineError as exc:
        print(f"metamine: error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:  # the readers raise InputFormatError, so this is an output that cannot be written
        print(f"metamine: error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything else is a bug, not user error
        print(f"metamine: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
