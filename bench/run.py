#!/usr/bin/env python3
"""Benchmark for metamine's closed loop: three workloads, end-to-end metrics,
and a traced run that gives per-layer numbers.

Run from the root of a checkout:

    python3 bench/run.py --workload loop-striped --seed 1 --seconds 30 --trace 0

`--workload all` runs the three workloads one after another in this process;
`--smoke` runs them all at a tiny size, traced and untraced, and checks that
every metric in BENCHMARK.json is printed with its unit. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
bench/README.md says what each workload is for.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INPUTS = BENCH / "inputs"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"

SETUP_REPEATS = 3
HELDOUT_EPISODES = 300
WIDE_SIZE = 32
WIDE_MAX_STEPS = 128
ROLLOUT_EPISODES = 500
MINE_EPISODES = 3000
COVERAGE_FLOOR = 0.95
# reference_work() took 1.0-1.5 ms on the shared 2-core Xeon host the bounds in
# BENCHMARK.json were set on; calibrated seconds are wall seconds rescaled to
# a host that runs it in REF_NOMINAL_S.
REF_NOMINAL_S = 0.0012
REF_ROWS = 500
SAMPLE_INTERVAL_S = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("unit_s.p50", "s"),
    ("unit_s.tail", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("policy_success_rate", "ratio"),
)

# Per-layer metrics of the traced run: *.busy_s and *.self_s are medians
# over traced units; counts cover one round (one unit per unit seed).
PER_LAYER = (
    ("cli.cycle.busy_s", "s"), ("cli.collect.busy_s", "s"), ("cli.mine.busy_s", "s"),
    ("cli.compile.busy_s", "s"),
    ("cycle.run_cycle.busy_s", "s"), ("cycle.run_cycle.self_s", "s"),
    ("cycle.run_cycle.covered_ratio", "ratio"), ("cycle.evaluate_candidate.busy_s", "s"),
    ("cycle.cycles", "count"), ("cycle.deployed_ratio", "ratio"), ("cycle.eval_episodes", "count"),
    ("rover.run_seeded.busy_s", "s"), ("rover.episodes", "count"), ("rover.steps", "count"),
    ("rover.steps_per_s", "steps/s"),
    ("rover.save_traces.busy_s", "s"), ("rover.load_traces.busy_s", "s"), ("rover.trace_bytes", "bytes"),
    ("introspection.collect_report.busy_s", "s"), ("introspection.featurise.busy_s", "s"),
    ("introspection.rows_in", "count"), ("introspection.rows_out", "count"),
    ("introspection.kept_ratio", "ratio"),
    ("introspection.save_dataset.busy_s", "s"), ("introspection.load_dataset.busy_s", "s"),
    ("mining.fit_tree_model.busy_s", "s"), ("mining.cross_validate.self_s", "s"),
    ("mining.induce_tree.busy_s", "s"), ("mining.induce_tree.calls", "count"),
    ("mining.induce_tree.rows", "count"), ("mining.fit_rules_model.self_s", "s"),
    ("mining.apriori.busy_s", "s"), ("mining.frequent_itemsets", "count"), ("mining.rules", "count"),
    ("policy.decide.calls", "count"), ("policy.decide.busy_s", "s"), ("policy.compile.busy_s", "s"),
    ("policy.rules_deployed", "count"),
    ("jsonio.read_json.busy_s", "s"), ("jsonio.write_json.busy_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
COMPILE_SPANS = ("policy.tree_to_rules", "policy.rules_to_ruleset", "policy.compile_policy",
                 "policy.integrate_policies")


def derive(*parts: object) -> int:
    """A 32-bit seed from a label path; the same path always gives the same seed."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def tree_decision(node: dict, values: dict):
    """Walk a serialized decision tree the way the model file describes it."""
    while node["type"] == "split":
        child = next((c for v, c in node["children"] if v == values[node["attribute"]]), None)
        if child is None:
            return node["majority_label"]
        node = child
    return node["label"]


def reference_work() -> float:
    """Time one fixed piece of stdlib-only work shaped like the program's own:
    small dicts, grouping, CSV-like text and sorting."""
    start = perf_counter()
    rows = [{"terrain": ("sand", "rock", "ice")[i % 3], "strategy": "CAREFUL" if i % 7 == 0 else "FAST",
             "epoch": i, "reward": -1.0 - i % 3} for i in range(REF_ROWS)]
    groups: dict = {}
    for row in rows:
        groups.setdefault((row["terrain"], row["strategy"]), []).append(row)
    text = "\n".join(f"{r['terrain']},{r['strategy']},{r['epoch']},{r['reward']!r}" for r in rows)
    cells = [line.split(",") for line in text.splitlines()]
    cells.sort(key=lambda c: (c[1], c[0], -int(c[2])))
    return perf_counter() - start


def host_speed() -> float:
    """Median of five reference_work() timings: how fast the host runs right now."""
    return statistics.median(reference_work() for _ in range(5))


class Clock:
    """Times calls into metamine, in wall seconds and in calibrated seconds.

    The host this runs on is shared, and its speed drifts by half or more
    within a minute, for this process's CPU time as much as its wall time.
    While a call runs, a timer signal interrupts it every SAMPLE_INTERVAL_S
    to time reference_work(), and once more before and after it. The call's
    wall time excludes those samples; its calibrated time is its wall time
    scaled by REF_NOMINAL_S times the mean of 1/sample, which is what the
    call would have taken at the host speed the bounds were set at.
    """

    def __init__(self):
        self.wall = 0.0
        self.calibrated = 0.0
        self._samples: list[float] = []
        self._sampling_s = 0.0
        self._sampling = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._sampling:
            return
        self._sampling = True
        start = perf_counter()
        self._samples.append(reference_work())
        self._sampling_s += perf_counter() - start
        self._sampling = False

    def time(self, fn, *args):
        self._samples = [reference_work()]
        self._sampling_s = 0.0
        # The handler stays installed afterwards: a signal still pending when
        # the timer stops then lands on this clock instead of the default
        # action, which would end the process.
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = elapsed - self._sampling_s
            self._samples.append(reference_work())
            self.wall += wall
            self.calibrated += wall * REF_NOMINAL_S * statistics.fmean(1 / t for t in self._samples)


def wide_world(striped: dict) -> dict:
    """The striped world's terrains, stripes and hazards on a larger grid."""
    terrains = striped["terrains"]
    world = dict(striped)
    world.update(
        width=WIDE_SIZE, height=WIDE_SIZE,
        cells=[[terrains[(x + y) % len(terrains)] for x in range(WIDE_SIZE)] for y in range(WIDE_SIZE)],
        start=[0, 0], goal=[WIDE_SIZE - 1, WIDE_SIZE - 1], max_steps=WIDE_MAX_STEPS,
    )
    return world


def trace_rows(path: Path) -> tuple[int, set, dict]:
    """Row count, strategies used and per-episode goal flags of a trace CSV."""
    rows, strategies, goals = 0, set(), {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            strategies.add(row["strategy"])
            goals[row["episode"]] = row["reached_goal"] == "true"
    return rows, strategies, goals


def trees_induced(models: list) -> int:
    """Trees a tree model's fit induces: one on all rows plus one per CV fold."""
    return sum(1 + len(m["evaluation"].get("cv_per_fold") or []) for m in models if m["kind"] == "tree")


@dataclass
class Inspection:
    """What one unit produced, read back from its outputs after the timer stopped."""

    digests: dict
    rows: int
    counts: dict
    problems: list = field(default_factory=list)


class Workload:
    """Inputs made from the workload seed, a timed unit, and its output checks."""

    name = ""
    n_unit_seeds = 4

    def __init__(self, program, seed: int, small: bool):
        self.m = program
        self.seed = seed
        self.small = small
        self.work = WORK / self.name
        self.inputs = self.work / "inputs"
        self.unit_seeds = [derive(seed, self.name, "unit", i) for i in range(self.n_unit_seeds)]
        self.tracer: Tracer | None = None
        self.clock: Clock | None = None
        self.first: dict[int, Inspection] = {}

    def call(self, fn, *args):
        """A call into metamine: timed when a unit runs, direct during set-up."""
        return fn(*args) if self.clock is None else self.clock.time(fn, *args)

    def cli(self, *argv) -> int:
        """metamine's command line, in this process, with its chatter discarded."""
        return self.call(self._cli, [str(a) for a in argv])

    def _cli(self, argv: list[str]) -> int:
        frame = self.tracer.open_span(f"cli.{argv[0]}") if self.tracer is not None else None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.m.cli.main(argv)
        finally:
            if frame is not None:
                self.tracer.close_span(frame)

    def write_inputs(self) -> None:
        world = read_json(INPUTS / "striped_world.json")
        config = read_json(INPUTS / "loop_config.json")
        if self.small:
            config.update(training_episodes=30, evaluation_episodes=20, cycles=1)
        write_json(self.inputs / "striped_world.json", world)
        write_json(self.inputs / "loop_config.json", config)
        self.world_json = world
        self.config_json = config

    def prepare(self) -> None:
        """Write this workload's inputs into self.inputs (timed as set-up)."""
        self.write_inputs()

    def run(self, seed: int, out: Path) -> int:
        """The timed unit; returns the first non-zero exit code, else 0."""
        raise NotImplementedError

    def inspect(self, seed: int, out: Path) -> Inspection:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks that need every unit seed's first result; returns problems."""
        return []

    def success_rate(self) -> float:
        raise NotImplementedError

    def heldout_rate(self, policy_path: Path, seed: int) -> float:
        """Goal rate of a policy on the striped world, on held-out episode seeds."""
        world = self.m.rover.load_world(self.inputs / "striped_world.json")
        incumbent = self.m.policy.initial_policy(self.m.rover.world_schema(world))
        n = 20 if self.small else HELDOUT_EPISODES
        result = self.m.cycle.evaluate_candidate(
            world, incumbent, self.m.policy.load_policy(policy_path), n, derive(self.seed, "heldout", seed))
        return result.candidate_rate


class LoopStriped(Workload):
    """`metamine cycle`: a 3-cycle experiment on the striped 8x8 world."""

    name = "loop-striped"
    n_unit_seeds = 8

    def run(self, seed, out):
        return self.cli("cycle", "--config", self.inputs / "loop_config.json", "--seed", seed, "--out", out)

    def inspect(self, seed, out):
        traces = sorted((out / "traces").glob("*.csv"))
        files = ["experiment.json", "cycles.csv", "final.policy.json"] + [f"traces/{p.name}" for p in traces]
        digests = {name: sha256_file(out / name) for name in files}
        allowed = set(self.world_json["strategies"])
        problems = []
        rows = episodes = 0
        for path in traces:
            n, used, goals = trace_rows(path)
            rows += n
            episodes += len(goals)
            if not used <= allowed:
                problems.append(f"{path.name}: strategies {sorted(used - allowed)} are not allowed")
        experiment = read_json(out / "experiment.json")
        for cycle in experiment["cycles"]:
            if cycle["decision"] != "deployed" and cycle["post_policy_id"] != cycle["pre_policy_id"]:
                problems.append(f"cycle {cycle['index']} was {cycle['decision']} but changed the policy")
        policy = read_json(out / "final.policy.json")
        actions = {r["action"] for r in policy["rules"]} | {policy["default_action"]}
        if not actions <= allowed:
            problems.append(f"final policy chooses {sorted(actions - allowed)}")
        models = [m for c in experiment["cycles"] for m in c["models"]]
        counts = {
            "rows": rows,
            "episodes": episodes,
            "eval_episodes": sum(2 * self.config_json["evaluation_episodes"]
                                 for c in experiment["cycles"] if c["heldout"] is not None),
            "cycles_deployed": sum(c["decision"] == "deployed" for c in experiment["cycles"]),
            "trees_induced": trees_induced(models),
            "frequent_itemsets": sum(m["evaluation"].get("n_frequent", 0) for m in models),
            "rules": sum(m["evaluation"].get("n_rules", 0) for m in models),
            "rules_deployed": len(policy["rules"]),
            "bytes_read": sum((self.inputs / f).stat().st_size for f in ("loop_config.json", "striped_world.json")),
            "bytes_written": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        }
        if seed not in self.first:
            shutil.copyfile(out / "final.policy.json", self.work / f"final-{seed}.policy.json")
        return Inspection(digests, rows, counts, problems)

    def success_rate(self):
        rates = [self.heldout_rate(self.work / f"final-{s}.policy.json", s) for s in self.unit_seeds]
        return sum(rates) / len(rates)


class RolloutWide(Workload):
    """`evaluate_candidate` on a 32x32 striped world: initial vs learned policy."""

    name = "rollout-wide"
    n_unit_seeds = 2

    def prepare(self):
        self.write_inputs()
        write_json(self.inputs / "wide_world.json", wide_world(self.world_json))
        learned = self.inputs / "learned"
        code = self.cli("cycle", "--config", self.inputs / "loop_config.json",
                        "--seed", derive(self.seed, self.name, "policy"), "--out", learned)
        if code != 0:
            raise RuntimeError(f"learning the rollout policy failed with exit code {code}")
        self.world = self.m.rover.load_world(self.inputs / "wide_world.json")
        self.incumbent = self.m.policy.initial_policy(self.m.rover.world_schema(self.world))
        self.candidate = self.m.policy.load_policy(learned / "final.policy.json")
        self.episodes = 20 if self.small else ROLLOUT_EPISODES
        self.results = {}

    def run(self, seed, out):
        self.result = self.call(self.m.cycle.evaluate_candidate, self.world, self.incumbent, self.candidate,
                                self.episodes, seed)
        return 0

    def inspect(self, seed, out):
        result = dataclasses.asdict(self.result)
        digests = {"eval_result": hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()}
        problems = []
        if result["delta"] != result["candidate_rate"] - result["incumbent_rate"]:
            problems.append(f"delta {result['delta']} is not candidate_rate - incumbent_rate")
        for key in ("incumbent_rate", "candidate_rate"):
            goals = result[key] * self.episodes
            if not 0.0 <= result[key] <= 1.0 or abs(goals - round(goals)) > 1e-9:
                problems.append(f"{key} {result[key]} is not a goal count over {self.episodes} episodes")
        self.results.setdefault(seed, result)
        counts = {"episodes": 2 * self.episodes, "rules_deployed": len(self.candidate.ruleset.rules)}
        return Inspection(digests, 0, counts, problems)

    def finish(self):
        """Replay each unit seed through `metamine simulate`, which draws the same
        episode seeds, to count the steps and cross-check both goal rates."""
        problems = []
        policies = {"incumbent_rate": (), "candidate_rate": ("--policy", self.inputs / "learned" / "final.policy.json")}
        for seed, inspection in self.first.items():
            steps = 0
            for key, policy_args in policies.items():
                out = self.work / "replay.csv"
                code = self.cli("simulate", "--world", self.inputs / "wide_world.json", *policy_args,
                                "--episodes", self.episodes, "--seed", seed, "--out", out)
                if code != 0:
                    problems.append(f"replay of seed {seed} exited with {code}")
                    continue
                rows, _, goals = trace_rows(out)
                steps += rows
                rate = sum(goals.values()) / self.episodes
                if rate != self.results[seed][key]:
                    problems.append(f"seed {seed}: {key} {self.results[seed][key]} but the replay reached {rate}")
            inspection.rows = steps
            inspection.counts["steps"] = steps
        return problems

    def success_rate(self):
        return sum(self.results[s]["candidate_rate"] for s in self.unit_seeds) / len(self.unit_seeds)


class MineFiles(Workload):
    """The file-based stages on a trace CSV ten times the loop's per-cycle data."""

    name = "mine-files"
    n_unit_seeds = 2

    def prepare(self):
        self.write_inputs()
        world = self.m.rover.load_world(self.inputs / "striped_world.json")
        self.m.knowledge.save_schema(self.m.rover.world_schema(world), self.inputs / "schema.json")
        write_json(self.inputs / "mining.json", self.config_json["mining"])
        code = self.cli("simulate", "--world", self.inputs / "striped_world.json",
                        "--episodes", 100 if self.small else MINE_EPISODES,
                        "--seed", derive(self.seed, self.name, "traces"),
                        "--explore", self.config_json["exploration"], "--out", self.inputs / "traces.csv")
        if code != 0:
            raise RuntimeError(f"generating the trace file failed with exit code {code}")
        self.trace_rows = trace_rows(self.inputs / "traces.csv")[0]

    def commands(self, seed: int, out: Path) -> list[tuple[list, list]]:
        """(argv, files the command reads) for each stage of one unit."""
        i = self.inputs
        mining = ["--config", i / "mining.json"]
        commands = []
        for rule, name in (("outcome-as-class", "perf"), ("strategy-as-class", "decision")):
            commands.append((["collect", "--traces", i / "traces.csv", "--world", i / "striped_world.json",
                              "--label-rule", rule, "--bins", self.config_json["bins"], "--out", out / f"{name}.csv"],
                             [i / "traces.csv", i / "striped_world.json"]))
        for name in ("perf", "decision"):
            data = out / f"{name}.csv"
            commands.append((["mine", "--data", data, "--algo", "tree", *mining, "--seed", seed,
                              "--out", out / f"{name}.model.json"],
                             [data, Path(f"{data}.meta.json"), i / "mining.json"]))
        data = out / "decision.csv"
        commands.append((["mine", "--data", data, "--algo", "apriori", *mining, "--out", out / "rules.model.json"],
                         [data, Path(f"{data}.meta.json"), i / "mining.json"]))
        commands.append((["compile", "--model", out / "decision.model.json", "--default",
                          self.world_json["strategies"][0], "--schema", i / "schema.json",
                          "--out", out / "tree.policy.json"],
                         [out / "decision.model.json", i / "schema.json"]))
        return commands

    def run(self, seed, out):
        for argv, _ in self.commands(seed, out):
            code = self.cli(*argv)
            if code != 0:
                return code
        return 0

    def inspect(self, seed, out):
        files = ["perf.model.json", "decision.model.json", "rules.model.json", "tree.policy.json"]
        digests = {name: sha256_file(out / name) for name in files}
        tree = read_json(out / "decision.model.json")["tree"]
        policy = self.m.policy.load_policy(out / "tree.policy.json")
        problems = []
        for terrain in self.world_json["terrains"]:
            values = {"terrain": terrain}
            if policy.decide(values) != tree_decision(tree["root"], values):
                problems.append(f"compiled policy and its tree disagree on terrain {terrain}")
        models = [read_json(out / f) for f in files[:3]]
        counts = {
            "rows": self.trace_rows,
            "dataset_rows": sum(m["evaluation"]["training_size"] for m in models[:2]),
            "trees_induced": trees_induced(models),
            "frequent_itemsets": models[2]["evaluation"]["n_frequent"],
            "rules": models[2]["evaluation"]["n_rules"],
            "rules_deployed": len(policy.ruleset.rules),
            "bytes_read": sum(p.stat().st_size for _, reads in self.commands(seed, out) for p in reads),
            "bytes_written": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        }
        if seed not in self.first:
            shutil.copyfile(out / "tree.policy.json", self.work / f"compiled-{seed}.policy.json")
        return Inspection(digests, self.trace_rows, counts, problems)

    def success_rate(self):
        rates = [self.heldout_rate(self.work / f"compiled-{s}.policy.json", s) for s in self.unit_seeds]
        return sum(rates) / len(rates)


WORKLOADS = {w.name: w for w in (LoopStriped, RolloutWide, MineFiles)}


def tail(times: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, as (value,
    percentile). Below 20 samples that percentile would lie under the median,
    so the maximum (percentile 100) stands in for it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100
    return ordered[n - 11], (100 * (n - 10)) // n


@dataclass
class Unit:
    index: int
    seed: int
    traced: bool
    seconds: float
    calibrated: float
    problems: list


def run_unit(wl: Workload, index: int, seed: int, tracer: Tracer | None) -> Unit:
    out = fresh_dir(wl.work / "unit")
    clock = wl.clock = Clock()
    wl.tracer = tracer
    if tracer is not None:
        tracer.unit = index
        tracer.install()
    try:
        code = wl.run(seed, out)
    except Exception:  # a crash in one unit is one failed unit, not a lost run
        code = None
        error = traceback.format_exc()
    if tracer is not None:
        tracer.uninstall()
    wl.tracer = wl.clock = None
    unit = Unit(index, seed, tracer is not None, clock.wall, clock.calibrated, [])
    if code != 0:
        unit.problems.append(f"unit {index}: " + (error.strip() if code is None else f"exit code {code}"))
        return unit
    inspection = wl.inspect(seed, out)
    unit.problems += [f"unit {index}: {p}" for p in inspection.problems]
    if wl.first.setdefault(seed, inspection).digests != inspection.digests:
        unit.problems.append(f"unit {index}: outputs of seed {seed} differ from its first run")
    return unit


def read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "metamine").rglob("*.py"))


def layer_metrics(tracer: Tracer, wl: Workload, units: list[Unit]) -> dict:
    traced = [u.index for u in units if u.traced]
    first_round, seen = [], set()
    for u in units:
        if u.traced and u.seed not in seen:
            seen.add(u.seed)
            first_round.append(u.index)

    # span times are rescaled by their unit's calibration, like the unit times
    scale = {u.index: u.calibrated / u.seconds if u.seconds else 1.0 for u in units}

    def busy(i, name, attr="busy"):
        return getattr(tracer.layers[i][name], attr) * scale[i] if name in tracer.layers[i] else 0.0

    def per_unit(names, attr="busy"):
        return statistics.median(sum(busy(i, n, attr) for n in names) for i in traced)

    def calls(name):
        return sum(tracer.layers[i][name].calls for i in first_round if name in tracer.layers[i])

    def count(name):
        return sum(tracer.counts[i][name] for i in first_round)

    def ratio(a, b):
        return a / b if b else 0.0

    cycle_busy = sum(busy(i, "cycle.run_cycle") for i in traced)
    cycle_self = sum(busy(i, "cycle.run_cycle", "self_time") for i in traced)
    run_seeded = sum(busy(i, "rover.run_seeded") for i in traced)
    values = {
        "cycle.run_cycle.self_s": per_unit(["cycle.run_cycle"], "self_time"),
        "cycle.run_cycle.covered_ratio": ratio(cycle_busy - cycle_self, cycle_busy),
        "cycle.cycles": count("cycle.cycles"),
        "cycle.deployed_ratio": ratio(count("cycle.deployed"), count("cycle.cycles")),
        "cycle.eval_episodes": count("cycle.eval_episodes"),
        "rover.episodes": count("rover.episodes"),
        "rover.steps": count("rover.steps"),
        "rover.steps_per_s": ratio(sum(tracer.counts[i]["rover.steps"] for i in traced), run_seeded),
        "rover.trace_bytes": count("rover.trace_bytes"),
        "introspection.rows_in": count("introspection.rows_in"),
        "introspection.rows_out": count("introspection.rows_out"),
        "introspection.kept_ratio": ratio(count("introspection.rows_out"), count("introspection.rows_in")),
        "mining.cross_validate.self_s": per_unit(["mining.cross_validate"], "self_time"),
        "mining.induce_tree.calls": calls("mining.induce_tree"),
        "mining.induce_tree.rows": count("mining.induce_tree.rows"),
        "mining.fit_rules_model.self_s": per_unit(["mining.fit_rules_model"], "self_time"),
        "mining.frequent_itemsets": count("mining.frequent_itemsets"),
        "mining.rules": count("mining.rules"),
        "policy.decide.calls": calls("policy.decide"),
        "policy.compile.busy_s": per_unit(COMPILE_SPANS),
        "policy.rules_deployed": sum(wl.first[s].counts["rules_deployed"] for s in seen),
        "trace.overhead_ratio": ratio(statistics.median(u.calibrated for u in units if u.traced),
                                      statistics.median(u.calibrated for u in units if not u.traced)),
    }
    for name, _ in PER_LAYER:
        if name not in values and name.endswith(".busy_s"):
            values[name] = per_unit([name[: -len(".busy_s")]])
    return values


def run_workload(program, name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    wl = WORKLOADS[name](program, seed, small)
    fresh_dir(wl.work)
    import_s = program.import_s
    import_cal = import_s * REF_NOMINAL_S / host_speed()
    prepare_s, prepare_cal = [], []
    for _ in range(SETUP_REPEATS):
        fresh_dir(wl.inputs)
        clock = Clock()
        clock.time(wl.prepare)
        prepare_s.append(clock.wall)
        prepare_cal.append(clock.calibrated)
    warm = run_unit(wl, -1, wl.unit_seeds[0], None)

    tracer = Tracer() if trace else None
    ref_before = host_speed()
    units: list[Unit] = []
    loop_start = perf_counter()
    index = 0
    while True:
        # at least one full round, so every unit seed has its counts, digests and success rate
        done = len(units) >= (2 if trace else 1) * len(wl.unit_seeds) and (not trace or index % 2 == 0)
        if done and perf_counter() - loop_start + statistics.median(u.seconds for u in units) > seconds:
            break
        if trace:
            pair = index // 2
            unit_seed = wl.unit_seeds[pair % len(wl.unit_seeds)]
            traced = (index + pair) % 2 == 1
        else:
            unit_seed = wl.unit_seeds[index % len(wl.unit_seeds)]
            traced = False
        units.append(run_unit(wl, index, unit_seed, tracer if traced else None))
        index += 1
    shutil.rmtree(wl.work / "unit", ignore_errors=True)
    ref_after = host_speed()

    problems = list(warm.problems) + [p for u in units for p in u.problems]
    problems += wl.finish()
    success = wl.success_rate()
    timed = [u for u in units if not u.traced]
    failed = sum(1 for u in units if u.problems)
    rows = sum(wl.first[u.seed].rows for u in timed)

    def timings(seconds: list[float], setup: float) -> dict:
        value, percentile = tail(seconds)
        return {"setup_s": setup, "unit_s.p50": statistics.median(seconds), "unit_s.tail": value,
                "unit_s.tail_percentile": percentile, "rows_per_s": rows / sum(seconds)}

    calibrated = timings([u.calibrated for u in timed],
                         import_cal + statistics.median(prepare_cal) + warm.calibrated)
    tail_pct = calibrated.pop("unit_s.tail_percentile")
    end_to_end = dict(calibrated, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      policy_success_rate=success)
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "units": len(units),
        "unit_seconds": [u.seconds for u in units],
        "unit_calibrated_seconds": [u.calibrated for u in units],
        "tail_percentile": tail_pct,
        "tail_samples": len(timed),
        "failed_ratio": failed / len(units),
        "end_to_end": end_to_end,
        "wall": timings([u.seconds for u in timed], import_s + statistics.median(prepare_s) + warm.seconds),
        "setup": {"import_s": import_s, "prepare_s": prepare_s, "warmup_s": warm.seconds},
        "context": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": read_commit(),
            "src_lines": src_lines(),
            "machine.ref_s": {"before": ref_before, "after": ref_after},
        },
        "counts": {str(s): wl.first[s].counts for s in wl.unit_seeds},
        "digests": {str(s): wl.first[s].digests for s in wl.unit_seeds},
        "problems": problems,
    }
    if trace:
        layers = layer_metrics(tracer, wl, units)
        report["per_layer"] = layers
        if name == LoopStriped.name and layers["cycle.run_cycle.covered_ratio"] < COVERAGE_FLOOR:
            problems.append(f"wrapped calls cover {layers['cycle.run_cycle.covered_ratio']:.3f} of "
                            f"cycle.run_cycle busy time, below {COVERAGE_FLOOR}")
        RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS / f"spans-{name}-{seed}.jsonl")
    shutil.rmtree(wl.work, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()
    return {"correct": not problems, "attempted": len(units), "failed": failed, "report": report}


def print_report(outcome: dict) -> None:
    report = outcome["report"]
    for key in ("context", "counts", "digests"):
        print(f"{report['workload']} {key} {json.dumps(report[key], sort_keys=True)}")
    e2e = report["end_to_end"]
    units = dict(END_TO_END)
    parts = [f"{name}={e2e[name]:.6g} {units[name]}" for name, _ in END_TO_END]
    parts.insert(3, f"(p{report['tail_percentile']} of {report['tail_samples']} units)")
    parts.append(f"failed_ratio={report['failed_ratio']:.6g} ratio ({outcome['failed']}/{outcome['attempted']})")
    print(f"{report['workload']} summary " + " ".join(parts))
    wall = report["wall"]
    print(f"{report['workload']} wall " + " ".join(
        f"{name}={wall[name]:.6g} {unit}" for name, unit in END_TO_END if name in wall)
        + f" (p{wall['unit_s.tail_percentile']}, uncalibrated)")
    if "per_layer" in report:
        print(f"{report['workload']} layers " + " ".join(
            f"{n}={report['per_layer'][n]:.6g} {u}" for n, u in PER_LAYER))
    for problem in report["problems"]:
        print(f"{report['workload']} problem {problem}")


def metrics_of(report: dict, trace: bool) -> dict:
    if trace:
        return {n: {"value": report["per_layer"][n], "unit": u} for n, u in PER_LAYER}
    return {n: {"value": report["end_to_end"][n], "unit": u} for n, u in END_TO_END}


def import_program():
    """metamine from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import metamine.cli
        import metamine.cycle
        import metamine.knowledge
        import metamine.policy
        import metamine.rover
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import metamine from {src}: {exc}")
    if Path(metamine.__file__).resolve().parent != src / "metamine":
        raise SystemExit(f"bench: metamine was imported from {metamine.__file__}, not from {src}")
    program = argparse.Namespace(cli=metamine.cli, cycle=metamine.cycle, knowledge=metamine.knowledge,
                                 policy=metamine.policy, rover=metamine.rover)
    program.import_s = perf_counter() - STARTED
    return program


def smoke(program) -> int:
    """Every workload at a tiny size, untraced and traced; checks that every
    metric BENCHMARK.json names is printed with its unit."""
    declared = read_json(ROOT / "BENCHMARK.json")
    ok = True
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        for name in WORKLOADS:
            outcome = run_workload(program, name, 1, 0.5, trace, small=True)
            print_report(outcome)
            metrics = metrics_of(outcome["report"], trace)
            for metric in declared[key]:
                got = metrics.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    print(f"smoke: {name} trace={int(trace)} lacks {metric['name']} [{metric['unit']}]")
                    ok = False
            ok = ok and outcome["correct"]
    print(f"smoke: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload that checks metric names")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    program = import_program()
    if args.smoke:
        return smoke(program)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        outcome = run_workload(program, name, args.seed, args.seconds, bool(args.trace), small=False)
        print_report(outcome)
        outcomes.append(outcome)
        RESULTS.mkdir(exist_ok=True)
        write_json(RESULTS / f"{name}-{args.seed}-trace{args.trace}.json", outcome["report"])
    metrics = {}
    for outcome in outcomes:
        prefix = f"{outcome['report']['workload']}." if len(outcomes) > 1 else ""
        for metric, value in metrics_of(outcome["report"], bool(args.trace)).items():
            metrics[prefix + metric] = value
    print(json.dumps({
        "correct": all(o["correct"] for o in outcomes),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
