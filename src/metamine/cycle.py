"""The gated mine-evaluate-deploy loop.

Each cycle runs training episodes under the incumbent policy (with
exploration so under-tried strategies still leave evidence), interprets
the traces two ways (outcome-labeled rows for performance monitoring,
success-filtered strategy-labeled rows for decision mining), mines
models, compiles the decision models into a candidate policy, and
deploys it only if the performance classifier cross-validates well
enough and the candidate, merged into the incumbent the way it would be
deployed, does not lose to the incumbent on paired held-out episodes.
Rejected cycles leave the incumbent untouched, byte for byte.

A cycle's decision says how far through the six phases it got; each
number it computed sits in one report field, None where the phase that
computes it never ran.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable

from .errors import ConsistencyError
from .introspection import MAX_BINS, featurise
from .jsonio import decode
from .knowledge import float_sum, is_int, is_number
from .mining import MetaModel, MiningConfig, fit_rules_model, fit_tree_model
from .policy import (
    INTEGRATION_MODES,
    Policy,
    compile_policy,
    initial_policy,
    integrate_policies,
    policy_id,
    policy_to_json,
    rules_to_ruleset,
    tree_to_rules,
)
from .rover import OUTCOME_SUCCESS, EpisodeTrace, GridWorld, rollout, route_table, run_seeded, world_schema
from .seeds import derive_seed, derive_seeds

DECISIONS = ("deployed", "rejected-accuracy", "rejected-heldout", "insufficient-data")
MODEL_KINDS = ("tree", "rules", "both")

TraceSink = Callable[[int, list[EpisodeTrace]], None]


@dataclass(frozen=True)
class AcceptanceGates:
    """Deployment thresholds: minimum CV accuracy of the performance
    classifier and minimum paired held-out success delta."""

    min_cv_accuracy: float
    min_heldout_delta: float

    def __post_init__(self):
        if not is_number(self.min_cv_accuracy) or not 0.0 <= self.min_cv_accuracy <= 1.0:
            raise ConsistencyError("BadThreshold", f"min_cv_accuracy must be in [0, 1], got {self.min_cv_accuracy!r}")
        if not is_number(self.min_heldout_delta) or not -1.0 <= self.min_heldout_delta <= 1.0:
            raise ConsistencyError("BadThreshold", f"min_heldout_delta must be in [-1, 1], got {self.min_heldout_delta!r}")


@dataclass(frozen=True)
class CycleConfig:
    training_episodes: int
    evaluation_episodes: int
    mining: MiningConfig
    acceptance: AcceptanceGates
    master_seed: int
    model_kind: str = "both"
    integration_mode: str = "override"
    exploration: float = 0.3
    bins: int = 4

    def __post_init__(self):
        for name in ("training_episodes", "evaluation_episodes"):
            v = getattr(self, name)
            if not is_int(v) or v < 1:
                raise ConsistencyError("BadConfig", f"{name} must be >= 1, got {v!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ConsistencyError("BadConfig", f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")
        if self.integration_mode not in INTEGRATION_MODES:
            raise ConsistencyError("BadConfig", f"integration_mode must be one of {INTEGRATION_MODES}, got {self.integration_mode!r}")
        if not is_int(self.master_seed):
            raise ConsistencyError("BadConfig", f"master_seed must be an integer, got {self.master_seed!r}")
        if not is_number(self.exploration) or not 0.0 <= self.exploration <= 1.0:
            raise ConsistencyError("BadConfig", f"exploration must be in [0, 1], got {self.exploration!r}")
        if not is_int(self.bins) or not 1 <= self.bins <= MAX_BINS:
            raise ConsistencyError("BadConfig", f"bins must be from 1 to {MAX_BINS}, got {self.bins!r}")


def cycle_config_from_json(obj: Any) -> CycleConfig:
    return decode(CycleConfig, obj, "cycle config", mining=MiningConfig, acceptance=AcceptanceGates)


@dataclass(frozen=True)
class EvalResult:
    incumbent_rate: float
    candidate_rate: float
    delta: float
    incumbent_mean_reward: float
    candidate_mean_reward: float


@dataclass(frozen=True)
class CycleReport:
    index: int
    decision: str
    reason: str
    pre_policy_id: str
    post_policy_id: str
    dataset_sizes: dict
    training_goal_rate: float
    # None (or no models) where the phase that computes it never ran
    models: tuple[dict, ...] = ()
    cv_accuracy: float | None = None
    candidate_rules: int | None = None
    heldout: EvalResult | None = None

    def __post_init__(self):
        if self.decision not in DECISIONS:
            raise ConsistencyError("BadDecision", f"unknown gate decision {self.decision!r}")
        if self.decision != "deployed" and self.post_policy_id != self.pre_policy_id:
            raise ConsistencyError("GateViolation", "non-deployed cycle must keep the incumbent policy")


def goal_rate_and_mean_reward(goals: int, reward_sums: list[float]) -> tuple[float, float]:
    """Share of episodes that reached the goal, and the mean of their
    reward sums, from a rollout's output."""
    total = float_sum(reward_sums)
    if not abs(total) <= sys.float_info.max:
        raise ConsistencyError("BadReward", f"the reward sum of {len(reward_sums)} episodes is not a finite number")
    return goals / len(reward_sums), total / len(reward_sums)


def evaluate_candidate(world: GridWorld, incumbent: Policy, candidate: Policy, n: int, seed: int) -> EvalResult:
    """Paired comparison: both policies run the same n episode seeds with
    no exploration; delta is candidate rate minus incumbent rate.

    One rollout walks both route tables in lockstep, each seed seeded
    once. A candidate whose route table has the incumbent's hazards takes
    the same draws to the same outcomes, so the incumbent's table is walked
    alone and stands for it."""
    if not is_int(n) or n < 1:
        raise ConsistencyError("BadCount", f"evaluation episode count must be >= 1, got {n!r}")
    seeds = derive_seeds(seed, n=n)
    inc_table = route_table(world, incumbent)
    cand_table = route_table(world, candidate)
    outcomes = rollout(world, [inc_table] if cand_table.hazards == inc_table.hazards else [inc_table, cand_table],
                       seeds)
    inc_rate, inc_reward = goal_rate_and_mean_reward(*outcomes[0])
    cand_rate, cand_reward = goal_rate_and_mean_reward(*outcomes[-1])
    return EvalResult(
        incumbent_rate=inc_rate,
        candidate_rate=cand_rate,
        delta=cand_rate - inc_rate,
        incumbent_mean_reward=inc_reward,
        candidate_mean_reward=cand_reward,
    )


def _model_summary(role: str, model: MetaModel) -> dict:
    return {
        "role": role,
        "kind": model.kind,
        "label_attribute": model.label_attribute,
        "scope": model.scope,
        "evaluation": model.evaluation,
    }


def run_cycle(world: GridWorld, incumbent: Policy, config: CycleConfig, cycle_index: int,
              trace_sink: TraceSink | None = None) -> tuple[Policy, CycleReport]:
    """One augmented cycle; returns the next policy and a full report.

    Unmineable training data (no successful rows, a single outcome
    class, or fewer rows than CV folds) yields the insufficient-data
    outcome with the incumbent unchanged, not an error.
    """
    if not is_int(cycle_index) or cycle_index < 1:
        raise ConsistencyError("BadIndex", f"cycle_index must be >= 1, got {cycle_index!r}")
    schema = world_schema(world)
    pre_id = policy_id(incumbent)
    # the report fields past the ids, each set where the cycle computes it
    found: dict[str, Any] = {}

    def end(decision: str, reason: str, post: Policy = incumbent, post_id: str = pre_id) -> tuple[Policy, CycleReport]:
        return post, CycleReport(cycle_index, decision, reason, pre_id, post_id, **found)

    # data understanding: run the system and look at what came back
    train_seeds = derive_seeds(config.master_seed, "cycle", cycle_index, "train", n=config.training_episodes)
    traces = run_seeded(world, incumbent, train_seeds, explore=config.exploration)
    if trace_sink is not None:
        trace_sink(cycle_index, traces)
    # every record is a performance row, labeled with its outcome; the successful ones are decision rows
    perf_dataset = featurise(traces, schema, "outcome-as-class", config.bins)
    decision_rows = sum(count for row, count in perf_dataset.patterns().items() if row[-1] == OUTCOME_SUCCESS)
    found["dataset_sizes"] = {"performance": len(perf_dataset), "decision": decision_rows}
    found["training_goal_rate"] = sum(t.reached_goal for t in traces) / len(traces)

    # data preparation: the strategy-labeled view of the same traces
    decision_dataset = featurise(traces, schema, "strategy-as-class", config.bins) if decision_rows else None
    if decision_rows == 0:
        return end("insufficient-data", "no successful decisions to learn from")
    if decision_rows == len(perf_dataset):  # some rows succeeded, so one outcome means all did
        return end("insufficient-data", "every step had the same outcome; nothing to classify")
    if len(perf_dataset) < config.mining.cv_folds:
        return end("insufficient-data", "fewer rows than cross-validation folds")

    # modelling: performance classifier (gates) + decision models (deploy)
    perf_model = fit_tree_model(perf_dataset, config.mining)
    found["cv_accuracy"] = cv_mean = perf_model.evaluation["cv_mean"]
    decision_models: list[MetaModel] = []
    if config.model_kind in ("tree", "both"):
        decision_models.append(fit_tree_model(decision_dataset, config.mining))
    if config.model_kind in ("rules", "both"):
        decision_models.append(fit_rules_model(decision_dataset, config.mining))
    found["models"] = tuple([_model_summary("performance", perf_model)]
                            + [_model_summary("decision", m) for m in decision_models])

    # operationalisation: compile the decision models into one candidate
    mined = []
    for model in decision_models:
        if model.kind == "tree":
            mined.extend(tree_to_rules(model.tree, schema.class_attribute))
        else:  # fit_rules_model kept only rules at or above min_confidence
            mined.extend(rules_to_ruleset(model.rules, schema.class_attribute))
    candidate = compile_policy(mined, schema.class_attribute, incumbent.default_action, schema=schema, provenance={
        "cycle": cycle_index,
        "sources": [m.kind for m in decision_models],
    })
    found["candidate_rules"] = len(candidate.ruleset.rules)

    # evaluation: CV gate first, held-out comparison second
    if cv_mean < config.acceptance.min_cv_accuracy:
        return end("rejected-accuracy", f"performance model cv accuracy {cv_mean:.4f} "
                                        f"below threshold {config.acceptance.min_cv_accuracy}")
    # the gate judges the policy that would ship, not the bare candidate
    deployed = integrate_policies(incumbent, candidate, config.integration_mode)
    found["heldout"] = heldout = evaluate_candidate(world, incumbent, deployed, config.evaluation_episodes,
                                                    derive_seed(config.master_seed, "cycle", cycle_index, "eval"))
    if heldout.delta < config.acceptance.min_heldout_delta:
        return end("rejected-heldout", f"held-out delta {heldout.delta:+.4f} below threshold "
                                       f"{config.acceptance.min_heldout_delta}")

    # deployment: hand the integrated policy to the next cycle
    return end("deployed", "both gates passed", deployed, policy_id(deployed))


@dataclass(frozen=True)
class ExperimentReport:
    config: CycleConfig
    baseline: dict
    cycles: tuple[CycleReport, ...]
    final_policy: Policy

    def __post_init__(self):
        if tuple(c.index for c in self.cycles) != tuple(range(1, len(self.cycles) + 1)):
            raise ConsistencyError("BadIndex", "cycle indices must be contiguous from 1")


def run_experiment(world: GridWorld, config: CycleConfig, n_cycles: int,
                   trace_sink: TraceSink | None = None) -> ExperimentReport:
    """Chain n_cycles cycles from the default policy, recording a fixed
    baseline measurement and every cycle report along the way."""
    if not is_int(n_cycles) or n_cycles < 0:
        raise ConsistencyError("BadCount", f"n_cycles must be >= 0, got {n_cycles!r}")
    schema = world_schema(world)
    policy = initial_policy(schema)
    base_seeds = derive_seeds(config.master_seed, "baseline", n=config.evaluation_episodes)
    [outcome] = rollout(world, [route_table(world, policy)], base_seeds)
    success_rate, mean_reward = goal_rate_and_mean_reward(*outcome)
    baseline = {
        "policy": policy_id(policy),
        "success_rate": success_rate,
        "mean_reward": mean_reward,
    }
    reports = []
    for index in range(1, n_cycles + 1):
        policy, report = run_cycle(world, policy, config, index, trace_sink=trace_sink)
        reports.append(report)
    return ExperimentReport(config, baseline, tuple(reports), policy)


def experiment_to_json(experiment: ExperimentReport) -> dict:
    return {
        "config": asdict(experiment.config),
        "baseline": experiment.baseline,
        "cycles": [asdict(c) for c in experiment.cycles],
        "final_policy": policy_to_json(experiment.final_policy),
        "final_policy_id": policy_id(experiment.final_policy),
    }


CSV_COLUMNS = ("index", "dataset_size", "cv_accuracy", "incumbent_rate", "candidate_rate", "delta", "decision")


def cycles_csv(experiment: ExperimentReport) -> str:
    """Flat per-cycle summary, one row per cycle: numbers as repr(float(v)),
    and empty cells where a phase never ran."""
    lines = [",".join(CSV_COLUMNS)]
    for c in experiment.cycles:
        h = c.heldout
        rates = (None,) * 3 if h is None else (h.incumbent_rate, h.candidate_rate, h.delta)
        cells = ("" if v is None else repr(float(v)) for v in (c.cv_accuracy, *rates))
        lines.append(",".join([str(c.index), str(c.dataset_sizes["performance"]), *cells, c.decision]))
    return "\n".join(lines) + "\n"
