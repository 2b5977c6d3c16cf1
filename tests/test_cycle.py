"""Gated adaptation cycles: gate decisions, cycle reports and experiment reports."""

from dataclasses import asdict

import pytest

import metamine.cycle
import metamine.policy
import rollout_reference
from helpers import fixed_policy, loop_config, striped_world, terrain_policy, tiny_world, uniform_hazard_world
from metamine.cycle import (
    CSV_COLUMNS,
    DECISIONS,
    AcceptanceGates,
    CycleConfig,
    CycleReport,
    EvalResult,
    ExperimentReport,
    cycle_config_from_json,
    cycles_csv,
    evaluate_candidate,
    experiment_to_json,
    goal_rate_and_mean_reward,
    run_cycle,
    run_experiment,
)
from metamine.errors import ConsistencyError, InputFormatError
from metamine.introspection import MAX_BINS
from metamine.jsonio import canonical_dumps
from metamine.mining import MiningConfig
from metamine.policy import initial_policy, policy_id, policy_to_json
from metamine.rover import GridWorld, Rewards, route_table, world_schema
from metamine.seeds import derive_seed


def start_policy(world):
    return initial_policy(world_schema(world))


class TestConfigValidation:
    def test_bad_values_rejected(self):
        good = loop_config(1)
        with pytest.raises(ConsistencyError):
            loop_config(1, training_episodes=0)
        with pytest.raises(ConsistencyError):
            loop_config(1, model_kind="forest")
        with pytest.raises(ConsistencyError):
            loop_config(1, integration_mode="swap")
        with pytest.raises(ConsistencyError):
            loop_config(1, exploration=1.5)
        with pytest.raises(ConsistencyError):
            loop_config(1, bins=0)
        with pytest.raises(ConsistencyError):
            loop_config(1, bins=MAX_BINS + 1)
        with pytest.raises(ConsistencyError):
            AcceptanceGates(1.2, 0.0)
        with pytest.raises(ConsistencyError):
            AcceptanceGates(0.5, -2.0)
        assert good.exploration == 0.8

    def test_json_round_trip_is_byte_identical(self):
        config = loop_config(17)
        blob = canonical_dumps(asdict(config))
        again = cycle_config_from_json(asdict(config))
        assert again == config
        assert canonical_dumps(asdict(again)) == blob

    def test_unknown_fields_rejected(self):
        payload = asdict(loop_config(1))
        payload["episodes"] = 5
        with pytest.raises(InputFormatError) as err:
            cycle_config_from_json(payload)
        assert err.value.code == "UnknownField"

    def test_missing_gate_field_rejected(self):
        payload = asdict(loop_config(1))
        del payload["acceptance"]["min_cv_accuracy"]
        with pytest.raises(InputFormatError):
            cycle_config_from_json(payload)


class TestEvaluateCandidate:
    def test_identical_policies_tie_exactly(self):
        world = striped_world()
        policy = fixed_policy("FAST")
        result = evaluate_candidate(world, policy, policy, 60, seed=4)
        assert result.delta == 0.0
        assert result.incumbent_rate == result.candidate_rate
        assert result.incumbent_mean_reward == result.candidate_mean_reward

    @pytest.mark.parametrize("world, incumbent, candidate", [
        # two rule lists that decide alike on every terrain
        (striped_world(), terrain_policy({"sand": "CAREFUL", "ice": "CAREFUL"}, "FAST"),
         terrain_policy({"sand": "CAREFUL", "ice": "CAREFUL", "rock": "FAST"}, "CAREFUL")),
        # different actions that share every hazard
        (uniform_hazard_world(0.3), fixed_policy("FAST"), fixed_policy("CAREFUL")),
    ])
    def test_equal_route_tables_share_one_rollout(self, monkeypatch, world, incumbent, candidate):
        calls = []
        real = metamine.cycle.rollout
        monkeypatch.setattr(metamine.cycle, "rollout", lambda *args: calls.append(args) or real(*args))
        result = evaluate_candidate(world, incumbent, candidate, 60, seed=4)
        assert len(calls) == 1
        assert len(calls[0][1]) == 1  # one walk of one table stands for both policies
        assert result.delta == 0.0
        assert result.incumbent_rate == result.candidate_rate
        assert result.incumbent_mean_reward == result.candidate_mean_reward

    def test_better_candidate_shows_positive_delta(self):
        world = striped_world()
        aware = terrain_policy({"sand": "CAREFUL", "ice": "CAREFUL"}, "FAST")
        result = evaluate_candidate(world, fixed_policy("FAST"), aware, 200, seed=4)
        assert result.delta > 0.3
        assert result.candidate_rate > 0.9

    def test_is_deterministic(self):
        world = striped_world()
        a = evaluate_candidate(world, fixed_policy("FAST"), fixed_policy("CAREFUL"), 50, seed=7)
        b = evaluate_candidate(world, fixed_policy("FAST"), fixed_policy("CAREFUL"), 50, seed=7)
        assert a == b

    def test_mean_reward_adds_the_episodes_left_to_right(self):
        """The same bytes on every Python: sum() compensates its rounding
        since 3.12 and would give 0.1 here."""
        assert goal_rate_and_mean_reward(4, [0.1] * 10) == (0.4, 0.09999999999999999)

    def test_count_must_be_positive(self):
        with pytest.raises(ConsistencyError):
            evaluate_candidate(striped_world(), fixed_policy("FAST"), fixed_policy("FAST"), 0, seed=1)
        with pytest.raises(ConsistencyError):
            evaluate_candidate(striped_world(), fixed_policy("FAST"), fixed_policy("FAST"), True, seed=1)


class TestReportInvariants:
    @staticmethod
    def minimal(index=1, decision="insufficient-data", pre="aaa", post="aaa"):
        return CycleReport(index=index, decision=decision, reason="r", pre_policy_id=pre, post_policy_id=post,
                           dataset_sizes={}, training_goal_rate=0.5)

    def test_unknown_decision_rejected(self):
        with pytest.raises(ConsistencyError):
            self.minimal(decision="maybe")

    def test_non_deployed_cycle_may_not_change_the_policy(self):
        with pytest.raises(ConsistencyError) as err:
            self.minimal(decision="rejected-accuracy", pre="aaa", post="bbb")
        assert err.value.code == "GateViolation"

    def test_experiment_indices_must_be_contiguous_from_one(self):
        config = loop_config(1)
        policy = start_policy(striped_world())
        with pytest.raises(ConsistencyError):
            ExperimentReport(config, {}, (self.minimal(index=2),), policy)


# one first cycle per gate decision: (world, config, decision)
EACH_DECISION = [
    pytest.param(striped_world, loop_config(5), "deployed", id="deployed"),
    pytest.param(striped_world, loop_config(5, acceptance=AcceptanceGates(1.0, 0.0)), "rejected-accuracy",
                 id="rejected-accuracy"),
    pytest.param(striped_world, loop_config(5, acceptance=AcceptanceGates(0.65, 1.0)), "rejected-heldout",
                 id="rejected-heldout"),
    pytest.param(lambda: uniform_hazard_world(0.0), loop_config(3, training_episodes=20), "insufficient-data",
                 id="insufficient-data"),
]


class TestCycleFacts:
    @pytest.mark.parametrize("make_world, config, decision", EACH_DECISION)
    def test_goal_rate_always_set_and_rule_count_once_operationalised(self, monkeypatch, make_world, config,
                                                                     decision):
        """The training goal rate is set on every decision; the candidate's
        rule count is None exactly where the cycle stopped before
        operationalisation (insufficient data)."""
        compiled = []
        real = metamine.cycle.compile_policy
        monkeypatch.setattr(metamine.cycle, "compile_policy",
                            lambda *args, **kwargs: compiled.append(real(*args, **kwargs)) or compiled[-1])
        traces = []
        world = make_world()
        _, report = run_cycle(world, start_policy(world), config, 1, trace_sink=lambda _, t: traces.extend(t))
        assert report.decision == decision
        assert report.training_goal_rate == sum(t.reached_goal for t in traces) / len(traces)
        if decision == "insufficient-data":
            assert compiled == [] and report.candidate_rules is None
        else:
            [candidate] = compiled
            assert report.candidate_rules == len(candidate.ruleset.rules) > 0

    def test_a_replacing_deployment_ships_the_candidates_rules(self):
        world = striped_world()
        deployed, report = run_cycle(world, start_policy(world), loop_config(5, integration_mode="replace"), 1)
        assert report.decision == "deployed"
        assert report.candidate_rules == len(deployed.ruleset.rules)
        assert 0.0 < report.training_goal_rate < 1.0


class TestPolicyHashes:
    @pytest.mark.parametrize("make_world, config, decision", EACH_DECISION)
    def test_a_cycle_hashes_the_incumbent_and_only_a_policy_it_deploys(self, monkeypatch, make_world, config,
                                                                      decision):
        """The bare candidate is never written, so it is never hashed."""
        hashed = []
        real = metamine.cycle.policy_id
        monkeypatch.setattr(metamine.cycle, "policy_id", lambda policy: hashed.append(policy) or real(policy))
        world = make_world()
        incumbent = start_policy(world)
        next_policy, report = run_cycle(world, incumbent, config, 1)
        assert report.decision == decision
        assert hashed == ([incumbent, next_policy] if decision == "deployed" else [incumbent])


class TestPolicyHashedOnce:
    def test_an_all_deployed_experiment_hashes_each_policy_once(self, monkeypatch):
        """Four distinct policies (the initial one and three deployed ones)
        take four content hashes: a cycle's incumbent and the final policy
        reuse the id their policy object already holds."""
        hashed = []
        real = metamine.policy.content_id
        monkeypatch.setattr(metamine.policy, "content_id", lambda obj: hashed.append(obj) or real(obj))
        experiment = run_experiment(striped_world(), loop_config(1), 3)
        assert [c.decision for c in experiment.cycles] == ["deployed"] * 3
        blob = experiment_to_json(experiment)
        assert len(hashed) == 4
        assert [blob["baseline"]["policy"]] + [c["post_policy_id"] for c in blob["cycles"]] == [
            real(obj) for obj in hashed]


class TestDeployedExactRate:
    @pytest.mark.parametrize("mode", ["override", "append"])
    def test_no_deploy_lowers_the_exact_goal_rate(self, mode):
        """Over master seeds 1-5 and 3 cycles of the frozen loop config (the
        bench's loop_config.json) on the striped world, every deployed
        policy's exact goal rate, the route DP on its route table's hazards,
        is at least its incumbent's."""
        world = striped_world()

        def exact(policy):
            return rollout_reference.exact_goal_rate(route_table(world, policy).hazards, world.max_steps)

        deltas = []
        for master in range(1, 6):
            policy = start_policy(world)
            for index in range(1, 4):
                deployed, report = run_cycle(world, policy, loop_config(master, integration_mode=mode), index)
                if report.decision == "deployed":
                    deltas.append(exact(deployed) - exact(policy))
                policy = deployed
        assert deltas and min(deltas) >= 0.0, deltas


class TestRunCycleDeployed:
    def test_full_deployment_flow(self):
        world = striped_world()
        incumbent = start_policy(world)
        next_policy, report = run_cycle(world, incumbent, loop_config(5), 1)
        assert report.decision == "deployed"
        assert report.reason == "both gates passed"
        assert report.candidate_rules > 0
        assert report.pre_policy_id == policy_id(incumbent)
        assert report.post_policy_id == policy_id(next_policy) != report.pre_policy_id
        assert report.cv_accuracy >= 0.65
        assert report.cv_accuracy == report.models[0]["evaluation"]["cv_mean"]
        assert report.heldout.delta >= 0.0
        assert report.dataset_sizes["performance"] >= report.dataset_sizes["decision"] > 0
        roles = [m["role"] for m in report.models]
        assert roles == ["performance", "decision", "decision"]
        kinds = {m["kind"] for m in report.models if m["role"] == "decision"}
        assert kinds == {"tree", "rules"}
        for m in report.models:
            assert set(m) == {"role", "kind", "label_attribute", "scope", "evaluation"}
        rules = next(m for m in report.models if m["kind"] == "rules")
        assert rules["evaluation"]["n_rules"] > 0

    def test_deployed_policy_prefers_careful_on_hazardous_terrain(self):
        world = striped_world()
        next_policy, report = run_cycle(world, start_policy(world), loop_config(5), 1)
        assert report.decision == "deployed"
        assert next_policy.decide({"terrain": "sand"}) == "CAREFUL"
        assert next_policy.decide({"terrain": "ice"}) == "CAREFUL"

    @pytest.mark.parametrize("mode", ["override", "append", "replace"])
    def test_reported_candidate_rate_is_the_deployed_policys_rate(self, mode):
        world = striped_world()
        incumbent = start_policy(world)
        config = loop_config(4, integration_mode=mode)
        deployed, report = run_cycle(world, incumbent, config, 1)
        assert report.decision == "deployed"
        replay = evaluate_candidate(world, incumbent, deployed, config.evaluation_episodes,
                                    derive_seed(4, "cycle", 1, "eval"))
        assert replay == report.heldout

    def test_append_mode_deployment_changes_a_decision(self):
        world = striped_world()
        incumbent = start_policy(world)
        deployed, report = run_cycle(world, incumbent, loop_config(4, integration_mode="append"), 1)
        assert report.decision == "deployed"
        assert any(deployed.decide({"terrain": t}) != incumbent.decide({"terrain": t}) for t in world.terrains)

    def test_cycle_index_must_be_positive(self):
        world = striped_world()
        with pytest.raises(ConsistencyError):
            run_cycle(world, start_policy(world), loop_config(1), 0)


class TestRunCycleRejections:
    def test_unreachable_cv_gate_rejects_on_accuracy(self):
        world = striped_world()
        incumbent = start_policy(world)
        config = loop_config(5, acceptance=AcceptanceGates(1.0, 0.0))
        next_policy, report = run_cycle(world, incumbent, config, 1)
        assert report.decision == "rejected-accuracy"
        assert next_policy == incumbent
        assert report.post_policy_id == report.pre_policy_id
        assert report.heldout is None
        assert report.cv_accuracy < 1.0
        assert f"cv accuracy {report.cv_accuracy:.4f}" in report.reason
        assert report.candidate_rules > 0

    def test_unreachable_delta_gate_rejects_on_heldout(self):
        world = striped_world()
        incumbent = start_policy(world)
        config = loop_config(5, acceptance=AcceptanceGates(0.65, 1.0))
        next_policy, report = run_cycle(world, incumbent, config, 1)
        assert report.decision == "rejected-heldout"
        assert next_policy == incumbent
        assert report.post_policy_id == report.pre_policy_id
        assert report.heldout is not None and report.heldout.delta < 1.0
        assert report.candidate_rules > 0


class TestRunCycleInsufficientData:
    def test_uniform_success_leaves_nothing_to_classify(self):
        world = uniform_hazard_world(0.0)
        incumbent = start_policy(world)
        next_policy, report = run_cycle(world, incumbent, loop_config(3, training_episodes=20), 1)
        assert report.decision == "insufficient-data"
        assert "same outcome" in report.reason
        assert next_policy == incumbent
        assert report.post_policy_id == report.pre_policy_id
        assert report.models == () and report.cv_accuracy is None
        assert report.training_goal_rate == 1.0
        assert report.candidate_rules is None and report.heldout is None

    def test_uniform_failure_leaves_no_decisions_to_imitate(self):
        world = uniform_hazard_world(1.0)
        incumbent = start_policy(world)
        next_policy, report = run_cycle(world, incumbent, loop_config(3, training_episodes=10), 1)
        assert report.decision == "insufficient-data"
        assert "no successful decisions" in report.reason
        assert report.dataset_sizes["decision"] == 0
        assert next_policy == incumbent

    def test_fewer_rows_than_folds(self):
        world = GridWorld(2, 1, ("flat",), (("flat", "flat"),), (0, 0), (1, 0),
                          ("FAST", "CAREFUL"),
                          {("flat", "FAST"): 0.5, ("flat", "CAREFUL"): 0.5},
                          Rewards(1.0, 2.0, 10.0), max_steps=1)
        incumbent = start_policy(world)
        hit = None
        for master_seed in range(60):
            config = loop_config(master_seed, training_episodes=3, evaluation_episodes=2,
                                 exploration=0.0)
            _, report = run_cycle(world, incumbent, config, 1)
            if report.decision == "insufficient-data" and "folds" in report.reason:
                hit = report
                break
        assert hit is not None, "no seed produced mixed outcomes with fewer rows than folds"
        assert hit.dataset_sizes["performance"] < 5
        assert hit.post_policy_id == hit.pre_policy_id


class TestRunExperiment:
    def test_zero_cycles_keeps_the_initial_policy(self):
        world = striped_world()
        experiment = run_experiment(world, loop_config(2, evaluation_episodes=30), 0)
        assert experiment.cycles == ()
        assert experiment.final_policy == start_policy(world)
        assert experiment.baseline["policy"] == policy_id(experiment.final_policy)
        assert set(experiment.baseline) == {"policy", "success_rate", "mean_reward"}  # the config has the episodes
        assert 0.0 <= experiment.baseline["success_rate"] <= 1.0

    def test_cycles_chain_their_policies(self):
        world = striped_world()
        experiment = run_experiment(world, loop_config(5), 3)
        assert [c.index for c in experiment.cycles] == [1, 2, 3]
        assert experiment.cycles[0].pre_policy_id == experiment.baseline["policy"]
        for prev, nxt in zip(experiment.cycles, experiment.cycles[1:]):
            assert nxt.pre_policy_id == prev.post_policy_id
        assert experiment.cycles[-1].post_policy_id == policy_id(experiment.final_policy)

    @pytest.mark.parametrize("mode", ["override", "append"])
    def test_provenance_names_each_source_once_over_six_cycles(self, mode):
        world = striped_world()
        experiment = run_experiment(world, loop_config(4, integration_mode=mode), 6)
        assert sum(c.decision == "deployed" for c in experiment.cycles) >= 2
        assert experiment.final_policy.provenance["sources"] == ["tree", "rules", "default"]

    def test_deployed_cycles_never_lose_on_heldout_seeds(self):
        world = striped_world()
        experiment = run_experiment(world, loop_config(5), 3)
        deployed = [c for c in experiment.cycles if c.decision == "deployed"]
        assert deployed
        for cycle in deployed:
            assert cycle.heldout.candidate_rate >= cycle.heldout.incumbent_rate

    def test_experiment_json_is_deterministic(self):
        world = striped_world()
        config = loop_config(9, training_episodes=80, evaluation_episodes=40)
        a = experiment_to_json(run_experiment(world, config, 2))
        b = experiment_to_json(run_experiment(world, config, 2))
        assert canonical_dumps(a) == canonical_dumps(b)

    def test_master_seed_changes_the_traces(self):
        world = striped_world()
        collected = {}

        def sink_for(name):
            def sink(index, traces):
                collected.setdefault(name, {})[index] = traces
            return sink

        run_experiment(world, loop_config(9, training_episodes=40, evaluation_episodes=20), 1,
                       trace_sink=sink_for("a"))
        run_experiment(world, loop_config(10, training_episodes=40, evaluation_episodes=20), 1,
                       trace_sink=sink_for("b"))
        assert collected["a"][1] != collected["b"][1]
        assert len(collected["a"][1]) == 40


class TestCyclesCsv:
    def test_columns_and_rows(self):
        world = striped_world()
        experiment = run_experiment(world, loop_config(5), 2)
        text = cycles_csv(experiment)
        lines = text.strip().splitlines()
        assert lines[0] == "index,dataset_size,cv_accuracy,incumbent_rate,candidate_rate,delta,decision"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[-1] == experiment.cycles[0].decision

    def test_skipped_phases_leave_empty_cells(self):
        world = uniform_hazard_world(0.0)
        experiment = run_experiment(world, loop_config(3, training_episodes=10, evaluation_episodes=5), 1)
        row = cycles_csv(experiment).strip().splitlines()[1].split(",")
        assert row[-1] == "insufficient-data"
        assert row[2] == "" and row[3] == "" and row[4] == "" and row[5] == ""

    @staticmethod
    def one_cycle(decision, cv_accuracy=None, heldout=None, size=12):
        cycle = CycleReport(index=1, decision=decision, reason="r", pre_policy_id="aaa",
                            post_policy_id="bbb" if decision == "deployed" else "aaa",
                            dataset_sizes={"performance": size, "decision": 0}, training_goal_rate=0.5,
                            cv_accuracy=cv_accuracy, heldout=heldout)
        return ExperimentReport(loop_config(1), {}, (cycle,), start_policy(striped_world()))

    def test_no_cycles_is_the_header_alone(self):
        experiment = run_experiment(striped_world(), loop_config(2, evaluation_episodes=10), 0)
        assert cycles_csv(experiment) == ",".join(CSV_COLUMNS) + "\n"

    @pytest.mark.parametrize("decision, cv_accuracy, heldout, row", [
        ("deployed", 0.75, EvalResult(0.5, 0.625, 0.125, 1.0, 2.0), "1,12,0.75,0.5,0.625,0.125,deployed"),
        ("rejected-accuracy", 0.25, None, "1,12,0.25,,,,rejected-accuracy"),
        ("rejected-heldout", 1.0, EvalResult(0.5, 0.25, -0.25, 1.0, 0.5), "1,12,1.0,0.5,0.25,-0.25,rejected-heldout"),
        ("insufficient-data", None, None, "1,12,,,,,insufficient-data"),
    ], ids=DECISIONS)
    def test_each_decision_renders_its_row(self, decision, cv_accuracy, heldout, row):
        text = cycles_csv(self.one_cycle(decision, cv_accuracy, heldout))
        assert text == ",".join(CSV_COLUMNS) + "\n" + row + "\n"

    @pytest.mark.parametrize("value, cell", [
        (0, "0.0"), (1, "1.0"), (0.1, "0.1"), (-0.5, "-0.5"), (1 / 3, "0.3333333333333333"),
    ], ids=["int-zero", "int-one", "tenth", "negative", "third"])
    def test_numbers_render_as_their_float_repr(self, value, cell):
        heldout = EvalResult(value, value, value, 0.0, 0.0)
        row = cycles_csv(self.one_cycle("deployed", value, heldout)).splitlines()[1]
        assert row == f"1,12,{cell},{cell},{cell},{cell},deployed"

    @pytest.mark.parametrize("decision", ["x,y\nz", "deployed\n", "deployed,", ""],
                             ids=["comma-and-newline", "trailing-newline", "trailing-comma", "empty"])
    def test_a_decision_that_could_break_a_row_never_reaches_the_csv(self, decision):
        with pytest.raises(ConsistencyError) as err:
            self.one_cycle(decision)
        assert err.value.code == "BadDecision"

    def test_final_policy_id_matches_the_policy_blob(self):
        world = striped_world()
        experiment = run_experiment(world, loop_config(5, training_episodes=60, evaluation_episodes=30), 1)
        blob = experiment_to_json(experiment)
        assert blob["final_policy_id"] == policy_id(experiment.final_policy)
        assert blob["final_policy"] == policy_to_json(experiment.final_policy)
