"""Acceptance gate: seven end-to-end checks, one printed verdict line each.

Every check prints `[criterion N] <name>: PASS/FAIL (<detail>)` before
asserting, so a piped test run still shows the per-criterion outcome.
"""

from __future__ import annotations

import itertools
from collections import Counter
from random import Random
from time import perf_counter

import gap_oracle
from helpers import fixed_policy, loop_config, make_dataset, striped_world
from metamine.cycle import (
    AcceptanceGates,
    CycleConfig,
    cycles_csv,
    evaluate_candidate,
    experiment_to_json,
    run_cycle,
    run_experiment,
)
from metamine.jsonio import canonical_dumps
from metamine.knowledge import float_sum
from metamine.mining import MiningConfig, apriori, classify, cross_validate, induce_tree, training_accuracy
from metamine.policy import compile_policy, initial_policy, policy_to_json, tree_to_rules
from metamine.rover import save_traces, world_schema
from metamine.seeds import derive_seed
from mining_reference import entropy, info_gain, stratified_folds, tree_depth

ENTROPY_TOL = 1e-6
GAIN_TOL = 1e-12
MIN_GAP = 0.05
NEEDED_SEEDS = 18


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def brute_force_frequent(transactions, min_support):
    """Exhaustive itemset counter over the observed alphabet."""
    n = len(transactions)
    alphabet = sorted({item for t in transactions for item in t}, key=repr)
    frequent = {}
    for size in range(1, len(alphabet) + 1):
        for combo in itertools.combinations(alphabet, size):
            itemset = frozenset(combo)
            count = sum(1 for t in transactions if itemset <= t)
            if count / n >= min_support:
                frequent[itemset] = count
    return frequent


def test_criterion_1_apriori_matches_exhaustive_enumeration():
    rng = Random(101)
    items = ["a", "b", "c", "d", "e", "f"]
    mismatches = 0
    start = perf_counter()
    for _ in range(500):
        alphabet = items[: rng.randint(1, 6)]
        n_trans = rng.randint(1, 12)
        transactions = [frozenset(rng.sample(alphabet, rng.randint(0, len(alphabet))))
                        for _ in range(n_trans)]
        if rng.random() < 0.5:
            min_support = rng.randint(1, n_trans) / n_trans
        else:
            min_support = rng.uniform(0.05, 1.0)
        if apriori(Counter(transactions), min_support) != brute_force_frequent(transactions, min_support):
            mismatches += 1
    elapsed = perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(1, "frequent itemsets match brute force", ok,
             f"500 randomized corpora, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_2_compiled_policy_replays_its_tree():
    rng = Random(202)
    value_pool = ("u", "v", "w")
    class_pool = ("FAST", "CAREFUL", "HOLD")
    mismatches = 0
    start = perf_counter()
    for _ in range(200):
        features = {f"f{i}": value_pool[: rng.randint(2, 3)]
                    for i in range(rng.randint(1, 4))}
        class_domain = class_pool[: rng.randint(2, 3)]
        rows = [{**{name: rng.choice(domain) for name, domain in features.items()},
                 "label": rng.choice(class_domain)}
                for _ in range(rng.randint(5, 40))]
        dataset = make_dataset(features, class_domain, rows)
        config = MiningConfig(max_depth=rng.randint(1, 4),
                              min_leaf_instances=rng.choice([1, 2, 5]),
                              min_support=0.05, min_confidence=0.55, cv_folds=2, seed=0)
        tree = induce_tree(dataset, config)
        policy = compile_policy(tree_to_rules(tree), tree.class_attribute, class_domain[0])
        for point in itertools.product(*features.values()):
            state = dict(zip(features, point))
            if classify(tree, state) != policy.decide(state):
                mismatches += 1
    elapsed = perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(2, "tree and compiled policy agree on the full grid", ok,
             f"200 randomized trees, {mismatches} disagreeing states, {elapsed:.2f}s")


def test_criterion_3_entropy_gain_and_xor():
    e_even = entropy(["+", "+", "-", "-"])
    e_skew = entropy(["+", "+", "+", "-"])

    constant = make_dataset({"c": ("x", "y")}, ("+", "-"),
                            [{"c": "x", "label": l} for l in ("+", "-", "+", "-")])
    gain = info_gain(constant, "c")

    xor_rows = [{"a": a, "b": b, "label": "+" if a != b else "-"}
                for a in ("0", "1") for b in ("0", "1")]
    xor = make_dataset({"a": ("0", "1"), "b": ("0", "1")}, ("+", "-"), xor_rows)
    tree = induce_tree(xor, MiningConfig(max_depth=2, min_leaf_instances=1,
                                         min_support=0.05, min_confidence=0.55,
                                         cv_folds=2, seed=0))

    ok = (abs(e_even - 1.0) <= ENTROPY_TOL
          and abs(e_skew - 0.811278) <= ENTROPY_TOL
          and abs(gain) <= GAIN_TOL
          and tree_depth(tree) == 2
          and training_accuracy(tree, xor) == 1.0)
    _verdict(3, "entropy, zero-gain and exclusive-or numerics", ok,
             f"H(2+2)={e_even:.6f}, H(3+1)={e_skew:.6f}, constant gain={gain:.2e}, "
             f"xor depth={tree_depth(tree)} acc={training_accuracy(tree, xor):.2f}")


def test_criterion_4_stratified_folds_and_leave_one_out():
    balanced = True
    for n_pos, n_neg, k, seed in [(7, 4, 3, 0), (5, 5, 2, 1), (6, 3, 4, 7), (4, 4, 8, 3)]:
        rows = [{"c": "x", "label": "+"} for _ in range(n_pos)]
        rows += [{"c": "x", "label": "-"} for _ in range(n_neg)]
        dataset = make_dataset({"c": ("x",)}, ("+", "-"), rows)
        folds = stratified_folds(dataset, k, seed)
        if sorted(i for fold in folds for i in fold) != list(range(n_pos + n_neg)):
            balanced = False
        sizes = [len(fold) for fold in folds]
        if max(sizes) - min(sizes) > 1:
            balanced = False
        for value in ("+", "-"):
            per_fold = [sum(rows[i]["label"] == value for i in fold) for fold in folds]
            if max(per_fold) - min(per_fold) > 1:
                balanced = False

    loo = make_dataset({"c": ("x",)}, ("+", "-"),
                       [{"c": "x", "label": l} for l in ("+", "+", "-", "-")])
    scores = cross_validate(loo, MiningConfig(max_depth=2, min_leaf_instances=1,
                                              min_support=0.05, min_confidence=0.55,
                                              cv_folds=4, seed=0))
    mean = float_sum(scores) / len(scores)
    ok = balanced and mean == 0.0 and scores == (0.0, 0.0, 0.0, 0.0)
    _verdict(4, "stratified folds balance and leave-one-out pessimism", ok,
             f"class counts within 1 across folds; 2+2 leave-one-out mean={mean:.2f}")


def test_criterion_5_closed_loop_learns_the_terrain_policy():
    world = striped_world()
    wins = 0
    fast_rates = []
    start = perf_counter()
    for master in range(1, 21):
        experiment = run_experiment(world, loop_config(master), 3)
        policy = experiment.final_policy
        careful = (policy.decide({"terrain": "sand"}) == "CAREFUL"
                   and policy.decide({"terrain": "ice"}) == "CAREFUL")
        result = evaluate_candidate(world, fixed_policy("FAST"), policy, 1000,
                                    derive_seed(master, "acceptance-gap"))
        fast_rates.append(result.incumbent_rate)
        if careful and result.delta >= MIN_GAP:
            wins += 1
    elapsed = perf_counter() - start
    oracle_rate = gap_oracle.success_rate(gap_oracle.always_fast, 4000, seed=99)
    mean_fast = sum(fast_rates) / len(fast_rates)
    ok = wins >= NEEDED_SEEDS and elapsed < 60.0 and abs(mean_fast - oracle_rate) < 0.05
    _verdict(5, "closed loop deploys the terrain-aware policy", ok,
             f"{wins}/20 master seeds reached CAREFUL on sand+ice with a >=5pp gap; "
             f"always-FAST rate {mean_fast:.3f} vs independent oracle {oracle_rate:.3f}; "
             f"{elapsed:.1f}s")


def test_criterion_6_rejection_never_mutates_the_policy():
    rng = Random(606)
    world = striped_world()
    incumbent = initial_policy(world_schema(world))
    deployed = 0
    violations = 0
    for index in range(1, 101):
        config = CycleConfig(
            training_episodes=rng.randint(20, 60),
            evaluation_episodes=rng.randint(10, 40),
            mining=MiningConfig(max_depth=rng.randint(1, 4),
                                min_leaf_instances=rng.choice([1, 2, 5, 10]),
                                min_support=rng.choice([0.02, 0.05, 0.2]),
                                min_confidence=rng.uniform(0.5, 0.95),
                                cv_folds=rng.choice([2, 3, 5]),
                                seed=rng.getrandbits(16)),
            acceptance=AcceptanceGates(min_cv_accuracy=rng.uniform(0.0, 1.0),
                                       min_heldout_delta=rng.uniform(-0.5, 1.0)),
            master_seed=rng.getrandbits(16),
            model_kind=rng.choice(["tree", "rules", "both"]),
            integration_mode=rng.choice(["override", "append", "replace"]),
            exploration=rng.uniform(0.0, 1.0),
            bins=rng.choice([2, 3, 4]),
        )
        before = canonical_dumps(policy_to_json(incumbent))
        incumbent, report = run_cycle(world, incumbent, config, index)
        if report.decision == "deployed":
            deployed += 1
        elif canonical_dumps(policy_to_json(incumbent)) != before:
            violations += 1
    ok = violations == 0
    _verdict(6, "non-deployment leaves the policy byte-identical", ok,
             f"100 fuzzed cycles, {deployed} deployed, {violations} silent policy changes")


def test_criterion_7_reports_reproduce_byte_for_byte(tmp_path):
    world = striped_world()
    schema = world_schema(world)
    config = loop_config(11, training_episodes=80, evaluation_episodes=40)

    def run(config, out):
        out.mkdir()

        def sink(cycle_index, traces):
            save_traces(traces, schema, out / f"cycle_{cycle_index:02d}.csv")

        experiment = run_experiment(world, config, 2, trace_sink=sink)
        return canonical_dumps(experiment_to_json(experiment)), cycles_csv(experiment)

    report_a, csv_a = run(config, tmp_path / "a")
    report_b, csv_b = run(config, tmp_path / "b")
    report_c, _ = run(loop_config(12, training_episodes=80, evaluation_episodes=40),
                      tmp_path / "c")

    same = report_a == report_b and csv_a == csv_b
    same_traces = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("cycle_01.csv", "cycle_02.csv"))
    reseeded = ((tmp_path / "a" / "cycle_01.csv").read_bytes()
                != (tmp_path / "c" / "cycle_01.csv").read_bytes())
    ok = same and same_traces and reseeded and report_a != report_c
    _verdict(7, "same seed reproduces every byte, new seed moves the traces", ok,
             f"reports identical={same}, traces identical={same_traces}, "
             f"reseeded traces differ={reseeded}")
