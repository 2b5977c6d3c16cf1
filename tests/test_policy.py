"""Rule engine: ordering, compilation, integration, serialization."""

import dataclasses
from collections import Counter
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import cat, count_rows, make_dataset
from metamine.errors import ConsistencyError, PolicyError
from metamine.jsonio import canonical_dumps, content_id
from metamine.knowledge import AttributeDef, define_schema
from metamine.mining import (
    AssociationRule,
    MetaModel,
    MiningConfig,
    apriori,
    classify,
    derive_rules,
    fit_rules_model,
    fit_tree_model,
    induce_tree,
)
from metamine.policy import (
    Policy,
    Rule,
    RuleSet,
    compile_policy,
    initial_policy,
    integrate_policies,
    load_policy,
    policy_from_json,
    policy_from_rules,
    policy_id,
    policy_to_json,
    rule_priority,
    rules_to_ruleset,
    save_policy,
    tree_to_rules,
)


def control_schema():
    return define_schema(
        [
            cat("terrain", ("sand", "rock", "ice")),
            AttributeDef("wet", "boolean", "world"),
            cat("strategy", ("FAST", "CAREFUL"), scope="self"),
        ],
        "strategy",
    )


def rule(conditions, action="FAST", confidence=1.0, origin="manual"):
    return Rule(tuple(conditions), action, confidence, origin)


def canonical_reference(rules):
    """Rules sorted by priority, each (conditions, action) pair's first copy kept."""
    seen, kept = set(), []
    for r in sorted(rules, key=rule_priority):
        if (r.conditions, r.action) not in seen:
            seen.add((r.conditions, r.action))
            kept.append(r)
    return kept


# One source's mined rules, drawn from small pools so that sources share
# rules and priorities tie; wet=true and wet="true" render alike, so
# distinct rules can tie on the whole priority key.
MINED = st.lists(st.tuples(
    st.dictionaries(st.sampled_from(["terrain", "wet"]), st.sampled_from(["sand", "rock", True, "true"]))
    .map(lambda d: list(d.items())),
    st.sampled_from(["FAST", "CAREFUL"]),
    st.sampled_from([0.5, 0.75, 1.0])), max_size=8)


class TestRule:
    def test_conditions_are_sorted_by_attribute(self):
        r = rule([("b", "2"), ("a", "1")])
        assert r.conditions == (("a", "1"), ("b", "2"))
        assert r.specificity == 2

    def test_duplicate_condition_attribute_rejected(self):
        with pytest.raises(PolicyError) as err:
            rule([("a", "1"), ("a", "2")])
        assert err.value.code == "DuplicateCondition"

    def test_condition_attributes_must_be_strings(self):
        with pytest.raises(PolicyError) as err:
            rule([("a", "1"), (5, "2")])
        assert err.value.code == "BadCondition"

    @pytest.mark.parametrize("confidence", [0.0, -0.5, 1.0001, "high", True])
    def test_confidence_must_be_in_half_open_unit_interval(self, confidence):
        with pytest.raises(PolicyError):
            rule([], confidence=confidence)

    def test_origin_is_an_enum(self):
        with pytest.raises(PolicyError) as err:
            rule([], origin="guess")
        assert err.value.code == "BadOrigin"

    def test_text_rendering(self):
        assert rule([("terrain", "sand")], action="CAREFUL").text == "terrain=sand => CAREFUL"
        assert rule([]).text == "TRUE => FAST"
        assert rule([("wet", True)]).text == "wet=true => FAST"

    def test_matches_requires_every_literal(self):
        r = rule([("a", "1"), ("b", "2")])
        assert r.matches({"a": "1", "b": "2", "c": "9"})
        assert not r.matches({"a": "1", "b": "3"})
        assert not r.matches({"a": "1"})
        assert rule([]).matches({})


class TestRulePriority:
    def test_confidence_dominates(self):
        hi = rule([("a", "1")], confidence=0.9)
        lo = rule([("a", "1"), ("b", "2")], confidence=0.8)
        assert rule_priority(hi) < rule_priority(lo)

    def test_specificity_breaks_confidence_ties(self):
        narrow = rule([("a", "1"), ("b", "2")], confidence=0.9)
        broad = rule([("a", "1")], confidence=0.9)
        assert rule_priority(narrow) < rule_priority(broad)

    def test_text_breaks_remaining_ties(self):
        r1 = rule([("a", "1")], confidence=0.9)
        r2 = rule([("a", "2")], confidence=0.9)
        assert rule_priority(r1) < rule_priority(r2)

    @given(st.lists(st.tuples(st.sampled_from(["sand", "rock", "ice"]),
                              st.sampled_from(["FAST", "CAREFUL"]),
                              st.floats(min_value=0.01, max_value=1.0)),
                    min_size=1, max_size=12))
    def test_priority_is_a_strict_total_order_on_distinct_rules(self, raw):
        rules = [rule([("terrain", t)], action=a, confidence=round(c, 3)) for t, a, c in raw]
        keys = [rule_priority(r) for r in rules]
        for i, a in enumerate(rules):
            for j, b in enumerate(rules):
                if keys[i] == keys[j]:
                    assert a.text == b.text and a.confidence == b.confidence


class TestRuleSet:
    def test_conditions_may_not_test_the_control_attribute(self):
        with pytest.raises(PolicyError) as err:
            RuleSet((rule([("strategy", "FAST")], action="CAREFUL"),), "strategy")
        assert err.value.code == "SelfReference"

    def test_duplicate_rules_rejected(self):
        a = rule([("terrain", "sand")], action="FAST", confidence=0.9)
        b = rule([("terrain", "sand")], action="FAST", confidence=0.4)
        with pytest.raises(PolicyError) as err:
            RuleSet((a, b), "strategy")
        assert err.value.code == "DuplicateRule"

    def test_explicit_order_is_kept(self):
        lo = rule([("terrain", "sand")], action="FAST", confidence=0.4)
        hi = rule([("terrain", "ice")], action="CAREFUL", confidence=0.9)
        assert RuleSet((lo, hi), "strategy").rules == (lo, hi)


class TestTreeToRules:
    def test_single_leaf_tree_gives_one_unconditional_rule(self):
        ds = make_dataset({"terrain": ("sand", "rock")}, ("FAST", "CAREFUL"),
                          [{"terrain": "sand", "label": "FAST"}], class_name="label")
        rules = tree_to_rules(induce_tree(ds, MiningConfig()))
        assert len(rules) == 1
        assert rules[0].conditions == () and rules[0].action == "FAST"
        assert rules[0].origin == "tree" and rules[0].confidence == 1.0

    def test_one_rule_per_leaf_with_leaf_confidence(self):
        rows = (
            [{"terrain": "sand", "strategy": "CAREFUL"}] * 3
            + [{"terrain": "sand", "strategy": "FAST"}] * 1
            + [{"terrain": "rock", "strategy": "FAST"}] * 4
        )
        ds = make_dataset({"terrain": ("sand", "rock")}, ("FAST", "CAREFUL"), rows, class_name="strategy")
        tree = induce_tree(ds, MiningConfig())
        rules = tree_to_rules(tree)
        assert [r.conditions for r in rules] == [path for path, _ in tree.paths()]  # model order
        by_terrain = {r.conditions[0][1]: r for r in rules}
        assert by_terrain["sand"].action == "CAREFUL"
        assert by_terrain["sand"].confidence == pytest.approx(0.75)
        assert by_terrain["rock"].action == "FAST"
        assert by_terrain["rock"].confidence == 1.0

    def test_control_attribute_must_match_the_tree(self):
        """Even where the model's own label is the control attribute."""
        ds = make_dataset({"terrain": ("sand",)}, ("+", "-"),
                          [{"terrain": "sand", "label": "+"}], class_name="label")
        tree = induce_tree(ds, MiningConfig())
        model = MetaModel("tree", "strategy", "world", {}, tree=tree)
        with pytest.raises(PolicyError) as err:
            compile_policy([model], "strategy", "FAST")
        assert err.value.code == "NotControlAttribute"


class TestAssociationFilter:
    def make_rules(self):
        tx = [
            frozenset({("terrain", "sand"), ("strategy", "CAREFUL")}),
            frozenset({("terrain", "sand"), ("strategy", "CAREFUL")}),
            frozenset({("terrain", "rock"), ("strategy", "FAST")}),
            frozenset({("terrain", "rock"), ("strategy", "CAREFUL")}),
        ]
        return derive_rules(apriori(Counter(tx), 0.25), 0.5, len(tx))

    def test_only_control_consequents_survive(self):
        mined = self.make_rules()
        rules = rules_to_ruleset(mined, "strategy")
        assert [(r.conditions, r.action) for r in rules] == [  # model order
            (tuple(sorted(m.antecedent)), m.consequent[1]) for m in mined if m.consequent[0] == "strategy"]
        for r in rules:
            assert r.origin == "association"
            assert all(a != "strategy" for a, _ in r.conditions)

    def test_empty_antecedent_rules_are_dropped(self):
        fake = AssociationRule(frozenset(), ("strategy", "FAST"), 0.5, 0.9)
        assert rules_to_ruleset([fake], "strategy") == []

    def test_a_rule_that_tests_the_control_attribute_is_refused_at_compile(self):
        """No mined rule does (a transaction holds one item per attribute), so
        only a malformed model file can carry one."""
        self_test = AssociationRule(frozenset({("strategy", "CAREFUL")}), ("strategy", "FAST"), 0.5, 0.9)
        with pytest.raises(PolicyError) as err:
            policy_from_rules(rules_to_ruleset([self_test], "strategy"), "strategy", "FAST")
        assert err.value.code == "SelfReference"


class TestCompilePolicy:
    def test_empty_ruleset_always_defaults(self):
        policy = policy_from_rules([], "strategy", "FAST", schema=control_schema())
        assert policy.decide({"terrain": "sand"}) == "FAST"
        assert policy.decide({}) == "FAST"

    def test_first_match_wins(self):
        policy = policy_from_rules([
            rule([], action="FAST", confidence=0.5),
            rule([("terrain", "sand")], action="CAREFUL", confidence=0.9),
        ], "strategy", "FAST", schema=control_schema())
        assert policy.decide({"terrain": "sand"}) == "CAREFUL"
        assert policy.decide({"terrain": "rock"}) == "FAST"

    def test_sorts_and_keeps_the_higher_ranked_duplicate(self):
        weak = rule([("terrain", "sand")], action="FAST", confidence=0.4)
        strong = rule([("terrain", "sand")], action="FAST", confidence=0.9)
        other = rule([("terrain", "ice")], action="CAREFUL", confidence=0.6)
        policy = policy_from_rules([weak, other, strong], "strategy", "FAST")
        assert policy.ruleset.rules == (strong, other)

    def test_an_equal_priority_duplicate_keeps_the_first_copy_given(self):
        tree = rule([("terrain", "sand")], action="FAST", confidence=0.9, origin="tree")
        association = rule([("terrain", "sand")], action="FAST", confidence=0.9, origin="association")
        assert policy_from_rules([tree, association], "strategy", "FAST").ruleset.rules == (tree,)
        assert policy_from_rules([association, tree], "strategy", "FAST").ruleset.rules == (association,)

    @given(MINED, MINED)
    def test_matches_sorting_each_source_then_the_union(self, tree_raw, association_raw):
        tree_rules = [rule(c, a, conf, "tree") for c, a, conf in tree_raw]
        association_rules = [rule(c, a, conf, "association") for c, a, conf in association_raw]
        compiled = policy_from_rules(tree_rules + association_rules, "strategy", "FAST").ruleset.rules
        expected = canonical_reference(canonical_reference(tree_rules) + canonical_reference(association_rules))
        assert list(compiled) == expected
        assert [r.origin for r in compiled] == [r.origin for r in expected]

    def test_schema_validation_catches_mismatches(self):
        schema = control_schema()
        with pytest.raises(ConsistencyError):
            policy_from_rules([], "speed", "FAST", schema=schema)
        with pytest.raises(PolicyError) as err:
            policy_from_rules([], "strategy", "WALK", schema=schema)
        assert err.value.code == "BadDefault"
        with pytest.raises(PolicyError):
            policy_from_rules([rule([("terrain", "sand")], action="WALK")], "strategy", "FAST", schema=schema)
        with pytest.raises(ConsistencyError):
            policy_from_rules([rule([("terrain", "mud")], action="FAST")], "strategy", "FAST", schema=schema)

    def test_tree_and_compiled_policy_agree_on_the_full_grid(self):
        rows = [
            (t, w, "CAREFUL" if (t == "ice") == w else "FAST")
            for t, w in product(("sand", "rock", "ice"), (False, True))
            for _ in range(2)
        ]
        defs = (cat("terrain", ("sand", "rock", "ice")), AttributeDef("wet", "boolean", "world"),
                cat("strategy", ("FAST", "CAREFUL"), scope="self"))
        from metamine.introspection import Dataset

        ds = Dataset(defs, "strategy", count_rows(rows))
        tree = induce_tree(ds, MiningConfig())
        policy = policy_from_rules(tree_to_rules(tree), "strategy", "FAST", schema=control_schema())
        for t, w in product(("sand", "rock", "ice"), (False, True)):
            inst = {"terrain": t, "wet": w}
            assert policy.decide(inst) == classify(tree, inst)


def decision_models():
    """A tree model and a rules model mined from the same strategy-labeled rows."""
    rows = ([{"terrain": "sand", "strategy": "CAREFUL"}] * 6 + [{"terrain": "rock", "strategy": "FAST"}] * 5
            + [{"terrain": "rock", "strategy": "CAREFUL"}])
    ds = make_dataset({"terrain": ("sand", "rock")}, ("FAST", "CAREFUL"), rows, class_name="strategy")
    config = MiningConfig(cv_folds=2)
    return fit_tree_model(ds, config), fit_rules_model(ds, config)


class TestCompileModels:
    def test_each_models_rules_in_model_order_then_ranked(self):
        tree, rules = decision_models()
        tree_rules, association_rules = tree_to_rules(tree.tree), rules_to_ruleset(rules.rules, "strategy")
        assert tree_rules and association_rules
        for models, expected in (([tree, rules], tree_rules + association_rules),
                                 ([rules, tree], association_rules + tree_rules)):
            policy = compile_policy(models, "strategy", "FAST", schema=control_schema(), provenance={"cycle": 1})
            assert policy == policy_from_rules(expected, "strategy", "FAST", provenance={"cycle": 1})
        assert compile_policy([], "strategy", "FAST") == policy_from_rules([], "strategy", "FAST")

    @pytest.mark.parametrize("kind", [0, 1], ids=["tree", "rules"])
    def test_a_model_over_bins_is_refused(self, kind):
        model = dataclasses.replace(decision_models()[kind], bin_edges={"terrain": (0.5,)})
        with pytest.raises(ConsistencyError) as err:
            compile_policy([model], "strategy", "FAST")
        assert err.value.code == "BinnedModel"

    @pytest.mark.parametrize("kind", [0, 1], ids=["tree", "rules"])
    def test_a_model_that_does_not_predict_the_control_attribute_is_refused(self, kind):
        model = decision_models()[kind]
        with pytest.raises(PolicyError) as err:
            compile_policy([dataclasses.replace(model, label_attribute="outcome")], "strategy", "FAST")
        assert err.value.code == "NotControlAttribute"
        with pytest.raises(PolicyError) as err:
            compile_policy([model], "outcome", "success")
        assert err.value.code == "NotControlAttribute"

    @pytest.mark.parametrize("kind", [0, 1], ids=["tree", "rules"])
    def test_a_model_of_the_outcome_is_refused_also_as_the_control(self, kind):
        """A step's outcome is what the rover learns after it decides, so no
        policy controls it, whatever control attribute the caller names."""
        model = dataclasses.replace(decision_models()[kind], label_attribute="outcome")
        if model.tree is not None:
            model = dataclasses.replace(model, tree=dataclasses.replace(model.tree, class_attribute="outcome"))
        with pytest.raises(PolicyError) as err:
            compile_policy([model], "outcome", "success")
        assert (err.value.code, err.value.message) == (
            "NotControlAttribute", "the model predicts 'outcome', the outcome of a step, which no policy chooses")


class TestIntegratePolicies:
    def incumbent(self):
        return policy_from_rules([
            rule([("terrain", "sand")], action="FAST", confidence=0.8),
            rule([("terrain", "rock")], action="FAST", confidence=0.7),
        ], "strategy", "FAST", provenance={"cycle": 1, "sources": ["tree"]})

    def candidate(self):
        return policy_from_rules([
            rule([("terrain", "sand")], action="CAREFUL", confidence=0.9),
        ], "strategy", "CAREFUL", provenance={"cycle": 2, "sources": ["rules"]})

    def test_replace_returns_the_candidate_untouched(self):
        candidate = self.candidate()
        assert integrate_policies(self.incumbent(), candidate, "replace") is candidate

    def test_override_puts_candidate_rules_first(self):
        merged = integrate_policies(self.incumbent(), self.candidate(), "override")
        assert merged.decide({"terrain": "sand"}) == "CAREFUL"
        assert merged.decide({"terrain": "rock"}) == "FAST"
        assert merged.default_action == "FAST"  # incumbent default retained
        assert [r.action for r in merged.ruleset.rules] == ["CAREFUL", "FAST", "FAST"]
        assert merged.provenance["mode"] == "override"
        assert merged.provenance["cycle"] == 2
        assert merged.provenance["sources"] == ["rules", "tree"]

    def test_append_keeps_incumbent_rules_first(self):
        merged = integrate_policies(self.incumbent(), self.candidate(), "append")
        assert merged.decide({"terrain": "sand"}) == "FAST"
        assert merged.default_action == "FAST"
        assert merged.ruleset.rules[-1].action == "CAREFUL"

    def test_duplicate_pairs_keep_the_leading_block_copy(self):
        incumbent = self.incumbent()
        dup = policy_from_rules([rule([("terrain", "sand")], action="FAST", confidence=0.3)], "strategy", "FAST",
                             provenance={"cycle": 2, "sources": []})
        merged = integrate_policies(incumbent, dup, "override")
        sand_rules = [r for r in merged.ruleset.rules if r.conditions == (("terrain", "sand"),)]
        assert len(sand_rules) == 1
        assert sand_rules[0].confidence == 0.3  # candidate block leads in override

    def test_control_mismatch_rejected(self):
        other = Policy(RuleSet((), "speed"), "slow", {})
        with pytest.raises(ConsistencyError):
            integrate_policies(self.incumbent(), other, "override")

    def test_unknown_mode_rejected(self):
        with pytest.raises(PolicyError):
            integrate_policies(self.incumbent(), self.candidate(), "merge")


class TestInitialPolicy:
    def test_chooses_the_first_control_value_unconditionally(self):
        policy = initial_policy(control_schema())
        assert policy.default_action == "FAST"
        assert policy.ruleset.rules == ()
        assert policy.decide({"terrain": "ice"}) == "FAST"
        assert policy.provenance == {"cycle": 0, "sources": ["default"]}


class TestPolicySerialization:
    def sample(self):
        return policy_from_rules([
            rule([("terrain", "sand")], action="CAREFUL", confidence=0.9, origin="tree"),
            rule([("wet", True)], action="CAREFUL", confidence=0.7, origin="association"),
        ], "strategy", "FAST", schema=control_schema(), provenance={"cycle": 3, "sources": ["tree"]})

    def test_round_trip_is_byte_identical(self, tmp_path):
        policy = self.sample()
        path = tmp_path / "p.policy.json"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded == policy
        again = tmp_path / "q.policy.json"
        save_policy(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert policy_id(loaded) == policy_id(policy)

    def test_rule_order_survives_serialization(self):
        merged = integrate_policies(self.sample(), self.sample(), "append")
        again = policy_from_json(policy_to_json(merged))
        assert [r.text for r in again.ruleset.rules] == [r.text for r in merged.ruleset.rules]

    def test_policy_id_tracks_content(self):
        a = self.sample()
        b = policy_from_rules(a.ruleset.rules, "strategy", "CAREFUL", schema=control_schema(), provenance=a.provenance)
        assert policy_id(a) != policy_id(b)
        assert canonical_dumps(policy_to_json(a)) != canonical_dumps(policy_to_json(b))

    def test_the_cached_id_is_the_content_hash(self, tmp_path):
        """Built, loaded and integrated policies alike: the id hashed once
        on first use is the hash of the policy's canonical JSON."""
        built = self.sample()
        save_policy(built, tmp_path / "p.policy.json")
        loaded = load_policy(tmp_path / "p.policy.json")
        other = policy_from_rules([rule([("terrain", "ice")], action="FAST", confidence=0.8, origin="tree")],
                               "strategy", "CAREFUL", provenance={"cycle": 4, "sources": ["tree"]})
        integrated = [integrate_policies(built, other, mode) for mode in ("override", "append", "replace")]
        for policy in [built, loaded, other, initial_policy(control_schema()), policy_from_json(policy_to_json(other)),
                       *integrated]:
            assert policy_id(policy) == content_id(policy_to_json(policy))
            assert policy_id(policy) is policy_id(policy)

    @given(st.sampled_from(["sand", "rock", "ice"]), st.booleans())
    def test_decisions_are_total_and_in_domain(self, terrain, wet):
        policy = self.sample()
        action = policy.decide({"terrain": terrain, "wet": wet})
        assert action in ("FAST", "CAREFUL")
