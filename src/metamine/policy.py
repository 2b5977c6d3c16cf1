"""Compiling mined models into executable control policies.

A Rule is a conjunction of (attribute = value) literals choosing one
value for the control attribute. A RuleSet is an ordered rule list; a
Policy adds a default action, making decisions total. compile_policy is
the one place mined rules become a policy: it puts them in priority
order (confidence desc, specificity desc, rule text asc) and drops
lower-ranked duplicates. Integration concatenates rule blocks whose
relative order encodes precedence, so integrated sets keep their block
order, and decide() simply takes the first match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import ConsistencyError, PolicyError
from .jsonio import ATOM, content_id, expect_field, expect_object, expect_pairs, read_json, write_json
from .knowledge import Schema, format_value, is_number
from .mining import AssociationRule, DecisionTree

ORIGINS = ("tree", "association", "default", "manual")
INTEGRATION_MODES = ("override", "append", "replace")


@dataclass(frozen=True)
class Rule:
    """conditions => action, with the evidence strength that mined it."""

    conditions: tuple[tuple[str, Any], ...]
    action: Any
    confidence: float
    origin: str

    def __post_init__(self):
        if not all(isinstance(a, str) for a, _ in self.conditions):
            raise PolicyError("BadCondition", "rule conditions must test attributes named by strings")
        conditions = tuple(sorted(self.conditions, key=lambda c: c[0]))
        object.__setattr__(self, "conditions", conditions)
        attrs = [a for a, _ in conditions]
        if len(set(attrs)) != len(attrs):
            raise PolicyError("DuplicateCondition", "a rule may test each attribute at most once")
        if not is_number(self.confidence) or not 0.0 < self.confidence <= 1.0:
            raise PolicyError("BadConfidence", f"confidence must be in (0, 1], got {self.confidence!r}")
        if self.origin not in ORIGINS:
            raise PolicyError("BadOrigin", f"origin must be one of {ORIGINS}, got {self.origin!r}")

    @property
    def specificity(self) -> int:
        return len(self.conditions)

    @property
    def text(self) -> str:
        left = " AND ".join(f"{a}={format_value(v)}" for a, v in self.conditions) or "TRUE"
        return f"{left} => {format_value(self.action)}"

    def matches(self, values: Mapping[str, Any]) -> bool:
        return all(a in values and values[a] == v for a, v in self.conditions)


def rule_priority(rule: Rule) -> tuple:
    return (-rule.confidence, -rule.specificity, rule.text)


def _dedup(rules: Iterable[Rule]) -> list[Rule]:
    seen = set()
    out = []
    for rule in rules:
        key = (rule.conditions, rule.action)
        if key in seen:
            continue
        seen.add(key)
        out.append(rule)
    return out


@dataclass(frozen=True)
class RuleSet:
    """Ordered rules over one control attribute; earlier rules win.

    Mined rules reach a RuleSet through compile_policy; direct
    construction is for explicitly ordered lists (policy integration,
    file loading).
    """

    rules: tuple[Rule, ...]
    control_attribute: str

    def __post_init__(self):
        if not self.control_attribute or not isinstance(self.control_attribute, str):
            raise PolicyError("BadControlAttribute", "control attribute must be a non-empty string")
        keys = set()
        for rule in self.rules:
            if any(a == self.control_attribute for a, _ in rule.conditions):
                raise PolicyError("SelfReference", f"rule conditions may not test the control attribute: {rule.text}")
            key = (rule.conditions, rule.action)
            if key in keys:
                raise PolicyError("DuplicateRule", f"duplicate rule: {rule.text}")
            keys.add(key)


@dataclass(frozen=True)
class Policy:
    """Total decision function: first matching rule, else the default."""

    ruleset: RuleSet
    default_action: Any
    provenance: dict = field(default_factory=dict)

    @property
    def control_attribute(self) -> str:
        return self.ruleset.control_attribute

    def decide(self, values: Mapping[str, Any]) -> Any:
        for rule in self.ruleset.rules:
            if rule.matches(values):
                return rule.action
        return self.default_action

    @cached_property
    def content_hash(self) -> str:
        """policy_id's value, hashed on first use only: a policy is never
        changed after it is built."""
        return content_id(policy_to_json(self))


def tree_to_rules(tree: DecisionTree, control_attribute: str | None = None) -> list[Rule]:
    """One rule per leaf, in path order: path literals => leaf label,
    confidence = the leaf's majority fraction. The tree must classify the
    control attribute."""
    control = control_attribute if control_attribute is not None else tree.class_attribute
    if tree.class_attribute != control:
        raise PolicyError("NotControlAttribute",
                          f"tree classifies {tree.class_attribute!r}, not the control attribute {control!r}")
    return [Rule(path, leaf.label, leaf.confidence, "tree") for path, leaf in tree.paths()]


def rules_to_ruleset(rules: Iterable[AssociationRule], control_attribute: str) -> list[Rule]:
    """The association rules that decide the control attribute, in model
    order, with antecedents as conditions; derive_rules already applied
    the confidence threshold. Empty antecedents restate the class prior,
    which the default action covers, so they are dropped.
    """
    return [Rule(tuple(rule.antecedent), rule.consequent[1], rule.confidence, "association")
            for rule in rules if rule.consequent[0] == control_attribute and rule.antecedent]


def compile_policy(rules: Iterable[Rule], control_attribute: str, default_action: Any,
                   schema: Schema | None = None, provenance: dict | None = None) -> Policy:
    """Turn mined rules into a total policy: rules in priority order, each
    (conditions, action) pair once, its highest-ranked copy kept (the
    first given among equal-priority copies).

    With a schema, also checks that the control attribute is the schema's
    class attribute and that the default, every action, and every
    condition value lie in their domains.
    """
    ruleset = RuleSet(tuple(_dedup(sorted(rules, key=rule_priority))), control_attribute)
    if schema is not None:
        if control_attribute != schema.class_attribute:
            raise ConsistencyError("ControlMismatch",
                                   f"ruleset controls {control_attribute!r}, schema designates {schema.class_attribute!r}")
        domain = schema.class_def
        if not domain.contains(default_action):
            raise PolicyError("BadDefault", f"default action {default_action!r} not in the control domain")
        for rule in ruleset.rules:
            if not domain.contains(rule.action):
                raise PolicyError("BadAction", f"action {rule.action!r} not in the control domain: {rule.text}")
            for attr, value in rule.conditions:
                if not schema.attribute(attr).contains(value):
                    raise ConsistencyError("OutOfDomainValue", f"condition {attr}={value!r} not in domain: {rule.text}")
    return Policy(ruleset, default_action, dict(provenance) if provenance else {})


def integrate_policies(incumbent: Policy, candidate: Policy, mode: str) -> Policy:
    """Combine candidate with incumbent.

    replace: candidate as-is. override: candidate rules first. append:
    incumbent rules first. Blocks keep internal order; duplicate
    (conditions, action) pairs keep the higher-ranked copy; the incumbent
    default action is retained in both non-replace modes, and the
    provenance names each source once, the candidate's first.
    """
    if mode not in INTEGRATION_MODES:
        raise PolicyError("BadMode", f"mode must be override, append, or replace, got {mode!r}")
    if incumbent.control_attribute != candidate.control_attribute:
        raise ConsistencyError("ControlMismatch",
                               f"policies control different attributes: {incumbent.control_attribute!r} vs {candidate.control_attribute!r}")
    if mode == "replace":
        return candidate
    if mode == "override":
        blocks = candidate.ruleset.rules + incumbent.ruleset.rules
    else:
        blocks = incumbent.ruleset.rules + candidate.ruleset.rules
    ruleset = RuleSet(tuple(_dedup(blocks)), incumbent.control_attribute)
    provenance = {
        "mode": mode,
        "cycle": candidate.provenance.get("cycle"),
        "sources": list(dict.fromkeys(candidate.provenance.get("sources", [])
                                      + incumbent.provenance.get("sources", []))),
    }
    return Policy(ruleset, incumbent.default_action, provenance)


def initial_policy(schema: Schema) -> Policy:
    """The naive starting point: no rules, so every decision is the
    default action, the first value of the control domain. An
    unconditional rule would do the same and shadow every rule that
    append mode adds after it."""
    first = schema.class_def.values()[0]
    return Policy(RuleSet((), schema.class_attribute), first, {"cycle": 0, "sources": ["default"]})


def rule_to_json(rule: Rule) -> dict:
    return {
        "conditions": [[a, v] for a, v in rule.conditions],
        "action": rule.action,
        "confidence": rule.confidence,
        "origin": rule.origin,
    }


def rule_from_json(obj: Any) -> Rule:
    obj = expect_object(obj, "rule")
    return Rule(
        tuple(expect_pairs(expect_field(obj, "conditions", "rule"), "rule conditions")),
        expect_field(obj, "action", "rule", ATOM),
        expect_field(obj, "confidence", "rule"),
        expect_field(obj, "origin", "rule"),
    )


def policy_to_json(policy: Policy) -> dict:
    return {
        "control_attribute": policy.control_attribute,
        "default_action": policy.default_action,
        "provenance": policy.provenance,
        "rules": [rule_to_json(r) for r in policy.ruleset.rules],
    }


def policy_from_json(obj: Any) -> Policy:
    obj = expect_object(obj, "policy")
    rules = tuple(rule_from_json(r) for r in expect_field(obj, "rules", "policy", list))
    ruleset = RuleSet(rules, expect_field(obj, "control_attribute", "policy", ATOM))
    return Policy(ruleset, expect_field(obj, "default_action", "policy", ATOM),
                  dict(expect_object(obj.get("provenance", {}), "policy provenance")))


def policy_id(policy: Policy) -> str:
    """Short content hash of the canonical serialization, computed once
    per policy object."""
    return policy.content_hash


def save_policy(policy: Policy, path: str | Path) -> None:
    write_json(path, policy_to_json(policy))


def load_policy(path: str | Path) -> Policy:
    return policy_from_json(read_json(path))
