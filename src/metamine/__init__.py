"""Closed-loop self-adaptation for a simulated rover.

The package wires four stages into one repeatable cycle: an object-level
agent runs episodes on a gridworld, its per-decision logs are turned into
labeled datasets, symbolic models (decision trees, association rules) are
mined from those datasets, and models that pass an evaluation gate are
compiled back into the agent's control policy.

Modules
-------
errors         the error classes, each carrying a machine-readable code
jsonio         canonical JSON, the JSON shape checks, the CSV table reader and record writer
seeds          sha256-derived seeds for named random sub-streams
knowledge      attribute schemas and the attribute value codec
rover          gridworld, strategies, episode simulation, trace files
introspection  traces -> dataset featurisation, dataset files
mining         entropy/gain trees, apriori, rule derivation, cross-validation
policy         rules, rulesets, compiled policies, integration
cycle          the gated mine-evaluate-deploy loop and its reports
cli            the `metamine` command line tool
"""

__version__ = "0.1.0"
