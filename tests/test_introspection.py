"""Trace-to-report projection, labeling rules, and featurisation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import cat, fixed_policy, striped_world, uniform_hazard_world
from metamine.errors import ConsistencyError, MiningError, SchemaError
from metamine.introspection import (
    Dataset,
    IntrospectiveReport,
    MetadataProvider,
    assign_bin,
    collect_report,
    featurise,
    load_dataset,
    save_dataset,
)
from metamine.knowledge import AttributeDef, define_schema
from metamine.rover import OUTCOME_SUCCESS, run_episode, run_episodes, world_schema

SELECTED = ("terrain", "strategy")


def sample_trace(seed=3, explore=0.5):
    world = striped_world()
    return run_episode(world, fixed_policy("FAST"), seed=seed, explore=explore), world_schema(world)


class TestMetadataProvider:
    def test_label_attribute_per_rule(self):
        schema = world_schema(striped_world())
        assert MetadataProvider(SELECTED, "outcome-as-class").label_attribute(schema) == "outcome"
        assert MetadataProvider(SELECTED, "strategy-as-class").label_attribute(schema) == "strategy"

    def test_unknown_label_rule_rejected(self):
        with pytest.raises(SchemaError) as err:
            MetadataProvider(SELECTED, "reward-as-class")
        assert err.value.code == "BadLabelRule"

    def test_empty_or_duplicate_selection_rejected(self):
        with pytest.raises(SchemaError):
            MetadataProvider((), "outcome-as-class")
        with pytest.raises(SchemaError):
            MetadataProvider(("terrain", "terrain"), "outcome-as-class")

    def test_selection_must_exist_in_schema(self):
        schema = world_schema(striped_world())
        with pytest.raises(SchemaError):
            MetadataProvider(("terrain", "altitude", "strategy"), "outcome-as-class").validate_against(schema)

    def test_selection_must_include_the_class_attribute(self):
        schema = world_schema(striped_world())
        with pytest.raises(SchemaError) as err:
            MetadataProvider(("terrain",), "outcome-as-class").validate_against(schema)
        assert err.value.code == "MissingClassAttribute"

    def test_selection_needs_a_world_attribute(self):
        schema = world_schema(striped_world())
        with pytest.raises(SchemaError) as err:
            MetadataProvider(("strategy", "outcome"), "outcome-as-class").validate_against(schema)
        assert err.value.code == "NoWorldAttribute"


class TestCollectReport:
    def test_outcome_rows_cover_every_decision(self):
        trace, schema = sample_trace()
        provider = MetadataProvider(SELECTED, "outcome-as-class")
        report = collect_report(trace, provider, schema)
        assert len(report.rows) == len(trace.records)
        assert report.label_attribute == "outcome"
        for rec, row in zip(trace.records, report.rows):
            assert row == {"terrain": rec.observed["terrain"], "strategy": rec.strategy, "outcome": rec.outcome}

    def test_strategy_rows_keep_only_successes(self):
        trace, schema = sample_trace()
        provider = MetadataProvider(SELECTED, "strategy-as-class")
        report = collect_report(trace, provider, schema)
        successes = [r for r in trace.records if r.outcome == OUTCOME_SUCCESS]
        assert 0 < len(report.rows) == len(successes) < len(trace.records)
        for rec, row in zip(successes, report.rows):
            assert row == {"terrain": rec.observed["terrain"], "strategy": rec.strategy}

    def test_rows_validate_against_the_schema_and_are_reflective(self):
        trace, schema = sample_trace()
        for rule in ("outcome-as-class", "strategy-as-class"):
            report = collect_report(trace, MetadataProvider(SELECTED, rule), schema)
            for row in report.rows:
                assert all(schema.attribute(name).contains(v) for name, v in row.items())
                assert any(schema.attribute(name).scope == "self" for name in row)

    def test_all_failures_make_an_empty_strategy_report(self):
        world = uniform_hazard_world(1.0)
        trace = run_episode(world, fixed_policy("FAST"), seed=0)
        report = collect_report(trace, MetadataProvider(SELECTED, "strategy-as-class"), world_schema(world))
        assert report.rows == ()

    def test_unprojectable_selection_is_an_error(self):
        world = striped_world()
        schema = define_schema(
            [
                AttributeDef("terrain", "categorical", "world", world.terrains),
                AttributeDef("weather", "categorical", "world", ("dry", "wet")),
                AttributeDef("strategy", "categorical", "self", world.strategies),
                AttributeDef("outcome", "categorical", "self", ("success", "failure")),
            ],
            "strategy",
        )
        trace = run_episode(world, fixed_policy("FAST"), seed=1)
        provider = MetadataProvider(("terrain", "weather", "strategy"), "outcome-as-class")
        with pytest.raises(ConsistencyError) as err:
            collect_report(trace, provider, schema)
        assert err.value.code == "MissingObservation"


class TestDatasetInvariants:
    def test_class_attribute_must_be_last(self):
        defs = (cat("label", ("a", "b"), scope="self"), cat("x", ("u", "v")))
        with pytest.raises(SchemaError) as err:
            Dataset(defs, "label", (("a", "u"),))
        assert err.value.code == "ClassNotLast"

    def test_numeric_attributes_are_rejected(self):
        defs = (AttributeDef("v", "numeric", "world", (0.0, 1.0)), cat("label", ("a",), scope="self"))
        with pytest.raises(SchemaError) as err:
            Dataset(defs, "label", ())
        assert err.value.code == "NumericAttribute"

    def test_accessors(self):
        defs = (cat("x", ("u", "v")), cat("label", ("a", "b"), scope="self"))
        ds = Dataset(defs, "label", (("v", "b"), ("u", "a"), ("v", "b")))
        assert len(ds) == 3
        assert [a.name for a in ds.feature_attributes] == ["x"]
        assert ds.class_def.name == "label"
        assert ds.labels() == ["b", "a", "b"]
        assert list(ds.patterns().items()) == [(("v", "b"), 2), (("u", "a"), 1)]


def numeric_report(values, label="GO"):
    schema = define_schema(
        [
            AttributeDef("v", "numeric", "world", (-1000.0, 1000.0)),
            cat("strategy", ("GO", "NO"), scope="self"),
        ],
        "strategy",
    )
    rows = tuple({"v": x, "strategy": label} for x in values)
    return IntrospectiveReport(schema, ("v", "strategy"), "strategy", rows)


class TestFeaturise:
    def test_equal_width_binning_for_the_worked_example(self):
        dataset = featurise([numeric_report([1, 2, 9, 10])], bins=2)
        assert [row[0] for row in dataset.rows] == ["bin_0", "bin_0", "bin_1", "bin_1"]
        assert dataset.bin_edges == {"v": (5.5,)}
        assert dataset.attributes[0].domain == ("bin_0", "bin_1")

    def test_constant_column_goes_to_bin_zero(self):
        dataset = featurise([numeric_report([4.0, 4.0, 4.0])], bins=3)
        assert {row[0] for row in dataset.rows} == {"bin_0"}
        assert dataset.bin_edges == {"v": ()}

    def test_boundary_values_fall_in_the_upper_bin(self):
        assert assign_bin((5.5,), 5.5) == "bin_1"
        assert assign_bin((2.0, 4.0), 1.9) == "bin_0"
        assert assign_bin((2.0, 4.0), 2.0) == "bin_1"
        assert assign_bin((2.0, 4.0), 4.1) == "bin_2"

    def test_reports_concatenate_in_order(self):
        trace_a, schema = sample_trace(seed=1)
        trace_b, _ = sample_trace(seed=2)
        provider = MetadataProvider(SELECTED, "outcome-as-class")
        rep_a = collect_report(trace_a, provider, schema)
        rep_b = collect_report(trace_b, provider, schema)
        dataset = featurise([rep_a, rep_b], bins=4)
        assert len(dataset) == len(rep_a.rows) + len(rep_b.rows)
        assert [a.name for a in dataset.attributes] == ["terrain", "strategy", "outcome"]
        head = dataset.rows[: len(rep_a.rows)]
        assert head == tuple((r["terrain"], r["strategy"], r["outcome"]) for r in rep_a.rows)

    def test_no_reports_or_no_rows_is_an_error(self):
        with pytest.raises(MiningError) as err:
            featurise([], bins=2)
        assert err.value.code == "EmptyDataset"
        empty = IntrospectiveReport(numeric_report([]).schema, ("v", "strategy"), "strategy", ())
        with pytest.raises(MiningError) as err:
            featurise([empty, empty], bins=2)
        assert err.value.code == "EmptyDataset"

    def test_bins_must_be_positive(self):
        with pytest.raises(MiningError):
            featurise([numeric_report([1.0])], bins=0)

    def test_mixed_reports_are_rejected(self):
        trace, schema = sample_trace()
        rep_a = collect_report(trace, MetadataProvider(SELECTED, "outcome-as-class"), schema)
        rep_b = collect_report(trace, MetadataProvider(SELECTED, "strategy-as-class"), schema)
        with pytest.raises(ConsistencyError) as err:
            featurise([rep_a, rep_b], bins=2)
        assert err.value.code == "MixedReports"

    @given(st.lists(st.floats(min_value=-1000, max_value=1000), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=8))
    def test_binning_is_monotone_and_in_range(self, values, bins):
        dataset = featurise([numeric_report(values)], bins=bins)
        domain = dataset.attributes[0].domain
        assert domain == tuple(f"bin_{i}" for i in range(bins))
        indexed = sorted(zip(values, (row[0] for row in dataset.rows)))
        bins_in_order = [int(label.split("_")[1]) for _, label in indexed]
        assert bins_in_order == sorted(bins_in_order)
        assert all(0 <= b < bins for b in bins_in_order)


class TestDatasetFiles:
    def test_round_trip_equality_and_byte_stability(self, tmp_path):
        world = striped_world()
        schema = world_schema(world)
        traces = run_episodes(world, fixed_policy("FAST"), 6, master_seed=4, explore=0.5)
        provider = MetadataProvider(SELECTED, "outcome-as-class")
        dataset = featurise([collect_report(t, provider, schema) for t in traces], bins=4)
        path = tmp_path / "data.csv"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded == dataset
        again = tmp_path / "again.csv"
        save_dataset(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert (tmp_path / "data.csv.meta.json").exists()

    def test_numeric_bin_edges_survive_the_sidecar(self, tmp_path):
        dataset = featurise([numeric_report([1, 2, 9, 10])], bins=2)
        path = tmp_path / "num.csv"
        save_dataset(dataset, path)
        assert load_dataset(path).bin_edges == {"v": (5.5,)}

    def test_header_mismatch_is_an_input_error(self, tmp_path):
        from metamine.errors import InputFormatError

        dataset = featurise([numeric_report([1, 2])], bins=2)
        path = tmp_path / "data.csv"
        save_dataset(dataset, path)
        body = path.read_text().splitlines()
        body[0] = "a,b"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(InputFormatError) as err:
            load_dataset(path)
        assert err.value.code == "BadHeader"
