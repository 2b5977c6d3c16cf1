"""Trace-to-row projection, labeling rules, and featurisation."""

import csv
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import cat, fixed_policy, striped_world, uniform_hazard_world
from metamine.errors import ConsistencyError, MiningError, SchemaError
from metamine.introspection import (
    MAX_BINS,
    Dataset,
    assign_bin,
    featurise,
    load_dataset,
    save_dataset,
)
from metamine.knowledge import AttributeDef, define_schema
from metamine.rover import (
    OUTCOME_DEF,
    OUTCOME_SUCCESS,
    OUTCOMES,
    DecisionRecord,
    EpisodeTrace,
    run_episodes,
    run_seeded,
    world_schema,
)

SELECTED = ("terrain", "strategy")


def sample_trace(seed=3, explore=0.5):
    world = striped_world()
    return run_seeded(world, fixed_policy("FAST"), [seed], explore)[0], world_schema(world)


class TestMetadataProvider:
    """featurise checks the view it is given: the selection and the label rule."""

    def test_label_attribute_per_rule(self):
        trace, schema = sample_trace()
        assert featurise([trace], schema, "outcome-as-class", 4, SELECTED).class_attribute == "outcome"
        assert featurise([trace], schema, "strategy-as-class", 4, SELECTED).class_attribute == "strategy"

    def test_default_view_is_the_world_attributes_and_the_class_attribute(self):
        trace, schema = sample_trace()
        for rule in ("outcome-as-class", "strategy-as-class"):
            assert featurise([trace], schema, rule, 4) == featurise([trace], schema, rule, 4, SELECTED)

    def test_unknown_label_rule_rejected(self):
        trace, schema = sample_trace()
        with pytest.raises(SchemaError) as err:
            featurise([trace], schema, "reward-as-class", 4, SELECTED)
        assert err.value.code == "BadLabelRule"

    def test_empty_or_duplicate_selection_rejected(self):
        trace, schema = sample_trace()
        for selected, code in (((), "EmptySelection"), (("terrain", "terrain"), "DuplicateAttribute")):
            with pytest.raises(SchemaError) as err:
                featurise([trace], schema, "outcome-as-class", 4, selected)
            assert err.value.code == code

    def test_selection_must_exist_in_schema(self):
        trace, schema = sample_trace()
        with pytest.raises(SchemaError) as err:
            featurise([trace], schema, "outcome-as-class", 4, ("terrain", "altitude", "strategy"))
        assert err.value.code == "UnknownAttribute"

    def test_selection_must_include_the_class_attribute(self):
        trace, schema = sample_trace()
        with pytest.raises(SchemaError) as err:
            featurise([trace], schema, "outcome-as-class", 4, ("terrain",))
        assert err.value.code == "MissingClassAttribute"

    def test_selection_needs_a_world_attribute(self):
        trace, schema = sample_trace()
        with pytest.raises(SchemaError) as err:
            featurise([trace], schema, "outcome-as-class", 4, ("strategy", "outcome"))
        assert err.value.code == "NoWorldAttribute"


    def test_a_numeric_outcome_cannot_label_rows(self):
        """load_traces rejects such a trace first; featurise checks the schema itself."""
        trace, schema = sample_trace()
        numeric = define_schema([AttributeDef("outcome", "numeric", "self", (0.0, 1.0)) if a.name == "outcome"
                                 else a for a in schema.attributes], schema.class_attribute)
        with pytest.raises(MiningError) as err:
            featurise([trace], numeric, "outcome-as-class", 4)
        assert err.value.code == "NumericLabel"

class TestCollectReport:
    """featurise projects each decision record into one row."""

    def test_outcome_rows_cover_every_decision(self):
        trace, schema = sample_trace()
        dataset = featurise([trace], schema, "outcome-as-class", 4, SELECTED)
        assert len(dataset) == len(trace.records)
        assert dataset.class_attribute == "outcome"
        assert dataset.rows == tuple((rec.observed["terrain"], rec.strategy, rec.outcome) for rec in trace.records)

    def test_strategy_rows_keep_only_successes(self):
        trace, schema = sample_trace()
        dataset = featurise([trace], schema, "strategy-as-class", 4, SELECTED)
        successes = [r for r in trace.records if r.outcome == OUTCOME_SUCCESS]
        assert 0 < len(dataset) == len(successes) < len(trace.records)
        assert dataset.rows == tuple((rec.observed["terrain"], rec.strategy) for rec in successes)

    def test_rows_validate_against_the_schema_and_are_reflective(self):
        trace, schema = sample_trace()
        for rule in ("outcome-as-class", "strategy-as-class"):
            dataset = featurise([trace], schema, rule, 4, SELECTED)
            assert dataset.attributes == tuple(schema.attribute(a.name) for a in dataset.attributes)
            for row in dataset.rows:
                assert all(a.contains(v) for a, v in zip(dataset.attributes, row))
            assert any(a.scope == "self" for a in dataset.attributes)

    def test_all_failures_make_an_empty_strategy_report(self):
        world = uniform_hazard_world(1.0)
        trace = run_seeded(world, fixed_policy("FAST"), [0])[0]
        with pytest.raises(MiningError) as err:
            featurise([trace], world_schema(world), "strategy-as-class", 4, SELECTED)
        assert err.value.code == "EmptyDataset"

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
        trace = run_seeded(world, fixed_policy("FAST"), [1])[0]
        with pytest.raises(ConsistencyError) as err:
            featurise([trace], schema, "outcome-as-class", 4, ("terrain", "weather", "strategy"))
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
        assert [row[-1] for row in ds.rows] == ["b", "a", "b"]
        assert list(ds.patterns().items()) == [(("v", "b"), 2), (("u", "a"), 1)]

    def test_an_empty_dataset_is_an_error(self):
        defs = (cat("x", ("u", "v")), cat("label", ("a", "b"), scope="self"))
        with pytest.raises(MiningError) as err:
            Dataset(defs, "label", ())
        assert err.value.code == "EmptyDataset"

    def test_editing_the_patterns_leaves_the_dataset_unchanged(self):
        defs = (cat("x", ("u", "v")), cat("label", ("a", "b"), scope="self"))
        ds = Dataset(defs, "label", (("v", "b"), ("u", "a"), ("v", "b")))
        edited = ds.patterns()
        edited[("v", "b")] += 5
        del edited[("u", "a")]
        assert list(ds.patterns().items()) == [(("v", "b"), 2), (("u", "a"), 1)]


NUMERIC_SCHEMA = define_schema(
    [
        AttributeDef("v", "numeric", "world", (-1e308, 1e308)),
        cat("strategy", ("GO", "NO"), scope="self"),
    ],
    "strategy",
)


def numeric_report(values, label="GO"):
    """One episode whose successful steps observed v = each value in turn."""
    records = tuple(DecisionRecord((0, 0), {"v": x}, label, OUTCOME_SUCCESS, -1.0) for x in values)
    return EpisodeTrace(records, True)


def featurise_numeric(values, bins):
    return featurise([numeric_report(values)], NUMERIC_SCHEMA, "strategy-as-class", bins)


def assert_equal_rows_are_shared(dataset):
    assert len({id(row) for row in dataset.rows}) == len(set(dataset.rows))


class TestFeaturise:
    def test_equal_width_binning_for_the_worked_example(self):
        dataset = featurise_numeric([1, 2, 9, 10], bins=2)
        assert [row[0] for row in dataset.rows] == ["bin_0", "bin_0", "bin_1", "bin_1"]
        assert_equal_rows_are_shared(dataset)
        assert dataset.bin_edges == {"v": (5.5,)}
        assert dataset.attributes[0].domain == ("bin_0", "bin_1")

    def test_constant_column_goes_to_bin_zero(self):
        dataset = featurise_numeric([4.0, 4.0, 4.0], bins=3)
        assert {row[0] for row in dataset.rows} == {"bin_0"}
        assert dataset.bin_edges == {"v": ()}

    def test_boundary_values_fall_in_the_upper_bin(self):
        assert assign_bin((5.5,), 5.5) == "bin_1"
        assert assign_bin((2.0, 4.0), 1.9) == "bin_0"
        assert assign_bin((2.0, 4.0), 2.0) == "bin_1"
        assert assign_bin((2.0, 4.0), 4.1) == "bin_2"

    def test_traces_concatenate_in_order(self):
        trace_a, schema = sample_trace(seed=1)
        trace_b, _ = sample_trace(seed=2)
        dataset = featurise([trace_a, trace_b], schema, "outcome-as-class", 4, SELECTED)
        assert len(dataset) == len(trace_a.records) + len(trace_b.records)
        assert [a.name for a in dataset.attributes] == ["terrain", "strategy", "outcome"]
        assert dataset.rows[: len(trace_a.records)] == featurise([trace_a], schema, "outcome-as-class", 4, SELECTED).rows

    def test_no_traces_or_no_rows_is_an_error(self):
        with pytest.raises(MiningError) as err:
            featurise([], NUMERIC_SCHEMA, "strategy-as-class", 2)
        assert err.value.code == "EmptyDataset"
        with pytest.raises(MiningError) as err:
            featurise([numeric_report([]), numeric_report([])], NUMERIC_SCHEMA, "strategy-as-class", 2)
        assert err.value.code == "EmptyDataset"

    def test_bins_must_be_positive(self):
        with pytest.raises(MiningError):
            featurise_numeric([1.0], bins=0)

    def test_bins_are_capped_before_any_row_is_projected(self):
        assert featurise_numeric([1.0, 2.0], bins=MAX_BINS).attributes[0].domain[-1] == f"bin_{MAX_BINS - 1}"
        with pytest.raises(MiningError) as err:
            featurise([], NUMERIC_SCHEMA, "strategy-as-class", MAX_BINS + 1)
        assert err.value.code == "BadBins"

    @given(st.lists(st.floats(min_value=-1000, max_value=1000), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=8))
    @example([-1e308, 1e308], 3)
    @example([-1e308, 1e308], 8)
    def test_binning_is_monotone_and_in_range(self, values, bins):
        dataset = featurise_numeric(values, bins=bins)
        domain = dataset.attributes[0].domain
        assert domain == tuple(f"bin_{i}" for i in range(bins))
        edges = dataset.bin_edges["v"]
        assert all(math.isfinite(e) for e in edges) and list(edges) == sorted(edges)
        indexed = sorted(zip(values, (row[0] for row in dataset.rows)))
        bins_in_order = [int(label.split("_")[1]) for _, label in indexed]
        assert bins_in_order == sorted(bins_in_order)
        assert all(0 <= b < bins for b in bins_in_order)
        if max(values) > min(values):
            assert bins_in_order[-1] == bins - 1


WORLD_ATTRS = ("terrain", "wet", "slope")
RANDOM_SCHEMA = define_schema(
    [
        cat("terrain", ("sand", "rock", "ice")),
        AttributeDef("wet", "boolean", "world"),
        AttributeDef("slope", "numeric", "world", (-50.0, 50.0)),
        cat("strategy", ("FAST", "CAREFUL"), scope="self"),
        OUTCOME_DEF,
    ],
    "strategy",
)
records = st.builds(
    DecisionRecord,
    st.just((0, 0)),
    st.fixed_dictionaries({"terrain": st.sampled_from(("sand", "rock", "ice")), "wet": st.booleans(),
                           "slope": st.integers(-40, 40).map(lambda k: k / 4)}),
    st.sampled_from(("FAST", "CAREFUL")),
    st.sampled_from(OUTCOMES),
    st.just(-1.0),
)
random_traces = st.lists(st.builds(EpisodeTrace, st.lists(records, max_size=8).map(tuple), st.booleans()),
                         max_size=5)


def project_by_dict(traces, selected, rule, schema, bins):
    """The dataset rows featurise should build, one dict per decision,
    binned with the equal-width rule over each numeric column."""
    label = "outcome" if rule == "outcome-as-class" else schema.class_attribute
    wanted = list(selected) + [label] * (label not in selected)
    dicts = []
    for trace in traces:
        for rec in trace.records:
            if rule == "strategy-as-class" and rec.outcome != OUTCOME_SUCCESS:
                continue
            available = dict(rec.observed, strategy=rec.strategy, outcome=rec.outcome)
            dicts.append({name: available[name] for name in wanted})
    for name in wanted:
        if schema.attribute(name).kind == "numeric" and dicts:
            lo = min(d[name] for d in dicts)
            hi = max(d[name] for d in dicts)
            edges = [lo + (hi - lo) / bins * i for i in range(1, bins)] if hi > lo else []
            for d in dicts:
                d[name] = f"bin_{sum(d[name] >= e for e in edges)}"
    columns = [n for n in schema.names if n in wanted and n != label] + [label]
    return columns, [tuple(d[n] for n in columns) for d in dicts]


class TestProjectionReference:
    @given(random_traces, st.sampled_from(("outcome-as-class", "strategy-as-class")),
           st.lists(st.sampled_from(WORLD_ATTRS), min_size=1, unique=True), st.booleans(),
           st.integers(min_value=1, max_value=4))
    def test_featurise_matches_a_row_by_row_dict_projection(self, traces, rule, world_attrs, with_outcome, bins):
        selected = tuple(world_attrs) + ("strategy",) + ("outcome",) * with_outcome
        columns, rows = project_by_dict(traces, selected, rule, RANDOM_SCHEMA, bins)
        if not rows:
            with pytest.raises(MiningError) as err:
                featurise(traces, RANDOM_SCHEMA, rule, bins, selected)
            assert err.value.code == "EmptyDataset"
            return
        dataset = featurise(traces, RANDOM_SCHEMA, rule, bins, selected)
        assert [a.name for a in dataset.attributes] == columns
        assert list(dataset.rows) == rows
        assert_equal_rows_are_shared(dataset)


class TestDatasetFiles:
    def test_round_trip_equality_and_byte_stability(self, tmp_path, rock="rock"):
        world = striped_world(rock)
        schema = world_schema(world)
        traces = run_episodes(world, fixed_policy("FAST"), 6, master_seed=4, explore=0.5)
        dataset = featurise(traces, schema, "outcome-as-class", 4, SELECTED)
        assert_equal_rows_are_shared(dataset)
        path = tmp_path / "data.csv"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded == dataset
        assert_equal_rows_are_shared(loaded)
        again = tmp_path / "again.csv"
        save_dataset(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert (tmp_path / "data.csv.meta.json").exists()

    def test_a_terrain_name_over_two_lines_round_trips(self, tmp_path):
        self.test_round_trip_equality_and_byte_stability(tmp_path, rock="ro,\nck")

    @pytest.mark.parametrize("rock", ["rock", "ro,\nck"], ids=["plain", "multi-line"])
    def test_a_bad_row_is_reported_at_its_record_number(self, tmp_path, rock):
        """The rows before the bad one hold rock; spelled over two lines, they
        move it down the file, and its record number stays."""
        world = striped_world(rock)
        traces = run_episodes(world, fixed_policy("FAST"), 6, master_seed=4, explore=0.5)
        path = tmp_path / "data.csv"
        save_dataset(featurise(traces, world_schema(world), "outcome-as-class", 4, SELECTED), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:3]] == [rock, rock]
        rows[3][0] = "mud"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.message == f"{path} line 4: terrain 'mud' is not in the schema domain"

    def test_numeric_bin_edges_survive_the_sidecar(self, tmp_path):
        dataset = featurise_numeric([1, 2, 9, 10], bins=2)
        path = tmp_path / "num.csv"
        save_dataset(dataset, path)
        assert load_dataset(path).bin_edges == {"v": (5.5,)}

    def test_header_mismatch_is_an_input_error(self, tmp_path):
        from metamine.errors import InputFormatError

        dataset = featurise_numeric([1, 2], bins=2)
        path = tmp_path / "data.csv"
        save_dataset(dataset, path)
        body = path.read_text().splitlines()
        body[0] = "a,b"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(InputFormatError) as err:
            load_dataset(path)
        assert err.value.code == "BadHeader"


class TestSharedRecordProjection:
    def test_short_lived_traces_from_a_generator_give_the_list_dataset(self):
        """Records that die with their trace may leave their memory to the
        next trace's records; featurise must still project each one."""
        terrains, strategies = ("sand", "rock", "ice"), ("FAST", "CAREFUL")

        def traces():
            for i in range(300):
                yield EpisodeTrace(tuple(
                    DecisionRecord((k, 0), {"terrain": terrains[(i + k) % 3]}, strategies[(i // 3 + k) % 2],
                                   OUTCOMES[(i // 6 + k) % 2], -1.0) for k in range(4)), True)

        schema = world_schema(striped_world())
        for rule in ("outcome-as-class", "strategy-as-class"):
            assert featurise(traces(), schema, rule, 4) == featurise(list(traces()), schema, rule, 4)

    def test_shared_and_fresh_records_give_one_dataset(self):
        world = striped_world()
        schema = world_schema(world)
        traces = run_episodes(world, fixed_policy("FAST"), 100, master_seed=2, explore=0.5)
        fresh = [EpisodeTrace(tuple(DecisionRecord(r.cell, dict(r.observed), r.strategy, r.outcome, r.reward)
                                    for r in t.records), t.reached_goal) for t in traces]
        for rule in ("outcome-as-class", "strategy-as-class"):
            assert featurise(traces, schema, rule, 4) == featurise(fresh, schema, rule, 4)
