"""Attribute, schema, and value codec behavior."""

import pytest

from helpers import cat
from metamine.errors import InputFormatError, SchemaError
from metamine.jsonio import canonical_dumps
from metamine.knowledge import (
    AttributeDef,
    define_schema,
    format_value,
    schema_from_json,
    schema_to_json,
)


def full_schema():
    return define_schema(
        [
            cat("terrain", ("sand", "rock", "ice")),
            AttributeDef("wet", "boolean", "world"),
            AttributeDef("charge", "numeric", "self", (0.0, 100.0)),
            cat("strategy", ("FAST", "CAREFUL"), scope="self"),
        ],
        class_attribute="strategy",
    )


class TestAttributeDef:
    def test_categorical_values_and_contains(self):
        attr = cat("terrain", ("sand", "rock"))
        assert attr.values() == ("sand", "rock")
        assert attr.is_finite
        assert attr.contains("sand")
        assert not attr.contains("mud")
        assert not attr.contains(3)

    def test_boolean_domain_is_false_true(self):
        attr = AttributeDef("wet", "boolean", "world")
        assert attr.values() == (False, True)
        assert attr.contains(True) and attr.contains(False)
        assert not attr.contains("true")
        assert not attr.contains(1)

    def test_numeric_contains_is_a_closed_range(self):
        attr = AttributeDef("charge", "numeric", "self", (0.0, 10.0))
        assert not attr.is_finite
        assert attr.contains(0.0) and attr.contains(10.0) and attr.contains(7)
        assert not attr.contains(-0.1) and not attr.contains(10.1)
        assert not attr.contains(True)

    def test_numeric_values_are_not_enumerable(self):
        with pytest.raises(SchemaError) as err:
            AttributeDef("charge", "numeric", "self", (0.0, 1.0)).values()
        assert err.value.code == "InfiniteDomain"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", kind="categorical", scope="world", domain=("a",)),
            dict(name="x", kind="enum", scope="world", domain=("a",)),
            dict(name="x", kind="categorical", scope="global", domain=("a",)),
            dict(name="x", kind="categorical", scope="world", domain=()),
            dict(name="x", kind="categorical", scope="world", domain=("a", "a")),
            dict(name="x", kind="categorical", scope="world", domain=("a", "")),
            dict(name="x", kind="numeric", scope="world", domain=(3.0,)),
            dict(name="x", kind="numeric", scope="world", domain=(5.0, 1.0)),
            dict(name="x", kind="boolean", scope="world", domain=("a",)),
        ],
    )
    def test_bad_definitions_are_rejected(self, kwargs):
        with pytest.raises(SchemaError):
            AttributeDef(**kwargs)


class TestSchema:
    def test_lookup_names_and_scoping(self):
        schema = full_schema()
        assert schema.names == ("terrain", "wet", "charge", "strategy")
        assert "terrain" in schema and "speed" not in schema
        assert schema.class_def.name == "strategy"
        assert [a.name for a in schema.scoped("world")] == ["terrain", "wet"]
        assert [a.name for a in schema.scoped("self")] == ["charge", "strategy"]
        with pytest.raises(SchemaError):
            schema.attribute("speed")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError) as err:
            define_schema([cat("a", ("x",)), cat("a", ("y",))], "a")
        assert err.value.code == "DuplicateAttribute"

    def test_unknown_class_attribute_rejected(self):
        with pytest.raises(SchemaError) as err:
            define_schema([cat("a", ("x",))], "b")
        assert err.value.code == "UnknownClassAttribute"

    def test_numeric_class_attribute_rejected(self):
        with pytest.raises(SchemaError) as err:
            define_schema([AttributeDef("v", "numeric", "self", (0.0, 1.0))], "v")
        assert err.value.code == "InfiniteClassDomain"


class TestValueCodec:
    @pytest.mark.parametrize("name, value", [("terrain", "ice"), ("wet", True), ("wet", False), ("charge", 12.5)])
    def test_parse_reads_what_format_value_writes(self, name, value):
        assert full_schema().attribute(name).parse(format_value(value)) == value

    @pytest.mark.parametrize("name, text, error", [
        ("terrain", "mud", SchemaError),
        ("terrain", "", SchemaError),
        ("wet", "True", InputFormatError),
        ("charge", "x", InputFormatError),
        ("charge", "nan", InputFormatError),
        ("charge", "inf", InputFormatError),
        ("charge", "1e400", InputFormatError),
        ("charge", "100.5", SchemaError),
    ])
    def test_parse_rejects_bad_and_out_of_domain_text(self, name, text, error):
        with pytest.raises(error) as err:
            full_schema().attribute(name).parse(text)
        assert err.value.message.startswith(f"{name} ")

    def test_format_value(self):
        assert [format_value(v) for v in (True, False, None, "sand", 2.5, 3)] == ["true", "false", "", "sand", "2.5", "3"]


class TestSerialization:
    def test_schema_round_trip_is_byte_identical(self):
        schema = full_schema()
        blob = canonical_dumps(schema_to_json(schema))
        again = schema_from_json(schema_to_json(schema))
        assert again == schema
        assert canonical_dumps(schema_to_json(again)) == blob
