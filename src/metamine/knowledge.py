"""Attribute schemas and the codec for attribute values.

A Schema is the flat vocabulary everything else is expressed in: each
attribute has a kind (categorical, boolean, numeric), a scope saying
whether it describes the external world or the agent itself, and a value
domain. Traces, reports, datasets, mined rules, and policies all refer
back to one schema, so validation lives here, and so does the text form
of a value: AttributeDef.parse reads a CSV cell and format_value writes
one (and the values in rule text).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .errors import InputFormatError, SchemaError
from .jsonio import ATOM, expect_field, expect_object, read_json, write_json

KINDS = ("categorical", "boolean", "numeric")
SCOPES = ("world", "self")


def is_number(value: Any) -> bool:
    """True for ints and floats; bools are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_int(value: Any) -> bool:
    """True for ints; bools are not counts, seeds or coordinates here."""
    return isinstance(value, int) and not isinstance(value, bool)


def float_sum(values: Iterable[float]) -> float:
    """The floats added left to right, as sum() did before Python 3.12;
    since then sum() compensates its rounding and can end one bit apart."""
    total = 0.0
    for value in values:
        total += value
    return total


def format_value(value: Any) -> str:
    """The text form of an attribute value: true/false for booleans, an
    empty string for None, str() for everything else."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


@dataclass(frozen=True)
class AttributeDef:
    """One named attribute: kind, scope, and value domain.

    domain is a tuple of distinct strings for categorical attributes,
    a (low, high) pair for numeric ones, and None for booleans.
    """

    name: str
    kind: str
    scope: str
    domain: tuple | None = None

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise SchemaError("BadAttributeName", f"attribute name must be a non-empty string, got {self.name!r}")
        if self.kind not in KINDS:
            raise SchemaError("BadKind", f"attribute {self.name!r}: kind must be one of {KINDS}, got {self.kind!r}")
        if self.scope not in SCOPES:
            raise SchemaError("BadScope", f"attribute {self.name!r}: scope must be one of {SCOPES}, got {self.scope!r}")
        if self.kind == "categorical":
            if not isinstance(self.domain, tuple) or not self.domain:
                raise SchemaError("EmptyDomain", f"categorical attribute {self.name!r} needs a non-empty value tuple")
            if not all(isinstance(v, str) and v for v in self.domain):
                raise SchemaError("BadDomainValue", f"attribute {self.name!r}: categorical values must be non-empty strings")
            if len(set(self.domain)) != len(self.domain):
                raise SchemaError("DuplicateDomainValue", f"attribute {self.name!r} lists a domain value twice")
        elif self.kind == "numeric":
            ok = (
                isinstance(self.domain, tuple)
                and len(self.domain) == 2
                and all(is_number(v) for v in self.domain)
            )
            if not ok:
                raise SchemaError("BadRange", f"numeric attribute {self.name!r} needs a (low, high) pair")
            if self.domain[0] > self.domain[1]:
                raise SchemaError("BadRange", f"numeric attribute {self.name!r}: low {self.domain[0]} exceeds high {self.domain[1]}")
        elif self.domain is not None:
            raise SchemaError("BadDomain", f"boolean attribute {self.name!r} must not declare a domain")

    @property
    def is_finite(self) -> bool:
        return self.kind in ("categorical", "boolean")

    def values(self) -> tuple:
        """All domain values, in declaration order. Finite kinds only."""
        if self.kind == "categorical":
            return self.domain
        if self.kind == "boolean":
            return (False, True)
        raise SchemaError("InfiniteDomain", f"numeric attribute {self.name!r} has no enumerable values")

    def contains(self, value: Any) -> bool:
        if self.kind == "categorical":
            return isinstance(value, str) and value in self.domain
        if self.kind == "boolean":
            return isinstance(value, bool)
        return is_number(value) and self.domain[0] <= value <= self.domain[1]

    def parse(self, text: str) -> Any:
        """The typed value a CSV cell written by format_value holds.

        Text that is not a value of this kind (not true/false, not a
        finite number) is an InputFormatError; a value outside the domain
        is a SchemaError. The reader of the file adds where the cell is
        (jsonio.located).
        """
        if self.kind == "categorical":
            if text in self.domain:
                return text
            raise SchemaError("OutOfDomainValue", f"{self.name} {text!r} is not in the schema domain")
        if self.kind == "boolean":
            if text in ("true", "false"):
                return text == "true"
            raise InputFormatError("BadRow", f"{self.name} must be true/false, got {text!r}")
        try:
            value = float(text)
        except ValueError:
            raise InputFormatError("BadRow", f"{self.name} must be numeric, got {text!r}") from None
        if not math.isfinite(value):
            raise InputFormatError("BadRow", f"{self.name} must be finite, got {text!r}")
        if not self.domain[0] <= value <= self.domain[1]:
            raise SchemaError("OutOfDomainValue", f"{self.name} {text} is outside {self.domain}")
        return value


@dataclass(frozen=True)
class Schema:
    """An ordered attribute vocabulary plus the designated class attribute.

    The class attribute is the one mined models predict and policies set;
    it must have a finite domain.
    """

    attributes: tuple[AttributeDef, ...]
    class_attribute: str
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise SchemaError("DuplicateAttribute", f"attribute {dup!r} is defined twice")
        object.__setattr__(self, "_by_name", {a.name: a for a in self.attributes})
        if self.class_attribute not in self._by_name:
            raise SchemaError("UnknownClassAttribute", f"class attribute {self.class_attribute!r} is not in the schema")
        if not self._by_name[self.class_attribute].is_finite:
            raise SchemaError("InfiniteClassDomain", f"class attribute {self.class_attribute!r} must be categorical or boolean")

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def attribute(self, name: str) -> AttributeDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError("UnknownAttribute", f"schema has no attribute {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def class_def(self) -> AttributeDef:
        return self._by_name[self.class_attribute]

    def scoped(self, scope: str) -> tuple[AttributeDef, ...]:
        return tuple(a for a in self.attributes if a.scope == scope)


def define_schema(attributes: Iterable[AttributeDef], class_attribute: str) -> Schema:
    return Schema(tuple(attributes), class_attribute)


def attribute_to_json(attr: AttributeDef) -> dict:
    if attr.kind == "categorical":
        domain: Any = list(attr.domain)
    elif attr.kind == "numeric":
        domain = {"low": attr.domain[0], "high": attr.domain[1]}
    else:
        domain = None
    return {"name": attr.name, "kind": attr.kind, "scope": attr.scope, "domain": domain}


def attribute_from_json(obj: Any) -> AttributeDef:
    obj = expect_object(obj, "attribute")
    name = expect_field(obj, "name", "attribute", ATOM)
    kind = expect_field(obj, "kind", "attribute", ATOM)
    scope = expect_field(obj, "scope", "attribute", ATOM)
    if kind == "categorical":
        domain: tuple | None = tuple(expect_field(obj, "domain", f"attribute {name!r}", list))
    elif kind == "numeric":
        raw = expect_field(obj, "domain", f"attribute {name!r}", dict)
        domain = (expect_field(raw, "low", "numeric domain"), expect_field(raw, "high", "numeric domain"))
    else:
        domain = None
    return AttributeDef(name=name, kind=kind, scope=scope, domain=domain)


def schema_to_json(schema: Schema) -> dict:
    return {
        "attributes": [attribute_to_json(a) for a in schema.attributes],
        "class_attribute": schema.class_attribute,
    }


def schema_from_json(obj: Any) -> Schema:
    obj = expect_object(obj, "schema")
    return define_schema(
        [attribute_from_json(a) for a in expect_field(obj, "attributes", "schema", list)],
        expect_field(obj, "class_attribute", "schema", ATOM),
    )


def save_schema(schema: Schema, path: str | Path) -> None:
    write_json(path, schema_to_json(schema))


def load_schema(path: str | Path) -> Schema:
    return schema_from_json(read_json(path))
