"""Canonical JSON reading and writing, the shape rules for reading it back,
and the CSV table reader and record writer.

All JSON the package emits goes through canonical_dumps so that equal
objects serialize to identical bytes: sorted keys, two-space indent,
UTF-8 text, no NaN/Infinity, one trailing newline.

CSV files (traces, datasets) are read through open_table, which checks
the file and its header and hands out each record's first line as bytes,
for the readers to look up as they stand and to decode and parse with csv
(checking its width) once per distinct line; the cells themselves are
parsed by the attribute codec in knowledge.

Every reader checks shape here: objects are objects, lists are lists and
names, values and labels are JSON atoms. Types and ranges of the values
themselves are checked by the frozen dataclasses the readers build, whose
fields double as the table of keys a record may carry (see decode).
"""

from __future__ import annotations

import codecs
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator

from .errors import InputFormatError, MetamineError

# The JSON scalars: what names, attribute values, labels and actions may be.
ATOM = (str, int, float, bool, type(None))

_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", ATOM: "a string, number, boolean or null"}


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def _finite_float(text: str) -> float:
    """JSON number parsing that refuses NaN, Infinity and overflow such as 1e400."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_json(path: str | Path) -> Any:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError("UnreadableFile", f"cannot read {p}: {exc}") from exc
    try:
        return json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except ValueError as exc:
        raise InputFormatError("MalformedJson", f"{p} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputFormatError("MalformedJson", f"{p} nests its JSON values too deeply to read") from None


# csv_record(cells) is one CSV record as csv.writer writes it, quoted and
# ended with \r\n: writerow returns what its file's write returns.
csv_record: Callable[[Iterable], str] = csv.writer(SimpleNamespace(write=str)).writerow

Cells = Callable[[int, bytes], tuple[list[str], bool]]

# Bytes per read of a CSV file.
BLOCK_SIZE = 1 << 16


def _is_utf8(fh) -> bool:
    """Whether a seekable binary file decodes as UTF-8; it is left at its start."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    try:
        for block in iter(partial(fh.read, BLOCK_SIZE), b""):
            decoder.decode(block)
        decoder.decode(b"", True)
    except UnicodeDecodeError:
        return False
    finally:
        fh.seek(0)
    return True


def _line_blocks(fh) -> Iterator[list[bytes]]:
    """The lines of a binary file, block by block, ended at LF, CRLF or CR
    as text mode with newline="" ends them. A block's last line goes on
    into the next block unless it ends in LF (a CR may be half a CRLF),
    and a line longer than a block makes the next read as long as it, so
    a file without line ends is still read in linear time."""
    carry = b""
    while block := fh.read(max(BLOCK_SIZE, len(carry))):
        lines = (carry + block).splitlines(True)
        carry = b"" if lines[-1].endswith(b"\n") else lines.pop()
        yield lines
    if carry:
        yield [carry]


@contextmanager
def open_table(path: str | Path, header: list[str]) -> Iterator[tuple[Iterator[bytes], Cells]]:
    """Open a UTF-8 CSV file whose first record is header, as (rows, cells).

    rows yields the first physical line of each data record, as bytes with
    its line end. cells(line, raw) decodes and parses the record, taking
    the further lines of a quoted cell that spans lines from the file,
    checks its cell count and returns (its cells, whether raw was the whole
    record): equal whole-record lines parse alike. line is the record
    number for the error message, 2 plus the rows read before it.

    A file that is UTF-8 throughout, checked block by block before any
    line is handed out, is split in blocks as bytes; any other, and a pipe,
    goes through the text-mode reader, each line encoded again, so a decode
    error reads and fires as a text reader's does. The file closes when the
    block ends; one that cannot be read or decoded is an UnreadableFile.
    """
    name = str(path)
    width = len(header)

    def cells(line: int, raw: bytes) -> tuple[list[str], bool]:
        reader = csv.reader(itertools.chain((raw.decode(),), map(bytes.decode, lines)))
        row = next(reader)
        if len(row) != width:
            raise InputFormatError("BadRow", f"{name} line {line}: expected {width} cells, got {len(row)}")
        return row, reader.line_num == 1

    try:
        with open(path, "rb") as fh:
            # a pipe cannot be read twice, so it goes through the text reader
            utf8 = fh.seekable() and _is_utf8(fh)
            lines = (itertools.chain.from_iterable(_line_blocks(fh)) if utf8
                     else map(str.encode, io.TextIOWrapper(fh, encoding="utf-8", newline="")))
            first = next(csv.reader(map(bytes.decode, lines)), None)
            if first != header:
                raise InputFormatError("BadHeader", f"{name}: expected columns {header}, got {first or 'nothing'}")
            yield lines, cells
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputFormatError("UnreadableFile", f"cannot read {name}: {exc}") from exc


def located(exc: MetamineError, path: str | Path, line: int) -> MetamineError:
    """exc again, its message led by the file and line of the row it is about."""
    return type(exc)(exc.code, f"{path} line {line}: {exc.message}")


def content_id(obj: Any) -> str:
    """Short stable identifier: first 12 hex digits of the canonical sha256."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()[:12]


def expect_object(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputFormatError("NotAnObject", f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def expect_field(obj: dict, key: str, what: str, kind: type | tuple = object) -> Any:
    """obj[key], which must be present and an instance of kind: dict, list,
    str, ATOM, or object for any JSON value."""
    if key not in obj:
        raise InputFormatError("MissingField", f"{what} is missing required field {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise InputFormatError("BadField", f"{what} field {key!r} must be {_KIND_NAMES[kind]}, "
                                           f"got {type(value).__name__}")
    return value


def expect_pairs(value: Any, what: str, shape: str = "[attribute, value]",
                 second: type | tuple = ATOM) -> list[tuple]:
    """A list of two-element lists, first an atom and second of kind second,
    as tuples."""
    ok = isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], ATOM) and isinstance(p[1], second)
        for p in value
    )
    if not ok:
        raise InputFormatError("BadField", f"{what} must be {shape} pairs")
    return [(a, b) for a, b in value]


def decode(cls: type, obj: Any, what: str, **nested: type) -> Any:
    """Build dataclass cls from a JSON object whose keys are its field names.

    Unknown keys are rejected and every field without a default is
    required; nested names the fields that hold a record of their own,
    decoded the same way. cls itself checks the values.
    """
    obj = expect_object(obj, what)
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = set(obj) - set(fields)
    if unknown:
        raise InputFormatError("UnknownField", f"{what} has unknown fields {sorted(unknown)}")
    for name, f in fields.items():
        if name not in obj and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise InputFormatError("MissingField", f"{what} is missing required field {name!r}")
    return cls(**{k: decode(nested[k], v, f"{what} {k}") if k in nested else v for k, v in obj.items()})
