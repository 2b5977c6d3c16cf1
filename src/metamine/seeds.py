"""Deterministic seed derivation for named sub-streams.

Python's built-in hash() is salted per process, so sub-seeds are derived
with sha256 over a "/"-joined label path instead. The same parts always
yield the same 64-bit seed on every platform and run.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterator

_SEED = struct.Struct(">Q")


def derive_seed(*parts: object) -> int:
    """Map a label path such as (master, "cycle", 2, "train", 17) to a seed."""
    text = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seeds(*parts: object, n: int) -> Iterator[int]:
    """derive_seed(*parts, i) for i in range(n), one at a time as the
    caller takes them, hashing the shared prefix once."""
    prefix = hashlib.sha256("".join(f"{p}/" for p in parts).encode("utf-8"))
    unpack = _SEED.unpack_from
    for i in range(n):
        h = prefix.copy()
        h.update(b"%d" % i)
        yield unpack(h.digest())[0]
