"""Canonical serialization and hashing.

Every hash in the system is taken over the canonical JSON form: sorted
keys, no insignificant whitespace, UTF-8 bytes. Transaction and block hashes
are SHA-256 of it; the state digest hashes its leaves' canonical forms (see
``statehash``). Two semantically equal values always produce byte-identical
encodings, which is what makes logs replayable and tamper-evident.

Values built from checked fields, the ones hashed on every block, are
encoded by :func:`checked_json` instead, in one ``orjson`` pass that writes
the same bytes several times faster. Such a value holds only dicts with
``str`` keys, lists, tuples, ``str``, ``bool``, ``None`` and ``int`` within
64 bits (every checked integer is at most :data:`UINT64_MAX`), never a
float: orjson writes ``1e+16`` as ``1e16`` and NaN as ``null``, so
:func:`canonical_json` stays the stdlib encoder for values that may hold
floats (CLI output such as the ``bench`` report). The policy and config
digests hold only ints, bools and strings; they use it too, since each runs
once per ledger. :func:`checked_json` has no fallback: what orjson refuses
(an ``int`` outside 64 bits, a lone surrogate, a subclass, a non-``str``
key, any other unknown type) raises ``orjson.JSONEncodeError``. orjson also
writes an ``Enum`` member and a ``UUID``, which the stdlib refuses; neither
is a checked value. ``orjson.loads`` is likewise the one reader of log
lines, and reads an integer over :data:`UINT64_MAX` as a float, which no
check accepts.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import orjson

ZERO_DIGEST = "0" * 64

# the largest integer orjson reads and writes as an int: the bound of every
# checked integer
UINT64_MAX = 2**64 - 1

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
canonical_json = _ENCODER.encode

_ORJSON_OPTIONS = (
    orjson.OPT_SORT_KEYS
    | orjson.OPT_PASSTHROUGH_SUBCLASS
    | orjson.OPT_PASSTHROUGH_DATACLASS
    | orjson.OPT_PASSTHROUGH_DATETIME
)


def checked_json(value: Any) -> bytes:
    """The UTF-8 bytes of a checked value's canonical JSON form (see the
    module docstring); anything else raises ``orjson.JSONEncodeError``."""
    return orjson.dumps(value, option=_ORJSON_OPTIONS)


def digest_of(value: Any) -> str:
    """SHA-256 hex digest of a value's canonical JSON form."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
