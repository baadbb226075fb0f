"""Canonical serialization and hashing.

All hashes in the system (transaction hashes, block hashes, state digests)
are SHA-256 over the canonical JSON form: sorted keys, no insignificant
whitespace, UTF-8 bytes. Two semantically equal values always produce
byte-identical encodings, which is what makes logs replayable and
tamper-evident.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

ZERO_DIGEST = "0" * 64


def canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def digest_of(value: Any) -> str:
    """SHA-256 hex digest of a value's canonical JSON form."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
