"""Canonical serialization and hashing.

Every hash in the system is taken over the canonical JSON form: sorted
keys, no insignificant whitespace, UTF-8 bytes. Transaction and block hashes
are SHA-256 of it; the state digest hashes its leaves' canonical forms (see
``statehash``). Two semantically equal values always produce byte-identical
encodings, which is what makes logs replayable and tamper-evident.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

ZERO_DIGEST = "0" * 64

# one encoder for every call: json.dumps builds a new one per call when given
# options, which is a measurable share of hashing a small value
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(value: Any) -> str:
    return _ENCODER.encode(value)


def text_digest(text: str) -> str:
    """SHA-256 hex digest of a text's UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_of(value: Any) -> str:
    """SHA-256 hex digest of a value's canonical JSON form."""
    return text_digest(canonical_json(value))
