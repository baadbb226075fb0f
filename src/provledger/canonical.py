"""Canonical serialization and hashing.

Every hash in the system is taken over the canonical JSON form: sorted
keys, no insignificant whitespace, UTF-8 bytes. Transaction and block hashes
are SHA-256 of it; the state digest hashes its leaves' canonical forms (see
``statehash``). Two semantically equal values always produce byte-identical
encodings, which is what makes logs replayable and tamper-evident.

The encoder is built once, at import. ``json.JSONEncoder.encode`` builds a
new C encoder on every call, which costs about as much as encoding a small
value; here one prebuilt C encoder (``json.encoder.c_make_encoder``) serves
every call, with ``JSONEncoder.encode`` as the fallback where the C encoder
is missing. Both give ``json.dumps``'s text for these options.

The prebuilt encoder skips the circular-reference check: it gets no
``markers`` dict, since a shared one would keep stale ids after an encoding
error. That is safe because everything encoded here is either parsed JSON or
built from checked fields, and neither can contain itself.
"""

from __future__ import annotations

import hashlib
import json
from json import encoder as _json_encoder
from typing import Any, Callable

ZERO_DIGEST = "0" * 64

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def make_canonical_json(c_make_encoder: Callable | None) -> Callable[[Any], str]:
    """The canonical encoding as one function: through one encoder that
    ``c_make_encoder`` builds now with ``_ENCODER``'s options, or, when it is
    ``None``, through ``_ENCODER.encode``."""
    if c_make_encoder is None:
        return _ENCODER.encode
    encode = c_make_encoder(
        None,  # markers: no circular-reference check
        _ENCODER.default,
        _json_encoder.encode_basestring,
        None,  # indent
        _ENCODER.key_separator,
        _ENCODER.item_separator,
        _ENCODER.sort_keys,
        _ENCODER.skipkeys,
        _ENCODER.allow_nan,
    )
    join = "".join

    def canonical_json(value: Any) -> str:
        # the chunks are a list before Python 3.12 and a tuple from it on
        return join(encode(value, 0))

    return canonical_json


canonical_json = make_canonical_json(_json_encoder.c_make_encoder)


def text_digest(text: str) -> str:
    """SHA-256 hex digest of a text's UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_of(value: Any) -> str:
    """SHA-256 hex digest of a value's canonical JSON form."""
    return text_digest(canonical_json(value))
