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

Values built from checked fields, the ones hashed on every block, are
encoded by :func:`checked_json` instead, in one ``orjson`` pass that writes
the same bytes several times faster. Such a value holds only dicts with
``str`` keys, lists, tuples, ``str``, ``int``, ``bool`` and ``None``, never a
float: orjson writes ``1e+16`` as ``1e16`` and NaN as ``null``, so
:func:`canonical_json` stays the stdlib encoder for values that may hold
floats (CLI output, unparsed log lines, the policy and config digests). What
orjson refuses (an ``int`` outside 64 bits, a lone surrogate, a subclass, a
non-``str`` key, any other unknown type) falls back to :func:`canonical_json`,
so it gives the bytes or the error the stdlib gives. orjson also writes an
``Enum`` member and a ``UUID``, which the stdlib refuses; neither is a checked
value.
"""

from __future__ import annotations

import hashlib
import json
from json import encoder as _json_encoder
from typing import Any, Callable

import orjson

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

_ORJSON_OPTIONS = (
    orjson.OPT_SORT_KEYS
    | orjson.OPT_PASSTHROUGH_SUBCLASS
    | orjson.OPT_PASSTHROUGH_DATACLASS
    | orjson.OPT_PASSTHROUGH_DATETIME
)


def checked_json(value: Any) -> bytes:
    """The UTF-8 bytes of a float-free value's canonical JSON form (see the
    module docstring). A lone surrogate raises ``UnicodeEncodeError``."""
    try:
        return orjson.dumps(value, option=_ORJSON_OPTIONS)
    except TypeError:  # orjson.JSONEncodeError is a TypeError
        return canonical_json(value).encode("utf-8")


def text_digest(text: str) -> str:
    """SHA-256 hex digest of a text's UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_of(value: Any) -> str:
    """SHA-256 hex digest of a value's canonical JSON form."""
    return text_digest(canonical_json(value))
