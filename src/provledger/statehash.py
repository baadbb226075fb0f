"""Incremental state commitment: a multiset hash over keyed leaves.

Every stored fact is one leaf ``[kind, key, value]``, where ``kind`` names
the :meth:`Ledger.state_snapshot` field it belongs to. The accumulator is
the sum, mod 2^16384, of SHAKE-256 of each live leaf's canonical JSON, read
as a 2048-byte little-endian integer (AdHash, Bellare & Micciancio 1997,
sized as LtHash, Lewi et al. 2019). A write subtracts the old leaf and adds
the new one, so keeping the sum current costs O(writes), and equal states
give equal sums whatever order they were written in. The state digest is
SHA-256 over the accumulator followed by the canonical JSON of the scalar
fields.

The layers report each write through one hook, ``(kind, key, old, new)``
with ``None`` for an absent leaf; a set member's value is ``True``. A
counter is a member leaf with a multiplicity (Clarke et al., "Incremental
Multiset Hash Functions", 2003): a sender's executed nonce count ``n`` is
``n`` copies of ``["nonces", address, true]``, so a step of the counter
adds one leaf, not the old and the new value.

A member leaf never changes, so :meth:`StateAccumulator.count` reads it from
a bounded memo: a sender's member leaf is hashed once while it is among the
last ``MEMBER_MEMO_SIZE`` (1024) keys counted, at most ~2.2 MB held. The
from-scratch :func:`snapshot_digest` bypasses the memo and hashes every
leaf itself, so it stays an independent check of the incremental digest.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Callable

from .canonical import canonical_json

LEAF_BYTES = 2048
MEMBER_MEMO_SIZE = 1024  # member leaves held: at most ~2.2 MB
_MASK = (1 << (8 * LEAF_BYTES)) - 1

# scalar snapshot fields, hashed beside the accumulator instead of as leaves
SCALARS = ("configDigest", "nextProvId", "nextTokenId", "policyDigest", "seededTotal", "treasury")

WriteHook = Callable[[str, Any, Any, Any], None]


def ignore_write(kind: str, key: Any, old: Any, new: Any) -> None:
    """The hook of a layer built outside a ledger: nothing is committed."""


def _leaf(kind: str, key: Any, value: Any) -> int:
    data = canonical_json([kind, key, value]).encode("utf-8")
    return int.from_bytes(hashlib.shake_256(data).digest(LEAF_BYTES), "little")


@functools.lru_cache(maxsize=MEMBER_MEMO_SIZE)
def _member_leaf(kind: str, key: Any) -> int:
    """The member leaf ``[kind, key, true]``, hashed once while memoised."""
    return _leaf(kind, key, True)


class StateAccumulator:
    """The multiset hash of the live leaves."""

    __slots__ = ("_sum",)

    def __init__(self):
        self._sum = 0

    def write(self, kind: str, key: Any, old: Any, new: Any) -> None:
        """Replace leaf ``[kind, key, old]`` with ``[kind, key, new]``."""
        if old == new:
            return
        if old is not None:
            self._sum -= _leaf(kind, key, old)
        if new is not None:
            self._sum += _leaf(kind, key, new)

    def count(self, kind: str, key: Any, delta: int) -> None:
        """Add ``delta`` copies of the member leaf ``[kind, key, true]``;
        a negative ``delta`` removes copies."""
        leaf = _member_leaf(kind, key)
        self._sum += leaf if delta == 1 else delta * leaf

    def digest(self, scalars: dict) -> str:
        self._sum &= _MASK  # also maps a negative sum to its residue
        data = self._sum.to_bytes(LEAF_BYTES, "little") + canonical_json(scalars).encode("utf-8")
        return hashlib.sha256(data).hexdigest()


def snapshot_digest(snapshot: dict) -> str:
    """The state digest computed from scratch out of a full
    :meth:`Ledger.state_snapshot`: the oracle of the incremental one, and
    O(state), so it is kept off the per-block path."""
    accumulator = StateAccumulator()
    for kind in ("records", "tokens"):
        for item in snapshot[kind]:
            accumulator.write(kind, item["id"], None, item)
    for client, amount in snapshot["balances"].items():
        accumulator.write("balances", client, None, amount)
    for client, nonce in snapshot["nonces"].items():
        # not count(): the check hashes each leaf itself, never the memo
        accumulator._sum += nonce * _leaf("nonces", client, True)
    for client in snapshot["whitelist"]:
        accumulator.write("whitelist", client, None, True)
    return accumulator.digest({name: snapshot[name] for name in SCALARS})
