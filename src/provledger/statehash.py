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

The layers report each write that changes a value through one hook,
``(kind, key, old, new)``, with ``new`` ``None`` for a removed leaf; a set
member's value is ``True``. ``old`` is ``None`` for an absent leaf, else a
function returning the value as it was before the write, which the hook
calls only when it holds no leaf for the key (see below). A counter is a
member leaf with a multiplicity (Clarke et al., "Incremental Multiset Hash
Functions", 2003): a sender's executed nonce count ``n`` is ``n`` copies of
``["nonces", address, true]``, so a step of the counter adds one leaf, not
the old and the new value.

A member leaf never changes, so :meth:`StateAccumulator.count` reads it from
a bounded memo: a sender's member leaf is hashed once while it is among the
last ``MEMBER_MEMO_SIZE`` (1024) keys counted, at most ~2.2 MB held.

A write that replaces a stored value subtracts the old value's leaf, which
this accumulator itself added when it wrote that value. So each accumulator
holds the leaf added by each of its last ``HELD_LEAVES`` (512) replacing
writes, one per ``(kind, key)`` and at most ~1.2 MB, and the next write of
that key subtracts the held leaf instead of building and hashing the old
value again. A creation holds nothing: a value rewritten once, such as a
record's status or a token's approvals, is the one likely to be rewritten
again. A write hashes its new leaf, if any, and its old one unless held.

Neither memo changes a digest. The from-scratch :func:`snapshot_digest`
reads neither and hashes every leaf itself, so it stays an independent
check of the incremental digest.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from typing import Any, Callable

from .canonical import checked_json

LEAF_BYTES = 2048
MEMBER_MEMO_SIZE = 1024  # member leaves held: at most ~2.2 MB
HELD_LEAVES = 512  # leaves of rewritten values held per accumulator: ~1.2 MB
_MASK = (1 << (8 * LEAF_BYTES)) - 1

# scalar snapshot fields, hashed beside the accumulator instead of as leaves
SCALARS = ("configDigest", "nextProvId", "nextTokenId", "policyDigest", "seededTotal", "treasury")

WriteHook = Callable[[str, Any, Callable[[], Any] | None, Any], None]


def ignore_write(kind: str, key: Any, old: Any, new: Any) -> None:
    """The hook of a layer built outside a ledger: nothing is committed."""


def _leaf(kind: str, key: Any, value: Any) -> int:
    data = checked_json([kind, key, value])
    return int.from_bytes(hashlib.shake_256(data).digest(LEAF_BYTES), "little")


@functools.lru_cache(maxsize=MEMBER_MEMO_SIZE)
def _member_leaf(kind: str, key: Any) -> int:
    """The member leaf ``[kind, key, true]``, hashed once while memoised."""
    return _leaf(kind, key, True)


class StateAccumulator:
    """The multiset hash of the live leaves."""

    __slots__ = ("_sum", "_held")

    def __init__(self):
        self._sum = 0
        # (kind, key) -> the leaf its last replacing write added, oldest first
        self._held: OrderedDict[tuple[str, Any], int] = OrderedDict()

    def write(self, kind: str, key: Any, old: Callable[[], Any] | None, new: Any) -> None:
        """Replace leaf ``[kind, key, old()]`` with ``[kind, key, new]``."""
        if old is None:  # a creation: nothing is held, as the last write removed the key
            self._sum += _leaf(kind, key, new)
            return
        slot = (kind, key)
        held = self._held.pop(slot, None)
        self._sum -= _leaf(kind, key, old()) if held is None else held
        if new is not None:
            leaf = _leaf(kind, key, new)
            self._sum += leaf
            self._held[slot] = leaf
            if len(self._held) > HELD_LEAVES:
                self._held.popitem(last=False)

    def count(self, kind: str, key: Any) -> None:
        """Add one copy of the member leaf ``[kind, key, true]``."""
        self._sum += _member_leaf(kind, key)

    def digest(self, scalars: dict) -> str:
        self._sum &= _MASK  # also maps a negative sum to its residue
        return _digest(self._sum, scalars)


def _digest(total: int, scalars: dict) -> str:
    """SHA-256 over the reduced sum ``total`` and the scalar fields."""
    data = total.to_bytes(LEAF_BYTES, "little") + checked_json(scalars)
    return hashlib.sha256(data).hexdigest()


def snapshot_digest(snapshot: dict) -> str:
    """The state digest computed from scratch out of a full
    :meth:`Ledger.state_snapshot`: the oracle of the incremental one, and
    O(state), so it is kept off the per-block path. It hashes every leaf
    itself and reads no memo."""
    total = 0
    for kind in ("records", "tokens"):
        for item in snapshot[kind]:
            total += _leaf(kind, item["id"], item)
    for client, amount in snapshot["balances"].items():
        total += _leaf("balances", client, amount)
    for client, nonce in snapshot["nonces"].items():
        total += nonce * _leaf("nonces", client, True)
    for client in snapshot["whitelist"]:
        total += _leaf("whitelist", client, True)
    return _digest(total & _MASK, {name: snapshot[name] for name in SCALARS})
