"""Simulated hash-chained ledger executing the provenance state machine.

All mutations travel as transactions through a fee-prioritized mempool and
are applied by deterministic block production on a simulated clock. Blocks
are hash-linked (SHA-256 over canonical JSON), each block hash covering the
block's post-state digest, and persisted as an append-only JSON-lines log of
one block per line; the genesis digest covers the policy and the config.
Replay detects any edit that leaves a line inconsistent with the rest: a
changed byte, a reordered or missing line, or a torn final line. It cannot
detect dropping whole trailing lines, since what remains is a valid shorter
chain, nor a rewrite that recomputes every hash and digest from some height
on; the hashes are unkeyed.

Failed transactions are recorded on-chain with their error code; they
consume the sender's nonce but leave the state machine untouched.

A load may start from ``checkpoint.json``, a cache beside the log that
holds the state after some block ``h``, instead of from genesis. It is used
only if it binds: the line at its byte offset passes every check a line
gets on its own as block ``h`` with the file's block hash, and the state
it holds has, its leaves hashed from scratch as read, that block's state
digest (see :meth:`Ledger.restore`).
The lines after ``h`` are replayed with every check. The lines before it
are not read; line ``h``'s parent link is not checked and its transactions
are not re-executed, so its state digest is taken as given. Two edits thus
pass a load and are caught only by :func:`verify_chain`, which always
replays from genesis: an edit before ``h`` that keeps every line's length,
and a rewrite of line ``h`` (and of every line after it) made together
with the file, which serves whatever state the file holds, even one no
valid transactions reach. Nothing hashes the file: it is safe to delete,
and it is written without ``fsync``, since a torn file only fails to bind
and costs a full replay.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import heapq
import json
import os
import random
import re
import reprlib
from binascii import hexlify
from collections import deque
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Mapping, NamedTuple, Sequence

import orjson

from .canonical import UINT64_MAX, ZERO_DIGEST, canonical_json, checked_json, digest_of
from .errors import (
    BadNonceError,
    ClockExhaustedError,
    ConfigInvalidError,
    CorruptLogError,
    IoFailureError,
    LedgerError,
    MalformedPayloadError,
)
from .policy import PolicyLayer, UseCasePolicy, policy_from_dict, resolve_client
from .records import Context, check_context_entries
from .statehash import StateAccumulator, snapshot_digest, snapshot_sum
from .tokens import ClientId, check_hex_address

BLOCKS_FILE = "blocks.jsonl"
POLICY_FILE = "policy.json"
CONFIG_FILE = "config.json"
CHECKPOINT_FILE = "checkpoint.json"

NOT_CANONICAL = "log line is not in canonical form"


# --- configuration ---------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Block production parameters: interval and capacity bound throughput.

    ``jitter`` adds a seeded uniform +/-20% to each interval to emulate
    irregular block times; it defaults to off so runs are exactly repeatable.
    """

    block_interval_ms: int
    block_capacity: int
    rng_seed: int = 0
    jitter: bool = False

    def __post_init__(self):
        if type(self.block_interval_ms) is not int or not 1 <= self.block_interval_ms <= UINT64_MAX:
            raise ConfigInvalidError("block interval must be an integer from 1 to 2**64 - 1 ms")
        if type(self.block_capacity) is not int or self.block_capacity < 1:
            raise ConfigInvalidError("block capacity must be an integer >= 1")
        if type(self.rng_seed) is not int or not 0 <= self.rng_seed <= UINT64_MAX:
            raise ConfigInvalidError("rng seed must be an unsigned 64-bit integer")
        if type(self.jitter) is not bool:
            raise ConfigInvalidError("jitter must be a boolean")

    def as_dict(self) -> dict:
        return {
            "blockIntervalMs": self.block_interval_ms,
            "blockCapacity": self.block_capacity,
            "rngSeed": self.rng_seed,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, data: object) -> "SimConfig":
        if not isinstance(data, dict):
            raise ConfigInvalidError("sim config must be a JSON object")
        unknown = set(data) - {"blockIntervalMs", "blockCapacity", "rngSeed", "jitter"}
        if unknown:
            raise ConfigInvalidError(f"unknown sim config fields: {sorted(unknown)}")
        for field in ("blockIntervalMs", "blockCapacity"):
            if field not in data:
                raise ConfigInvalidError(f"sim config requires {field}")
        return cls(
            block_interval_ms=data["blockIntervalMs"],
            block_capacity=data["blockCapacity"],
            rng_seed=data.get("rngSeed", 0),
            jitter=data.get("jitter", False),
        )

    def digest(self) -> str:
        return digest_of(self.as_dict())


# --- operations -------------------------------------------------------------

def _check_uint(value: object, label: str) -> int:
    if type(value) is not int or not 0 <= value <= UINT64_MAX:
        raise MalformedPayloadError(f"{label} must be an unsigned 64-bit integer")
    return value


def _check_address(value: object, label: str) -> str:
    """``value`` if :meth:`ClientId.from_hex` accepts it, checked without
    building the address."""
    if type(value) is not str:
        raise MalformedPayloadError(f"{label} must be a 0x-hex address string")
    try:
        return check_hex_address(value)
    except ValueError as exc:
        raise MalformedPayloadError(f"bad {label}: {exc}") from exc


def _sender(text: object, senders: dict[str, ClientId] | None) -> ClientId:
    """The sender address ``text`` names. ``senders``, when given, maps each
    accepted text to its address, so that each distinct text is built once."""
    if senders is not None and type(text) is str:
        sender = senders.get(text)
        if sender is None:
            sender = senders[text] = ClientId.from_checked_hex(_check_address(text, "sender"))
        return sender
    return ClientId.from_checked_hex(_check_address(text, "sender"))


def _check_context(value: object, label: str) -> dict:
    """``value`` if :class:`Context` accepts it, checked without building one."""
    if not isinstance(value, dict):
        raise MalformedPayloadError(f"{label} must be an object of string keys and values")
    try:
        return check_context_entries(value)
    except ValueError as exc:
        raise MalformedPayloadError(str(exc)) from exc


def _check_inputs(value: object, label: str) -> list:
    if not isinstance(value, list):
        raise MalformedPayloadError(f"{label} must be a list of record ids")
    for item in value:
        _check_uint(item, "input id")
    return value


def _current_owner(machine: PolicyLayer, payload: dict) -> str:
    token_id = _check_uint(payload.get("tokenId"), "tokenId")
    return machine.tokens.owner_of(token_id).hex


@dataclass(frozen=True)
class Operation:
    """Everything the stack knows about one transaction type.

    ``fields`` maps each payload field to its checker, called with the value
    and the field name; a payload carries exactly these fields plus ``op``,
    the set ``keys``. Checkers build nothing: the handler builds each address
    and context once, from the checked text, without checking it again.
    ``client_fields`` hold addresses a client may write as aliases.
    ``defaults`` compute, from the current state, fields a client may omit.
    ``handler`` executes the op and returns its result value (``None`` for
    none); it must look layer methods up when called, not when defined.
    """

    fields: Mapping[str, Callable[[object, str], object]]
    handler: Callable[[PolicyLayer, ClientId, dict], dict | None]
    client_fields: tuple[str, ...] = ()
    defaults: Mapping[str, Callable[[PolicyLayer, dict], object]] = field(default_factory=dict)
    keys: frozenset[str] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "keys", frozenset(self.fields) | {"op"})


# The one place an operation is defined: adding an op means one entry here
# plus the layer method its handler calls.
OPS: dict[str, Operation] = {
    "requestToken": Operation(
        fields={"payment": _check_uint},
        defaults={"payment": lambda machine, payload: 0},
        handler=lambda m, sender, p: {"tokenId": m.request_token(sender, p["payment"])},
    ),
    "transfer": Operation(
        fields={"tokenId": _check_uint, "from": _check_address, "to": _check_address},
        client_fields=("from", "to"),
        defaults={"from": _current_owner},
        handler=lambda m, sender, p: m.tokens.transfer(
            sender,
            ClientId.from_checked_hex(p["from"]),
            ClientId.from_checked_hex(p["to"]),
            p["tokenId"],
        ),
    ),
    "approve": Operation(
        fields={"tokenId": _check_uint, "operator": _check_address},
        client_fields=("operator",),
        handler=lambda m, sender, p: m.tokens.approve(
            sender, ClientId.from_checked_hex(p["operator"]), p["tokenId"]
        ),
    ),
    "createProvenance": Operation(
        fields={"tokenId": _check_uint, "inputs": _check_inputs, "context": _check_context},
        defaults={"inputs": lambda machine, payload: []},
        handler=lambda m, sender, p: {
            "provId": m.create_provenance_checked(
                sender, p["tokenId"], p["inputs"], Context.from_checked(p["context"])
            )
        },
    ),
    "updateContext": Operation(
        fields={"provId": _check_uint, "context": _check_context},
        handler=lambda m, sender, p: m.gate_update(
            sender, p["provId"], Context.from_checked(p["context"])
        ),
    ),
    "invalidate": Operation(
        fields={"provId": _check_uint},
        handler=lambda m, sender, p: m.gate_invalidate(sender, p["provId"]),
    ),
    "whitelistAdd": Operation(
        fields={"member": _check_address},
        client_fields=("member",),
        handler=lambda m, sender, p: m.whitelist_add(
            sender, ClientId.from_checked_hex(p["member"])
        ),
    ),
    "whitelistRemove": Operation(
        fields={"member": _check_address},
        client_fields=("member",),
        handler=lambda m, sender, p: m.whitelist_remove(
            sender, ClientId.from_checked_hex(p["member"])
        ),
    ),
}


def _operation(payload: object) -> Operation:
    if not isinstance(payload, dict):
        raise MalformedPayloadError("payload must be a JSON object")
    op = payload.get("op")
    # only a str is looked up: another op may be unhashable
    operation = OPS.get(op) if type(op) is str else None
    if operation is None:
        raise MalformedPayloadError(f"unknown operation {reprlib.repr(op)}")
    return operation


def validate_payload(payload: object) -> dict:
    """Strict structural check; returns the payload if well-formed."""
    operation = _operation(payload)
    if payload.keys() != operation.keys:
        raise MalformedPayloadError(
            f"{payload['op']} payload must have exactly fields {sorted(operation.keys)}"
        )
    for name, checker in operation.fields.items():
        checker(payload[name], name)
    return payload


def resolve_payload(machine: PolicyLayer, payload: object) -> dict:
    """Complete a client-written payload before submission.

    Aliases in client fields become 0x-hex addresses and omitted fields get
    their defaults from the current state (a transfer's ``from`` is the
    token's owner, so a missing token raises ``TokenNotFoundError``). The
    result still goes through :func:`validate_payload` on submission.
    """
    operation = _operation(payload)
    resolved = dict(payload)
    for name in operation.client_fields:
        if type(resolved.get(name)) is str:
            resolved[name] = resolve_client(resolved[name], "client reference").hex
    for name, default in operation.defaults.items():
        if name not in resolved:
            resolved[name] = default(machine, resolved)
    return resolved


# --- transactions and blocks ------------------------------------------------

# used with fullmatch: a match ending in "$" would accept a trailing newline
_HASH_HEX = re.compile(r"[0-9a-f]{64}")


def _check_hash_hex(value: object, label: str) -> str:
    if type(value) is not str or not _HASH_HEX.fullmatch(value):
        raise MalformedPayloadError(f"{label} must be 64 lowercase hex chars")
    return value


# the exact key sets of a transaction's and a block's wire form
_TX_FIELDS = frozenset({"fee", "hash", "nonce", "payload", "sender", "submittedAt"})
_BLOCK_FIELDS = frozenset(
    {"blockHash", "height", "parentHash", "results", "stateDigest", "timestamp", "transactions"}
)


@dataclass(frozen=True, slots=True)
class Transaction:
    """One state-machine operation, checked and hashed when it is made.

    The constructor, ``dataclasses.replace`` and :meth:`from_wire` all check
    every field and compute ``hash``, which covers every other field and is
    never passed in. The payload is kept once, as ``payload_text``: its
    canonical JSON text, which the hash was computed from, the log line is
    written from and execution decodes. The dict passed in is checked and
    encoded, not kept, so later edits to it reach neither execution nor the
    log; each read of ``payload`` decodes the text into a new dict. Since
    ``payload`` is not a stored field, ``dataclasses.replace`` must name it.
    ``payload_text`` takes no part in equality; ``hash`` does.
    """

    sender: ClientId
    nonce: int
    payload: InitVar[dict]
    fee: int
    submitted_at: int
    hash: str = field(init=False)
    payload_text: str = field(init=False, compare=False, repr=False)

    def __post_init__(self, payload: dict) -> None:
        sender = self.sender
        if not isinstance(sender, ClientId):
            raise MalformedPayloadError("sender must be a client address")
        if sender.is_zero:
            raise MalformedPayloadError("sender must not be the zero address")
        _check_uint(self.nonce, "nonce")
        _check_uint(self.fee, "fee")
        _check_uint(self.submitted_at, "submittedAt")
        try:
            payload_json = checked_json(validate_payload(payload))
        except orjson.JSONEncodeError as exc:  # a lone surrogate, which UTF-8 cannot hold
            raise MalformedPayloadError(f"payload is not UTF-8 text: {exc}") from exc
        data = self.hashed_json(sender, self.nonce, payload_json, self.fee, self.submitted_at)
        object.__setattr__(self, "hash", hashlib.sha256(data).hexdigest())
        object.__setattr__(self, "payload_text", payload_json.decode("utf-8"))

    @staticmethod
    def hashed_json(
        sender: ClientId, nonce: int, payload_json: bytes, fee: int, submitted_at: int
    ) -> bytes:
        """The canonical JSON bytes that ``hash`` is the SHA-256 of, for
        checked fields and the payload's canonical JSON bytes: the sorted
        outer keys are written around those bytes, since an ``int``'s text is
        its JSON and an address holds nothing to escape."""
        return b'{"fee":%d,"nonce":%d,"payload":%b,"sender":"0x%b","submittedAt":%d}' % (
            fee, nonce, payload_json, hexlify(sender.raw), submitted_at
        )

    @classmethod
    def build(
        cls, sender: ClientId, nonce: int, payload: dict, fee: int, submitted_at: int
    ) -> "Transaction":
        """The constructor under its older name, which the benchmark in
        ``perfbench/`` calls."""
        return cls(sender, nonce, payload, fee, submitted_at)

    def wire_dict(self) -> dict:
        return {
            "fee": self.fee,
            "hash": self.hash,
            "nonce": self.nonce,
            "payload": self.payload,
            "sender": self.sender.hex,
            "submittedAt": self.submitted_at,
        }

    def wire_text(self) -> str:
        """The canonical JSON text of :meth:`wire_dict`, written around the
        kept payload text as :meth:`hashed_json` is, with the hash after
        ``fee``, where sorted keys place it."""
        return (
            f'{{"fee":{self.fee},"hash":"{self.hash}","nonce":{self.nonce},'
            f'"payload":{self.payload_text},"sender":"{self.sender.hex}",'
            f'"submittedAt":{self.submitted_at}}}'
        )

    @classmethod
    def from_wire(
        cls, data: object, senders: dict[str, ClientId] | None = None
    ) -> "Transaction":
        """The transaction ``data`` describes. ``senders``, shared by the
        transactions of one load, keeps each sender address built once;
        without it, as for a one-off parse, the sender is built anew."""
        if not isinstance(data, dict):
            raise MalformedPayloadError("transaction must be a JSON object")
        if data.keys() != _TX_FIELDS:
            raise MalformedPayloadError(
                f"transaction must have exactly fields {sorted(_TX_FIELDS)}"
            )
        tx = cls(
            _sender(data["sender"], senders),
            data["nonce"],
            data["payload"],
            data["fee"],
            data["submittedAt"],
        )
        if tx.hash != data["hash"]:
            # a hash equal to the computed one is well-formed
            _check_hash_hex(data["hash"], "transaction hash")
            raise MalformedPayloadError("transaction hash does not match its fields")
        return tx


# set after the class body, where it would be the ``payload`` InitVar's default
Transaction.payload = property(
    lambda self: orjson.loads(self.payload_text),
    doc="A new dict decoded from ``payload_text``, the text that was hashed.",
)


@dataclass(frozen=True)
class Block:
    """Hash-linked batch of executed transactions with per-tx results and the
    post-state digest; ``block_hash`` covers every other field."""

    height: int
    parent_hash: str
    timestamp: int
    transactions: tuple[Transaction, ...]
    results: tuple[str, ...]
    state_digest: str
    block_hash: str

    @staticmethod
    def compute_block_hash(
        height: int,
        parent_hash: str,
        timestamp: int,
        tx_hashes: Iterable[str],
        results: Iterable[str],
        state_digest: str,
    ) -> str:
        data = checked_json(
            {
                "height": height,
                "parentHash": parent_hash,
                "results": list(results),
                "stateDigest": state_digest,
                "timestamp": timestamp,
                "txHashes": list(tx_hashes),
            }
        )
        return hashlib.sha256(data).hexdigest()

    @classmethod
    def seal(
        cls,
        height: int,
        parent_hash: str,
        timestamp: int,
        transactions: tuple[Transaction, ...],
        results: tuple[str, ...],
        state_digest: str,
    ) -> "Block":
        block_hash = cls.compute_block_hash(
            height, parent_hash, timestamp, (tx.hash for tx in transactions), results, state_digest
        )
        return cls(height, parent_hash, timestamp, transactions, results, state_digest, block_hash)

    def wire_dict(self) -> dict:
        return {
            "blockHash": self.block_hash,
            "height": self.height,
            "parentHash": self.parent_hash,
            "results": list(self.results),
            "stateDigest": self.state_digest,
            "timestamp": self.timestamp,
            "transactions": [tx.wire_dict() for tx in self.transactions],
        }

    def wire_line(self) -> str:
        """The canonical JSON text of :meth:`wire_dict`, written from each
        transaction's :meth:`~Transaction.wire_text`, so no payload is
        encoded again."""
        header = checked_json(
            {
                "blockHash": self.block_hash,
                "height": self.height,
                "parentHash": self.parent_hash,
                "results": list(self.results),
                "stateDigest": self.state_digest,
                "timestamp": self.timestamp,
                "transactions": [],
            }
        ).decode("utf-8")
        # "transactions" sorts last, so the header's text ends in "[]}"
        return header[:-2] + ",".join(tx.wire_text() for tx in self.transactions) + "]}"

    @classmethod
    def from_wire(
        cls,
        data: object,
        line: bytes | None = None,
        senders: dict[str, ClientId] | None = None,
    ) -> "Block":
        """The block ``data`` describes. With ``line``, the UTF-8 bytes
        ``data`` was parsed from, which must be the block's canonical JSON:
        after every value and hash check, ``line`` is compared with the
        canonical JSON of ``data`` itself, which equals :meth:`wire_line`'s
        once those checks pass. ``senders`` is passed to
        :meth:`Transaction.from_wire`."""
        if not isinstance(data, dict):
            raise MalformedPayloadError("block must be a JSON object")
        if data.keys() != _BLOCK_FIELDS:
            raise MalformedPayloadError(f"block must have exactly fields {sorted(_BLOCK_FIELDS)}")
        _check_uint(data["height"], "height")
        _check_uint(data["timestamp"], "timestamp")
        _check_hash_hex(data["parentHash"], "parentHash")
        _check_hash_hex(data["stateDigest"], "stateDigest")
        _check_hash_hex(data["blockHash"], "blockHash")
        if not isinstance(data["transactions"], list):
            raise MalformedPayloadError("transactions must be a list")
        transactions = tuple(Transaction.from_wire(item, senders) for item in data["transactions"])
        results = data["results"]
        if not isinstance(results, list) or any(
            type(r) is not str or not r for r in results
        ):
            raise MalformedPayloadError("results must be a list of non-empty strings")
        if len(results) != len(transactions):
            raise MalformedPayloadError("results and transactions must align")
        block = cls.seal(
            height=data["height"],
            parent_hash=data["parentHash"],
            timestamp=data["timestamp"],
            transactions=transactions,
            results=tuple(results),
            state_digest=data["stateDigest"],
        )
        if block.block_hash != data["blockHash"]:
            raise MalformedPayloadError("block hash does not match its contents")
        if line is not None and checked_json(data) != line:
            raise MalformedPayloadError(NOT_CANONICAL)
        return block


class ExecutionOutcome(NamedTuple):
    """Result of one transaction inside a produced block."""

    tx: Transaction
    status: str  # "ok" or an error code
    value: dict | None = None
    message: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class ChainVerification:
    ok: bool
    first_corrupt_height: int | None = None
    reason: str | None = None

    def as_dict(self) -> dict:
        data: dict = {"ok": self.ok}
        if not self.ok:
            data["firstCorruptHeight"] = self.first_corrupt_height
            data["reason"] = self.reason
        return data


# --- the ledger -------------------------------------------------------------

class Ledger:
    """Single-producer chain over the policy/provenance state machine.

    One instance owns all state; mutations happen only inside
    :meth:`produce_block`, strictly sequentially. Reads may happen at any
    time between blocks. The log on disk is the one copy of the chain: in
    memory a ledger holds only its head and the blocks not yet persisted.
    """

    def __init__(self, policy: UseCasePolicy, config: SimConfig):
        self.policy = policy
        self.config = config
        self._policy_digest = policy.digest()
        self._config_digest = config.digest()
        # the multiset hash of the collection state, kept current by every write
        self._accumulator = StateAccumulator()
        self._machine = PolicyLayer.build(policy, self._accumulator.write)
        # pending transactions per sender in nonce order: each queue's head
        # carries its sender's next unexecuted nonce; empty queues are dropped
        self._mempool: dict[bytes, deque[Transaction]] = {}
        self._executed_nonce: dict[bytes, int] = {}
        # the genesis digest covers the policy and config digests, so every
        # block hash commits to the rules the chain runs under
        genesis = Block.seal(0, ZERO_DIGEST, 0, (), (), self.state_digest())
        self._blocks: list[Block] = [genesis]
        # the resolved directory and log, set once by _bind, and the spelling
        # of the directory persist last accepted
        self._directory: Path | None = None
        self._log: Path | None = None
        self._spelling: str | Path | None = None
        # whether the bound log's last line lacks its newline, which the
        # next append writes first
        self._unterminated = False

    @classmethod
    def restore(
        cls, policy: UseCasePolicy, config: SimConfig, head: Block, snapshot: dict
    ) -> "Ledger":
        """The ledger at ``head`` whose state is ``snapshot``, shaped as
        :meth:`state_snapshot` returns it, with an empty mempool and bound
        to no directory; it takes over ``snapshot``'s context dicts.

        The leaves of ``snapshot`` as given are hashed from scratch by
        :func:`~provledger.statehash.snapshot_sum`, which also refuses an
        item out of its place and a nonce count that is not a positive
        ``int``. The layers are then built from the items without checking
        them again, apart from each context's key order, which
        :meth:`~provledger.records.RecordStore.restore` checks. The built
        ledger's :meth:`state_digest`, with the sum taken as its
        accumulator, must be ``head.state_digest``; the derived scalars are
        thus read off the built state, never from the file. Otherwise this
        raises ``ValueError``, or whatever a malformed item raises. A match
        proves the items are the committed leaves, so the state is the one
        ``head`` commits to, whatever else ``snapshot`` holds.
        """
        total = snapshot_sum(snapshot)
        ledger = cls(policy, config)
        client = functools.cache(ClientId.from_hex)
        ledger._machine.restore(snapshot, client)
        ledger._executed_nonce = {client(text).raw: n for text, n in snapshot["nonces"].items()}
        ledger._accumulator.reset(total)
        if ledger.state_digest() != head.state_digest:
            raise ValueError(f"the state differs from the one block {head.height} commits to")
        ledger._blocks = [head]
        return ledger

    # -- read access --------------------------------------------------------

    @property
    def machine(self) -> PolicyLayer:
        return self._machine

    @property
    def blocks(self) -> tuple[Block, ...]:
        """The blocks held in memory, oldest first: the last persisted one, if
        any, and every block after it."""
        return tuple(self._blocks)

    @property
    def digests(self) -> tuple[str, ...]:
        """Post-state digest of each block in :attr:`blocks`."""
        return tuple(block.state_digest for block in self._blocks)

    @property
    def head(self) -> Block:
        return self._blocks[-1]

    @property
    def now(self) -> int:
        return self.head.timestamp

    @property
    def height(self) -> int:
        return self.head.height

    def pending_count(self) -> int:
        return sum(len(queue) for queue in self._mempool.values())

    def next_nonce(self, sender: ClientId) -> int:
        return self._executed_nonce.get(sender.raw, 0) + len(self._mempool.get(sender.raw, ()))

    def _scalars(self) -> dict:
        machine = self._machine
        return {
            "configDigest": self._config_digest,
            "nextProvId": machine.provenance.next_prov_id,
            "nextTokenId": machine.next_token_id,
            "policyDigest": self._policy_digest,
            "seededTotal": machine.seeded_total,
            "treasury": machine.treasury,
        }

    def state_snapshot(self) -> dict:
        """The whole state as plain data: O(state), for tests, tools and
        :func:`~provledger.statehash.snapshot_digest`."""
        return {
            **self._scalars(),
            **self._machine.snapshot(),
            "nonces": {
                "0x" + raw.hex(): nonce for raw, nonce in sorted(self._executed_nonce.items())
            },
        }

    def state_digest(self) -> str:
        """The post-state digest, from the incrementally kept accumulator and
        the scalars: O(1) in the size of the state."""
        return self._accumulator.digest(self._scalars())

    # -- clock ---------------------------------------------------------------

    def _interval_for(self, height: int) -> int:
        base = self.config.block_interval_ms
        if not self.config.jitter:
            return base
        rng = random.Random((self.config.rng_seed << 20) ^ height)
        spread = base // 5
        return max(1, base + rng.randint(-spread, spread))

    def next_block_timestamp(self) -> int:
        return self.now + self._interval_for(self.height + 1)

    # -- submission ----------------------------------------------------------

    def build_transaction(
        self,
        sender: ClientId,
        payload: dict,
        fee: int = 1,
        submitted_at: int | None = None,
        nonce: int | None = None,
    ) -> Transaction:
        """Assemble a transaction with the sender's next nonce by default."""
        if submitted_at is None:
            submitted_at = self.now
        if nonce is None:
            nonce = self.next_nonce(sender)
        return Transaction(sender, nonce, payload, fee, submitted_at)

    def submit(self, tx: Transaction) -> str:
        """Queue a transaction, checked and hashed when it was made (see
        :class:`Transaction`); returns its hash. Its nonce must be the
        sender's next counting executed and pending ones, which also rejects
        a resubmission."""
        expected = self.next_nonce(tx.sender)
        if tx.nonce != expected:
            raise BadNonceError(
                f"nonce {tx.nonce} for {tx.sender.hex}, expected {expected}"
            )
        self._mempool.setdefault(tx.sender.raw, deque()).append(tx)
        return tx.hash

    def submit_payload(
        self, sender: ClientId, payload: dict, fee: int = 1, submitted_at: int | None = None
    ) -> Transaction:
        tx = self.build_transaction(sender, payload, fee=fee, submitted_at=submitted_at)
        self.submit(tx)
        return tx

    # -- execution -----------------------------------------------------------

    def _execute(self, tx: Transaction) -> dict:
        # decoded from the hashed text: a new dict, which the op's contexts take over
        payload = orjson.loads(tx.payload_text)
        return OPS[payload["op"]].handler(self._machine, tx.sender, payload) or {}

    def _select_transactions(self, timestamp: int) -> list[Transaction]:
        """Take the next block's transactions off the mempool, in order.

        The rule: repeatedly take the best-ranked transaction, by (fee desc,
        submitted_at asc, hash asc), among those submitted by ``timestamp``
        whose nonce is its sender's next. Only queue heads qualify, so a heap
        of the ready heads holds every candidate; hashes are unique, so heap
        entries never compare their queues.
        """

        def entry(queue: deque[Transaction]) -> tuple:
            head = queue[0]
            return (-head.fee, head.submitted_at, head.hash, queue)

        heap = [
            entry(queue) for queue in self._mempool.values() if queue[0].submitted_at <= timestamp
        ]
        heapq.heapify(heap)
        selected: list[Transaction] = []
        while heap and len(selected) < self.config.block_capacity:
            queue = heapq.heappop(heap)[-1]
            tx = queue.popleft()
            selected.append(tx)
            if not queue:
                del self._mempool[tx.sender.raw]
            elif queue[0].submitted_at <= timestamp:
                heapq.heappush(heap, entry(queue))
        return selected

    def produce_block(self) -> tuple[Block, list[ExecutionOutcome]]:
        """Advance the clock one interval and seal the next block.

        Included transactions execute in selection order; failures are
        recorded with their error code and leave state untouched. An empty
        mempool still yields an (empty) block. A next timestamp past 2**64 - 1
        ms, which no log may hold, raises ``ClockExhaustedError`` before
        anything is selected.
        """
        timestamp = self.next_block_timestamp()
        if timestamp > UINT64_MAX:
            raise ClockExhaustedError(f"the next block time, {timestamp} ms, is past 2**64 - 1")
        return self._append_block(timestamp, self._select_transactions(timestamp))

    def _append_block(
        self, timestamp: int, transactions: Sequence[Transaction], block: Block | None = None
    ) -> tuple[Block, list[ExecutionOutcome]]:
        """Execute ``transactions`` as the next block and append it: the one
        execution loop of production and replay.

        Replay passes the logged ``block``, whose nonces, results and state
        digest the execution must reproduce, and keeps only it, as it is on
        disk; production passes none and seals one with the post-state digest.
        """
        height = self.height + 1
        executed_nonce = self._executed_nonce
        count = self._accumulator.count
        execute = self._execute
        outcomes: list[ExecutionOutcome] = []
        statuses: list[str] = []
        for tx in transactions:
            sender = tx.sender
            raw = sender.raw
            if tx.nonce != executed_nonce.get(raw, 0):
                raise CorruptLogError(
                    f"nonce gap for {sender.hex} at height {height}", height=height
                )
            try:
                outcome = ExecutionOutcome(tx, "ok", execute(tx))
            except LedgerError as exc:
                outcome = ExecutionOutcome(tx, exc.code, None, str(exc))
            outcomes.append(outcome)
            statuses.append(outcome.status)
            count("nonces", sender.hex)
            executed_nonce[raw] = tx.nonce + 1
        results = tuple(statuses)
        if block is None:
            block = Block.seal(
                height, self.head.block_hash, timestamp, tuple(transactions), results,
                self.state_digest(),
            )
        elif results != block.results:
            raise CorruptLogError(
                f"recorded results diverge from replay at height {height}", height=height
            )
        elif self.state_digest() != block.state_digest:
            raise CorruptLogError(f"state digest mismatch after height {height}", height=height)
        else:
            self._blocks.clear()
        self._blocks.append(block)
        return block, outcomes

    # -- persistence ----------------------------------------------------------

    def persist(self, directory: str | Path) -> Path:
        """Append blocks not yet on disk, one line each, then drop all but
        the head from memory; the only writer of a ledger directory.

        The first call starts the directory and binds the ledger to it: it
        refuses an existing block log, then writes the policy and config
        files. A ledger refuses every directory but its own. The log only
        ever grows; a call with no new blocks is a no-op.

        ``directory`` is resolved only when the ledger binds, or when it is
        not ``==`` to the argument last accepted, kept as given (``str`` or
        ``Path``); a spelling that resolves to the bound directory is then
        accepted. Appends always go to the log resolved at binding, so a
        relative spelling accepted before still names the bound directory
        after the working directory changes. Returns that log's path.
        """
        if self._log is None:
            self._start(directory)
        else:
            if directory != self._spelling:
                resolved = Path(directory).resolve()
                if resolved != self._directory:
                    raise IoFailureError(f"ledger belongs to {self._directory}, not {resolved}")
                self._spelling = directory
            if len(self._blocks) > 1:
                _append_lines(self._log, self._blocks[1:], self._unterminated)
                self._unterminated = False
        del self._blocks[:-1]
        return self._log

    def _start(self, directory: str | Path) -> None:
        """Write a new directory: policy, config, and every block held; then
        bind to it. A directory that already holds a block log is refused."""
        path = Path(directory)
        try:
            if (path / BLOCKS_FILE).exists():
                raise IoFailureError(f"ledger already exists at {path}")
            path.mkdir(parents=True, exist_ok=True)
            for name, data in (
                (POLICY_FILE, self.policy.as_dict()),
                (CONFIG_FILE, self.config.as_dict()),
            ):
                (path / name).write_text(canonical_json(data) + "\n", encoding="utf-8")
        except OSError as exc:
            raise IoFailureError(f"cannot write block log: {exc}") from exc
        _append_lines(path / BLOCKS_FILE, self._blocks)
        self._bind(directory)

    def _bind(self, directory: str | Path) -> None:
        """Bind the ledger to ``directory``: resolve it, once, and keep it as
        given, the spelling :meth:`persist` accepts without resolving it."""
        self._directory = Path(directory).resolve()
        self._log = self._directory / BLOCKS_FILE
        self._spelling = directory


def _append_lines(log: Path, blocks: Iterable[Block], end_line: bool = False) -> None:
    """Append each block's :meth:`~Block.wire_line`, UTF-8 and ending in a
    newline, in binary and one block at a time, so a long chain is never one
    text. With ``end_line``, first end the log's last line, which lacks its
    newline."""
    try:
        with open(log, "ab") as handle:
            if end_line:
                handle.write(b"\n")
            for block in blocks:
                handle.write(block.wire_line().encode("utf-8") + b"\n")
    except OSError as exc:
        raise IoFailureError(f"cannot write block log: {exc}") from exc


# --- ledger directories ------------------------------------------------------

def read_json_file(path: str | Path, label: str) -> Any:
    """The one reader of JSON input files: an unreadable file raises
    ``IoFailureError``, one that is not UTF-8 JSON ``ConfigInvalidError``."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailureError(f"cannot read {label}: {exc}") from exc
    try:
        return json.loads(data.decode("utf-8"))
    # UnicodeDecodeError is a ValueError; nesting too deep raises RecursionError
    except (ValueError, RecursionError) as exc:
        raise ConfigInvalidError(f"{label} is not valid UTF-8 JSON: {exc}") from exc


def init_ledger_dir(
    policy_data: object, config_data: object, directory: str | Path
) -> Ledger:
    """Create a fresh ledger directory: policy, config, and the genesis block.
    Refuses a directory that already holds a block log."""
    ledger = Ledger(policy_from_dict(policy_data), SimConfig.from_dict(config_data))
    ledger.persist(directory)
    return ledger


def load_ledger(directory: str | Path, *, checkpoint: bool = True) -> Ledger:
    """Reconstruct a ledger by replaying and fully validating its directory,
    read one line at a time; the result holds only its head and is bound to
    ``directory`` as :meth:`Ledger.persist` binds a ledger.

    Raises :class:`CorruptLogError` carrying the height of the first bad
    line; line ``h`` holds block ``h``. Validation covers: canonical line
    encoding, strict wire structure, per-transaction hashes, block hashes and
    parent links, strictly increasing timestamps, result agreement under
    re-execution, and the post-state digest of every block.

    With ``checkpoint``, the default, the replay starts after the block of
    ``checkpoint.json`` if that file binds to the log (see
    :func:`_restore_checkpoint`), and from genesis otherwise; every block
    after the start gets every check above. A load that replayed at least
    one block, and at least as many transactions as the state it started
    from holds records and tokens, then writes a checkpoint at its head
    (see :func:`_write_checkpoint`), so the replay a later load makes is
    never much longer than a restore. Without ``checkpoint``, the file is
    neither read nor written.

    Each line after genesis is read by :func:`_parse_block`, with
    ``orjson`` alone. The load builds one address per distinct sender text,
    shared by every transaction it reads.
    """
    path = Path(directory)
    policy = policy_from_dict(read_json_file(path / POLICY_FILE, "policy file"))
    config = SimConfig.from_dict(read_json_file(path / CONFIG_FILE, "config file"))

    try:
        with open(path / BLOCKS_FILE, "rb") as log:
            start = _restore_checkpoint(path, policy, config, log) if checkpoint else None
            if start is None:
                ledger, offset, raw = Ledger(policy, config), 0, log.readline()
                if not raw:
                    raise CorruptLogError("empty block log", height=0)
                # the genesis block is fully determined by policy and config, so
                # its line must be exactly the expected one, byte for byte
                if raw.removesuffix(b"\n") != ledger.head.wire_line().encode("utf-8"):
                    raise CorruptLogError("genesis block mismatch", height=0)
            else:
                ledger, offset, raw = start
            machine = ledger.machine
            held = machine.provenance.records.record_count() + machine.tokens.token_count()
            start_height, replayed = ledger.height, 0
            senders: dict[str, ClientId] = {}
            for line in log:
                # offset is where the head's line starts
                offset += len(raw)
                raw = line
                block = _read_block(line.removesuffix(b"\n"), ledger.height + 1, ledger.head,
                                    config, senders)
                ledger._append_block(block.timestamp, block.transactions, block)
                replayed += len(block.transactions)
    except OSError as exc:
        raise IoFailureError(f"cannot read block log: {exc}") from exc
    ledger._bind(directory)
    # a last line that lost its newline still loads; persist ends it first
    ledger._unterminated = not raw.endswith(b"\n")
    if checkpoint and ledger.height > start_height and replayed >= held:
        _write_checkpoint(ledger, offset)
    return ledger


def _read_block(
    line: bytes,
    height: int,
    previous: Block | None,
    config: SimConfig,
    senders: dict[str, ClientId],
) -> Block:
    """The block on log line ``height``, after genesis, with every check a
    line gets before it is executed; without ``previous``, the block before
    it, the parent link and the timestamp order are not checked."""
    block = _parse_block(line, height, senders)
    if block.height != height:
        raise CorruptLogError(f"expected height {height}, found {block.height}", height=height)
    if previous is not None:
        if block.parent_hash != previous.block_hash:
            raise CorruptLogError("broken parent link", height=height)
        if block.timestamp <= previous.timestamp:
            raise CorruptLogError("timestamps must strictly increase", height=height)
    if len(block.transactions) > config.block_capacity:
        raise CorruptLogError("block over capacity", height=height)
    if any(tx.submitted_at > block.timestamp for tx in block.transactions):
        raise CorruptLogError("transaction submitted after its block", height=height)
    return block


def _parse_block(raw: bytes, height: int, senders: dict[str, ClientId]) -> Block:
    """The block on a log line after genesis, read with ``orjson``, the one
    reader of log lines; ``senders`` is passed to :meth:`Block.from_wire`.

    A line orjson refuses is ``unparseable log line``: invalid UTF-8 or
    JSON, NaN, a lone surrogate, a number too large for a float. Otherwise
    :meth:`Block.from_wire` decides, first on the value and then on the
    form: a block whose text is not its canonical line is
    :data:`NOT_CANONICAL`. orjson reads an integer over 64 bits as a float,
    which no field accepts.
    """
    try:
        return Block.from_wire(orjson.loads(raw), raw, senders)
    except orjson.JSONDecodeError as exc:
        raise CorruptLogError(f"unparseable log line: {exc}", height=height) from exc
    except MalformedPayloadError as exc:
        raise CorruptLogError(str(exc), height=height) from exc


# --- checkpoints ---------------------------------------------------------------

# What reading, binding and restoring a checkpoint raise on a file that does
# not bind: the file is a cache that nothing hashes, so whatever it holds,
# the outcome is a replay from genesis. A JSONDecodeError is a ValueError.
_UNBOUND = (
    OSError, ValueError, TypeError, LookupError, AttributeError, ArithmeticError, LedgerError
)


def _restore_checkpoint(
    directory: Path, policy: UseCasePolicy, config: SimConfig, log: BinaryIO
) -> tuple[Ledger, int, bytes] | None:
    """The ledger ``checkpoint.json`` holds, with the byte offset and the
    line of its head in ``log``, if the file binds to ``log``; otherwise
    ``None``, with ``log`` at its start.

    The file binds when the line at its byte offset passes every check
    :func:`_read_block` makes of a line on its own as the block of the
    file's height and hash, and :meth:`Ledger.restore` builds the file's
    state and finds that its leaves, hashed from scratch as read, give that
    block's state digest. The lines before it are not read.
    """
    try:
        data = orjson.loads((directory / CHECKPOINT_FILE).read_bytes())
        height, offset = data["height"], data["offset"]
        log.seek(offset)
        raw = log.readline()
        block = _read_block(raw.removesuffix(b"\n"), height, None, config, {})
        if block.block_hash == data["blockHash"]:
            return Ledger.restore(policy, config, block, data["state"]), offset, raw
    except _UNBOUND:
        pass
    log.seek(0)
    return None


def _write_checkpoint(ledger: Ledger, offset: int) -> None:
    """Write the bound directory's ``checkpoint.json`` for ``ledger``, whose
    head's line starts at byte ``offset`` of the log: the head's height and
    block hash, the offset, and :meth:`~Ledger.state_snapshot`.

    The file is written to a new temporary file beside it, named with the
    process id and random bytes and created as the log is, under the umask,
    which ``os.replace`` moves into place; so concurrent loads each write a
    whole file. No ``fsync``: a file torn by a crash fails to bind and costs
    one replay. A write that fails, or is interrupted by an exception such
    as ``KeyboardInterrupt``, removes its temporary file; a failure is
    otherwise ignored, as is a state whose sums pass 64 bits, which orjson
    cannot write. A process killed outright leaves its temporary file, which
    nothing removes.
    """
    head, directory = ledger.head, ledger._directory
    temp = directory / f"{CHECKPOINT_FILE}.{os.getpid()}.{os.urandom(6).hex()}.tmp"
    try:
        data = orjson.dumps(
            {
                "blockHash": head.block_hash,
                "height": head.height,
                "offset": offset,
                "state": ledger.state_snapshot(),
            }
        )
        handle = open(temp, "xb")
    except (orjson.JSONEncodeError, OSError):
        return
    replaced = False
    try:
        with handle:
            handle.write(data)
        os.replace(temp, directory / CHECKPOINT_FILE)
        replaced = True
    except OSError:
        pass
    finally:
        if not replaced:
            with contextlib.suppress(OSError):
                os.unlink(temp)


def verify_chain(directory: str | Path) -> ChainVerification:
    """Check integrity of a persisted ledger without raising on corruption.

    It replays every block from genesis and never opens ``checkpoint.json``.
    Beyond :func:`load_ledger`'s checks, the head's logged state digest must
    equal the digest recomputed from scratch over the replayed state, which
    ties the incrementally kept digest to its definition. An unparseable
    policy or config file fails at height 0, since both feed the genesis
    state digest.
    """
    try:
        ledger = load_ledger(directory, checkpoint=False)
    except (CorruptLogError, ConfigInvalidError) as exc:
        height = getattr(exc, "height", None) or 0
        return ChainVerification(ok=False, first_corrupt_height=height, reason=str(exc))
    if snapshot_digest(ledger.state_snapshot()) != ledger.head.state_digest:
        return ChainVerification(
            ok=False,
            first_corrupt_height=ledger.height,
            reason="head state digest differs from its from-scratch value",
        )
    return ChainVerification(ok=True)
