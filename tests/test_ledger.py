"""Ledger: mempool, fee priority, block production, tamper evidence, replay."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import orjson
import pytest

import provledger
from provledger import (
    AssignmentStrategy,
    ClientId,
    Context,
    ContextSchema,
    ExposureFlags,
    Ledger,
    PolicyLayer,
    RecordStore,
    SimConfig,
    TokenRegistry,
    Transaction,
    UseCasePolicy,
    load_ledger,
    verify_chain,
)
from provledger.canonical import ZERO_DIGEST, canonical_json
from provledger.errors import (
    BadNonceError,
    ClockExhaustedError,
    ConfigInvalidError,
    CorruptLogError,
    IoFailureError,
    MalformedPayloadError,
    RecordNotFoundError,
)
from provledger.ledger import (
    BLOCKS_FILE,
    CHECKPOINT_FILE,
    CONFIG_FILE,
    NOT_CANONICAL,
    OPS,
    Block,
    resolve_payload,
)
from provledger import statehash, tokens
from provledger.statehash import StateAccumulator, snapshot_digest
from oracles import naive_canonical, naive_line_is_canonical, naive_select, naive_state_digest
from support import (
    ALICE,
    BOB,
    CAROL,
    MALLORY,
    assert_log_matches,
    fee_policy,
    open_policy,
    quick_ledger,
    whitelist_policy,
)

REQUEST = {"op": "requestToken", "payment": 0}


def create_payload(token_id=1, inputs=(), agent="a"):
    return {
        "op": "createProvenance",
        "tokenId": token_id,
        "inputs": list(inputs),
        "context": {"agent": agent},
    }


# --- submission ----------------------------------------------------------------

def test_submit_returns_hash_and_queues():
    ledger = quick_ledger()
    tx = ledger.build_transaction(ALICE, REQUEST)
    assert ledger.submit(tx) == tx.hash
    assert ledger.pending_count() == 1


def test_submit_nonce_gap_rejected():
    ledger = quick_ledger()
    tx = ledger.build_transaction(ALICE, REQUEST, nonce=1)
    with pytest.raises(BadNonceError):
        ledger.submit(tx)


def test_resubmitting_identical_transaction_rejected():
    ledger = quick_ledger()
    tx = ledger.build_transaction(ALICE, REQUEST)
    ledger.submit(tx)
    with pytest.raises(BadNonceError):
        ledger.submit(tx)


def test_malformed_payloads_rejected():
    ledger = quick_ledger()
    bad = [
        {"op": "mystery"},
        {"op": "requestToken"},  # missing payment
        {"op": "requestToken", "payment": 0, "extra": 1},
        {"op": "requestToken", "payment": -2},
        {"op": "invalidate", "provId": True},  # bools are not ids
        {"op": "transfer", "tokenId": 1, "from": "alice", "to": BOB.hex},
        {"op": "createProvenance", "tokenId": 1, "inputs": [1], "context": {"k": 2}},
        {"op": ["requestToken"]},  # an op name must be a string
        "not even an object",
    ]
    for payload in bad:
        with pytest.raises(MalformedPayloadError):
            ledger.submit_payload(ALICE, payload)  # type: ignore[arg-type]


# per op: the form a client may write (aliases, defaults omitted) and the
# fully spelled-out hex form it must resolve to, given token 1 owned by alice
CLIENT_AND_FULL_PAYLOADS = {
    "requestToken": ({"op": "requestToken"}, REQUEST),
    "transfer": (
        {"op": "transfer", "tokenId": 1, "to": "bob"},
        {"op": "transfer", "tokenId": 1, "from": ALICE.hex, "to": BOB.hex},
    ),
    "approve": (
        {"op": "approve", "tokenId": 1, "operator": "carol"},
        {"op": "approve", "tokenId": 1, "operator": CAROL.hex},
    ),
    "createProvenance": (
        {"op": "createProvenance", "tokenId": 1, "context": {"agent": "a"}},
        create_payload(),
    ),
    "updateContext": (
        {"op": "updateContext", "provId": 1, "context": {"agent": "b"}},
        {"op": "updateContext", "provId": 1, "context": {"agent": "b"}},
    ),
    "invalidate": ({"op": "invalidate", "provId": 1}, {"op": "invalidate", "provId": 1}),
    "whitelistAdd": (
        {"op": "whitelistAdd", "member": "mallory"},
        {"op": "whitelistAdd", "member": MALLORY.hex},
    ),
    "whitelistRemove": (
        {"op": "whitelistRemove", "member": "mallory"},
        {"op": "whitelistRemove", "member": MALLORY.hex},
    ),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_operation_registry_entry(op):
    """Every registered op resolves client forms to its full form, and its
    payloads must carry exactly its fields."""
    ledger = quick_ledger()
    ledger.submit_payload(ALICE, REQUEST)
    ledger.produce_block()
    client_form, full = CLIENT_AND_FULL_PAYLOADS[op]
    assert resolve_payload(ledger.machine, client_form) == full
    assert resolve_payload(ledger.machine, full) == full
    for name in set(full) - {"op"}:
        missing = {key: value for key, value in full.items() if key != name}
        with pytest.raises(MalformedPayloadError):
            ledger.submit_payload(ALICE, missing)
    with pytest.raises(MalformedPayloadError):
        ledger.submit_payload(ALICE, dict(full, extra=1))
    ledger.submit_payload(ALICE, full)


def test_zero_sender_rejected():
    ledger = quick_ledger()
    from provledger import ZERO_CLIENT

    with pytest.raises(MalformedPayloadError):
        ledger.submit_payload(ZERO_CLIENT, REQUEST)


HEX = "0123456789abcdef" * 4


@pytest.mark.parametrize("field", ["parentHash", "stateDigest", "blockHash"])
@pytest.mark.parametrize(
    "value",
    [HEX.upper(), HEX[:63], HEX + "\n", "\u0661" + HEX[1:], "\uff10" + HEX[1:], int(HEX, 16)],
    ids=["uppercase", "63-chars", "trailing-newline", "arabic-indic-digit", "fullwidth-digit",
         "integer"],
)
def test_block_hash_fields_must_be_lowercase_ascii_hex(field, value):
    ledger = quick_ledger()
    ledger.submit_payload(ALICE, REQUEST)
    block, _ = ledger.produce_block()
    assert Block.from_wire(block.wire_dict()) == block
    with pytest.raises(MalformedPayloadError, match=f"^{field} must be 64 lowercase hex chars$"):
        Block.from_wire(dict(block.wire_dict(), **{field: value}))


def test_tampered_transaction_hash_rejected():
    """A hash is never passed in, so a forged one is refused when the
    transaction is made, as a keyword or as a sixth positional argument. A
    wire form's hash is checked in ``test_transaction_wire_field_errors``."""
    tx = quick_ledger().build_transaction(ALICE, REQUEST)
    fields = (tx.sender, tx.nonce, tx.payload, tx.fee + 1, tx.submitted_at)
    for make in (Transaction, Transaction.build):
        with pytest.raises(TypeError):
            make(*fields, hash=tx.hash)
        with pytest.raises(TypeError):
            make(*fields, tx.hash)


def test_transaction_from_wire_parses_the_sender_once(monkeypatch):
    tx = quick_ledger().build_transaction(ALICE, REQUEST)
    parsed = []
    for name in ("from_hex", "from_checked_hex"):
        real = getattr(ClientId, name).__func__

        def counting(cls, text, real=real):
            parsed.append(text)
            return real(cls, text)

        monkeypatch.setattr(ClientId, name, classmethod(counting))
    assert Transaction.from_wire(tx.wire_dict()) == tx
    assert parsed == [ALICE.hex]
    with pytest.raises(MalformedPayloadError, match="^sender must be a 0x-hex address string$"):
        Transaction.from_wire(dict(tx.wire_dict(), sender=1))
    with pytest.raises(MalformedPayloadError, match="^bad sender: client address must start with 0x"):
        Transaction.from_wire(dict(tx.wire_dict(), sender=ALICE.hex[2:]))


def test_addresses_and_contexts_are_built_once_per_path(tmp_path, monkeypatch):
    """Validation checks a payload's addresses and context without building
    them; execution builds each once. Replay, with the address memo cleared,
    adds one build per distinct sender, however many transactions it sends.
    Every address built is counted, whatever built it, and every constructor
    of a context: the checking one and the one that builds from already
    checked entries."""
    from provledger.records import Context

    addresses, contexts = [], []

    def counting(cls, name, built):
        real = getattr(cls, name).__func__

        def build(klass, value):
            built.append(value)
            return real(klass, value)

        monkeypatch.setattr(cls, name, classmethod(build))

    real_address_check = ClientId.__post_init__

    def counting_address_check(self):
        real_address_check(self)
        addresses.append(self.hex)

    real_context_init = Context.__init__

    def counting_context_init(self, entries=()):
        contexts.append(dict(entries))
        real_context_init(self, entries)

    ledger = quick_ledger()
    ledger.submit_payload(ALICE, REQUEST)
    ledger.produce_block()
    monkeypatch.setattr(ClientId, "__post_init__", counting_address_check)
    counting(Context, "from_checked", contexts)
    monkeypatch.setattr(Context, "__init__", counting_context_init)
    transfer = {"op": "transfer", "tokenId": 1, "from": ALICE.hex, "to": BOB.hex}
    for sender, payload, built in [
        (ALICE, create_payload(agent="x"), ([], [{"agent": "x"}])),
        (ALICE, transfer, ([ALICE.hex, BOB.hex], [])),
        (BOB, create_payload(agent="y"), ([], [{"agent": "y"}])),
    ]:
        ledger.submit_payload(sender, payload)
        assert (addresses, contexts) == ([], []), payload["op"]
        _, outcomes = ledger.produce_block()
        assert outcomes[0].status == "ok"
        assert (addresses, contexts) == built, payload["op"]
        addresses.clear()
        contexts.clear()
    ledger.persist(tmp_path)
    tokens._address.cache_clear()
    assert load_ledger(tmp_path).head == ledger.head
    # the request's sender, whose create and transfer reuse its address, the
    # transfer's addresses, then the last create's sender
    assert addresses == [ALICE.hex, ALICE.hex, BOB.hex, BOB.hex]
    assert contexts == [{"agent": "x"}, {"agent": "y"}]


def test_each_address_and_context_is_checked_once_per_path(tmp_path, monkeypatch):
    """On the submit -> execute path and again on replay, each address text
    goes through ``check_hex_address`` once and each context through
    ``check_context_entries`` once. Replay, with the address memo cleared,
    also checks each distinct sender once."""
    from provledger import ledger as ledger_mod
    from provledger import records as records_mod
    from provledger import tokens as tokens_mod

    addresses, contexts = [], []

    def counting(module, name, checked):
        real = getattr(module, name)

        def check(value):
            checked.append(value)
            return real(value)

        monkeypatch.setattr(module, name, check)

    ledger = quick_ledger()
    ledger.submit_payload(ALICE, REQUEST)
    ledger.produce_block()
    for module in (ledger_mod, tokens_mod):
        counting(module, "check_hex_address", addresses)
    for module in (ledger_mod, records_mod):
        counting(module, "check_context_entries", contexts)
    steps = [
        (create_payload(agent="x"), [], [{"agent": "x"}]),
        ({"op": "updateContext", "provId": 1, "context": {"agent": "y"}}, [], [{"agent": "y"}]),
        ({"op": "approve", "tokenId": 1, "operator": CAROL.hex}, [CAROL.hex], []),
        ({"op": "transfer", "tokenId": 1, "from": ALICE.hex, "to": BOB.hex},
         [ALICE.hex, BOB.hex], []),
    ]
    for payload, checked_addresses, checked_contexts in steps:
        ledger.submit_payload(ALICE, payload)
        _, outcomes = ledger.produce_block()
        assert outcomes[0].status == "ok", outcomes[0].message
        assert (addresses, contexts) == (checked_addresses, checked_contexts), payload["op"]
        addresses.clear()
        contexts.clear()
    ledger.persist(tmp_path)
    tokens_mod._address.cache_clear()
    assert load_ledger(tmp_path).head == ledger.head
    # the sender of all five transactions once, then each step's payload addresses
    assert addresses == [ALICE.hex] + [address for _, checked, _ in steps for address in checked]
    assert contexts == [{"agent": "x"}, {"agent": "y"}]


_DROP = object()


def _wire(**edits):
    """A built transaction's wire form with ``edits``; ``_DROP`` drops a key."""
    data = quick_ledger().build_transaction(ALICE, REQUEST).wire_dict()
    data.update(edits)
    return {key: value for key, value in data.items() if value is not _DROP}


_TX_FIELDS_MESSAGE = (
    "transaction must have exactly fields "
    "['fee', 'hash', 'nonce', 'payload', 'sender', 'submittedAt']"
)


@pytest.mark.parametrize(
    "data, message",
    [
        (_wire(hash=_DROP), _TX_FIELDS_MESSAGE),
        (_wire(extra=1), _TX_FIELDS_MESSAGE),
        (_wire(sender=1), "sender must be a 0x-hex address string"),
        (_wire(sender=ALICE.hex[2:]),
         f"bad sender: client address must start with 0x, got {ALICE.hex[2:]!r}"),
        (_wire(sender="0x" + "g" * 64),
         "bad sender: client address must be 64 lowercase hex chars"),
        (_wire(sender=ALICE.hex.upper().replace("0X", "0x")),
         "bad sender: client address must be 64 lowercase hex chars"),
        (_wire(sender="0x" + "00" * 32), "sender must not be the zero address"),
        (_wire(nonce=-1), "nonce must be an unsigned 64-bit integer"),
        (_wire(fee=True), "fee must be an unsigned 64-bit integer"),
        (_wire(fee=2**64), "fee must be an unsigned 64-bit integer"),
        (_wire(submittedAt=-5), "submittedAt must be an unsigned 64-bit integer"),
        (_wire(submittedAt=False), "submittedAt must be an unsigned 64-bit integer"),
        (_wire(hash="A" * 64), "transaction hash must be 64 lowercase hex chars"),
        (_wire(hash="a" * 63), "transaction hash must be 64 lowercase hex chars"),
        (_wire(hash=7), "transaction hash must be 64 lowercase hex chars"),
        (_wire(hash="0" * 64), "transaction hash does not match its fields"),
    ],
    ids=[
        "missing key", "extra key", "sender not a string", "sender without 0x",
        "sender bad hex", "sender upper-case hex", "zero sender", "negative nonce",
        "bool fee", "fee of 2**64", "negative submittedAt", "bool submittedAt", "upper-case hash",
        "short hash", "hash not a string", "hash mismatch",
    ],
)
def test_transaction_wire_field_errors(data, message):
    with pytest.raises(MalformedPayloadError) as info:
        Transaction.from_wire(data)
    assert str(info.value) == message


def test_submit_payload_validates_and_hashes_once(monkeypatch):
    """A transaction is validated and hashed once, when it is made by
    ``submit_payload``, the constructor or ``dataclasses.replace``;
    ``submit`` does neither."""
    from provledger import ledger as ledger_mod

    calls = {"validate": 0, "hash": 0}
    real_validate = ledger_mod.validate_payload
    real_hash = Transaction.hashed_json

    def counting_validate(payload):
        calls["validate"] += 1
        return real_validate(payload)

    def counting_hash(*args):
        calls["hash"] += 1
        return real_hash(*args)

    monkeypatch.setattr(ledger_mod, "validate_payload", counting_validate)
    monkeypatch.setattr(Transaction, "hashed_json", staticmethod(counting_hash))
    ledger = quick_ledger()
    ledger.submit_payload(ALICE, REQUEST)
    assert calls == {"validate": 1, "hash": 1}
    constructed = Transaction(BOB, 0, REQUEST, 1, 0)
    assert calls == {"validate": 2, "hash": 2}
    replaced = dataclasses.replace(constructed, sender=CAROL, payload=constructed.payload)
    assert calls == {"validate": 3, "hash": 3}
    ledger.submit(constructed)
    ledger.submit(replaced)
    assert calls == {"validate": 3, "hash": 3}
    assert ledger.pending_count() == 3


def test_load_does_each_step_of_a_transaction_once(tmp_path, monkeypatch):
    """Loading a log of N transactions validates each payload and hashes
    each transaction once, and seals and digests each block once, genesis
    included."""
    from provledger import ledger as ledger_mod

    path = varied_chain(tmp_path / "ledger")
    lines = path.read_bytes().splitlines()
    transactions = sum(len(json.loads(line)["transactions"]) for line in lines)
    calls = {"validate": 0, "hash": 0, "seal": 0, "digest": 0}

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        ledger_mod, "validate_payload", counting("validate", ledger_mod.validate_payload)
    )
    monkeypatch.setattr(
        Transaction, "hashed_json", staticmethod(counting("hash", Transaction.hashed_json))
    )
    monkeypatch.setattr(Block, "seal", classmethod(counting("seal", Block.seal.__func__)))
    monkeypatch.setattr(Ledger, "state_digest", counting("digest", Ledger.state_digest))
    loaded = load_ledger(path.parent)
    assert loaded.height == len(lines) - 1 == 4 and transactions == 8
    assert calls == {
        "validate": transactions, "hash": transactions, "seal": len(lines), "digest": len(lines)
    }


def test_every_transaction_is_checked_and_hashed_when_made():
    """The constructor, ``dataclasses.replace`` and ``from_wire`` each check
    the fields and hash them, so every transaction carries the hash its
    fields give and the payload text its log line is written from."""
    tx = quick_ledger().build_transaction(ALICE, REQUEST)
    unhashed = {key: value for key, value in tx.wire_dict().items() if key != "hash"}
    assert tx.hash == hashlib.sha256(naive_canonical(unhashed).encode("utf-8")).hexdigest()
    assert tx.payload_text == naive_canonical(REQUEST)
    constructed = Transaction(tx.sender, tx.nonce, tx.payload, tx.fee, tx.submitted_at)
    block = Block.seal(1, ZERO_DIGEST, 1000, (constructed,), ("ok",), ZERO_DIGEST)
    made = [
        constructed,
        dataclasses.replace(tx, payload=tx.payload),
        Transaction.from_wire(tx.wire_dict()),
        *Block.from_wire(block.wire_dict()).transactions,
    ]
    for each in made:
        assert each == tx and each.hash == tx.hash
        assert each.payload_text == tx.payload_text and each.wire_text() == tx.wire_text()
    # the payload text is left out of the printed form
    assert repr(constructed) == repr(tx) and "payload_text" not in repr(tx)
    with pytest.raises(MalformedPayloadError, match="^sender must be a client address$"):
        Transaction(ALICE.hex, 0, REQUEST, 1, 0)  # type: ignore[arg-type]
    with pytest.raises(MalformedPayloadError, match="^unknown operation 'mystery'$"):
        dataclasses.replace(tx, payload={"op": "mystery"})
    # slots: no per-instance dict on a transaction or an address
    assert not hasattr(tx, "__dict__") and not hasattr(ALICE, "__dict__")


def test_a_payload_edited_after_submission_reaches_neither_execution_nor_the_log(tmp_path):
    """A transaction keeps only the text of the payload it checked and hashed:
    edits the caller makes to its dict afterwards, nested context and inputs
    included, through ``submit_payload`` or ``submit``, are neither executed
    nor logged, and replay reloads an equal state."""
    ledger = quick_ledger()
    ledger.submit_payload(ALICE, REQUEST)
    ledger.submit_payload(ALICE, create_payload(agent="root"))
    ledger.produce_block()
    via_payload = create_payload(inputs=[1], agent="a")
    tx = ledger.submit_payload(ALICE, via_payload)
    via_payload["context"]["agent"] = "b"
    via_payload["inputs"].append(99)
    via_payload["tokenId"] = 9
    fields = {"op": "updateContext", "provId": 1, "context": {"agent": "c"}}
    replaced = dataclasses.replace(ledger.build_transaction(ALICE, fields), payload=fields)
    ledger.submit(replaced)
    fields["context"]["agent"] = "d"
    block, outcomes = ledger.produce_block()
    assert [outcome.ok for outcome in outcomes] == [True, True]
    assert tx.payload == create_payload(inputs=[1], agent="a")
    records = ledger.machine.provenance.records
    assert records.get_record(2).context.as_dict() == {"agent": "a"}
    assert records.get_record(2).input_ids == (1,)
    assert records.get_record(1).context.as_dict() == {"agent": "c"}
    ledger.persist(tmp_path)
    line = json.loads((tmp_path / BLOCKS_FILE).read_bytes().splitlines()[block.height])
    assert [each["payload"] for each in line["transactions"]] == [
        create_payload(inputs=[1], agent="a"), {**fields, "context": {"agent": "c"}}
    ]
    loaded = load_ledger(tmp_path)
    assert loaded.head == block
    assert loaded.state_snapshot() == ledger.state_snapshot()


def test_an_edit_through_a_submitted_transaction_is_not_executed(tmp_path):
    """Each read of ``payload`` decodes a new dict from the hashed text, so
    editing what a submitted transaction hands out changes nothing the
    ledger executes: the persisted directory verifies and the record keeps
    the hashed context."""
    ledger = quick_ledger()
    ledger.submit_payload(ALICE, REQUEST)
    ledger.produce_block()
    tx = ledger.submit_payload(ALICE, create_payload(agent="hashed"))
    tx.payload["context"]["agent"] = "EDITED"
    _, outcomes = ledger.produce_block()
    assert [outcome.status for outcome in outcomes] == ["ok"]
    ledger.persist(tmp_path)
    assert verify_chain(tmp_path).as_dict() == {"ok": True}
    record = ledger.machine.provenance.records.get_record(1)
    assert record.context.as_dict() == {"agent": "hashed"}
    assert tx.payload == create_payload(agent="hashed")


def test_a_transaction_keeps_its_payload_once_as_text():
    """The constructor, ``dataclasses.replace`` and ``from_wire`` keep the
    payload only as its canonical text: no slot holds a dict or a list, and
    each read of ``payload`` is a new dict decoded from that text."""
    tx = quick_ledger().build_transaction(ALICE, create_payload(inputs=[1], agent="a"))
    made = [
        Transaction(BOB, 0, create_payload(agent="b"), 1, 0),
        dataclasses.replace(tx, payload=create_payload(agent="c")),
        Transaction.from_wire(json.loads(tx.wire_text())),
    ]
    for each in made:
        held = {name: getattr(each, name) for name in Transaction.__slots__}
        assert [name for name, value in held.items() if isinstance(value, (dict, list))] == []
        assert each.payload == orjson.loads(each.payload_text)
        assert each.payload is not each.payload


def test_transactions_and_blocks_are_hashable():
    """Equal transactions hash equally, so a transaction can be a set
    member; its payload is held as text."""
    tx = quick_ledger().build_transaction(ALICE, REQUEST)
    rebuilt = Transaction.from_wire(json.loads(json.dumps(tx.wire_dict())))
    assert rebuilt is not tx and rebuilt.payload is not tx.payload
    assert {tx, rebuilt} == {tx}
    block = Block.seal(1, ZERO_DIGEST, 1000, (tx,), ("ok",), ZERO_DIGEST)
    assert hash(block) == hash(Block.from_wire(block.wire_dict()))


def test_replaced_transaction_is_rejected_by_submit():
    """``dataclasses.replace`` makes a transaction as the constructor does: a
    changed field gets the hash a fresh construction gives, and a hash cannot
    be replaced. A changed copy of a queued transaction reuses its nonce, so
    ``submit`` rejects it and the original stays queued."""
    ledger = quick_ledger()
    tx = ledger.build_transaction(ALICE, REQUEST)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(tx, payload=tx.payload, hash="0" * 64)
    forged = dataclasses.replace(tx, payload=tx.payload, fee=tx.fee + 1)
    fresh = Transaction(ALICE, tx.nonce, REQUEST, tx.fee + 1, tx.submitted_at)
    assert forged.hash == fresh.hash != tx.hash
    ledger.submit(tx)
    with pytest.raises(BadNonceError, match=f"nonce {tx.nonce} for {ALICE.hex}"):
        ledger.submit(forged)
    assert ledger.pending_count() == 1
    block, _ = ledger.produce_block()
    assert block.transactions == (tx,)


def test_an_unsealed_submission_is_queued_rebuilt(tmp_path):
    """A copy made by ``dataclasses.replace`` (once an unsealed transaction)
    is rebuilt when it is made: it has its own wire text, ``submit`` queues
    it as it is, and its block reloads from the log."""
    ledger = quick_ledger()
    tx = ledger.build_transaction(ALICE, REQUEST)
    replaced = dataclasses.replace(tx, payload=tx.payload)
    assert replaced.wire_text() == tx.wire_text()
    assert ledger.submit(replaced) == replaced.hash == tx.hash
    block, _ = ledger.produce_block()
    assert block.transactions == (tx,) and block.transactions[0] is replaced
    ledger.persist(tmp_path)
    assert load_ledger(tmp_path).head == block


def test_replay_rejects_transaction_submitted_after_its_block(tmp_path):
    """Production never includes a transaction stamped after the block, so a
    log holding one is corrupt at that height."""
    ledger = quick_ledger(interval=1000)
    future = Transaction(ALICE, 0, REQUEST, 1, 1_000_001_000)
    ledger._append_block(ledger.next_block_timestamp(), [future])
    directory = tmp_path / "future"
    ledger.persist(directory)
    result = verify_chain(directory)
    assert result.ok is False
    assert result.first_corrupt_height == 1
    assert "submitted after" in result.reason
    with pytest.raises(CorruptLogError):
        load_ledger(directory)


# --- block production -------------------------------------------------------------

def test_fee_priority_selection():
    """Pending fees [5, 1, 9] with capacity 2: the block takes 9 then 5."""
    ledger = quick_ledger(capacity=2)
    ledger.submit_payload(ALICE, REQUEST, fee=5)
    ledger.submit_payload(BOB, REQUEST, fee=1)
    ledger.submit_payload(CAROL, REQUEST, fee=9)
    block, _ = ledger.produce_block()
    assert [tx.fee for tx in block.transactions] == [9, 5]
    assert ledger.pending_count() == 1
    block2, _ = ledger.produce_block()
    assert [tx.fee for tx in block2.transactions] == [1]


def test_equal_fee_ties_break_by_submission_time():
    ledger = quick_ledger(capacity=1)
    first = ledger.submit_payload(ALICE, REQUEST, fee=3, submitted_at=0)
    ledger.submit_payload(BOB, REQUEST, fee=3, submitted_at=5)
    block, _ = ledger.produce_block()
    assert block.transactions[0].hash == first.hash


def test_empty_block_extends_chain():
    ledger = quick_ledger()
    height_before = ledger.height
    block, outcomes = ledger.produce_block()
    assert block.height == height_before + 1
    assert block.transactions == ()
    assert outcomes == []
    assert block.parent_hash == ledger.blocks[-2].block_hash


def test_genesis_links_to_zero():
    ledger = quick_ledger()
    genesis = ledger.blocks[0]
    assert genesis.height == 0
    assert genesis.parent_hash == ZERO_DIGEST
    assert genesis.timestamp == 0


def test_timestamps_strictly_increase_with_jitter():
    ledger = quick_ledger(seed=9, jitter=True)
    for _ in range(30):
        ledger.produce_block()
    stamps = [block.timestamp for block in ledger.blocks]
    assert all(b > a for a, b in zip(stamps, stamps[1:]))
    # jittered intervals stay within +/-20% of the base interval
    intervals = [b - a for a, b in zip(stamps, stamps[1:])]
    assert all(800 <= gap <= 1200 for gap in intervals)


def test_failed_transaction_recorded_on_chain():
    """A failing tx is included with its error code; the state equals an
    oracle ledger that never saw the failing tx."""
    ledger = quick_ledger()
    ledger.submit_payload(ALICE, REQUEST)
    ledger.produce_block()
    ledger.submit_payload(MALLORY, create_payload(token_id=1, agent="intruder"), fee=9)
    ledger.submit_payload(ALICE, create_payload(token_id=1), fee=5)
    ledger.submit_payload(ALICE, create_payload(token_id=1, inputs=[1], agent="b"), fee=1)
    block, outcomes = ledger.produce_block()
    assert block.results == ("NotAuthorized", "ok", "ok")
    assert [o.status for o in outcomes] == ["NotAuthorized", "ok", "ok"]

    oracle = quick_ledger()
    oracle.submit_payload(ALICE, REQUEST)
    oracle.produce_block()
    oracle.submit_payload(ALICE, create_payload(token_id=1), fee=5)
    oracle.submit_payload(ALICE, create_payload(token_id=1, inputs=[1], agent="b"), fee=1)
    oracle.produce_block()

    live, shadow = ledger.state_snapshot(), oracle.state_snapshot()
    for snapshot in (live, shadow):
        snapshot.pop("nonces")
    assert live == shadow


def test_nonce_order_beats_fee_within_sender():
    """A sender's high-fee tx cannot jump its own earlier low-fee tx."""
    ledger = quick_ledger(capacity=2)
    ledger.submit_payload(ALICE, REQUEST, fee=1)
    ledger.submit_payload(ALICE, REQUEST, fee=100)
    ledger.submit_payload(BOB, REQUEST, fee=5)
    block, _ = ledger.produce_block()
    # fee-100 is blocked behind fee-1, so the first block is [bob@5, alice@1]
    assert [(tx.sender, tx.fee) for tx in block.transactions] == [(BOB, 5), (ALICE, 1)]
    block2, _ = ledger.produce_block()
    assert [tx.fee for tx in block2.transactions] == [100]
    assert block2.results == ("ok",)


def test_future_submissions_wait_for_their_time():
    ledger = quick_ledger(interval=1000)
    ledger.submit_payload(ALICE, REQUEST, submitted_at=2500)
    block1, _ = ledger.produce_block()  # t=1000
    assert block1.transactions == ()
    block2, _ = ledger.produce_block()  # t=2000
    assert block2.transactions == ()
    block3, _ = ledger.produce_block()  # t=3000
    assert len(block3.transactions) == 1


def test_priority_invariant_random_loads():
    """Within each block fees are non-increasing, and when a block is full no
    better-paying eligible tx was left behind."""
    rng = random.Random(5)
    ledger = quick_ledger(capacity=3)
    senders = [ClientId.from_alias(f"s{i}") for i in range(40)]
    for i, sender in enumerate(senders):
        ledger.submit_payload(sender, REQUEST, fee=rng.randint(1, 20))
    while ledger.pending_count():
        pending_before = {tx.hash: tx for queue in ledger._mempool.values() for tx in queue}
        block, _ = ledger.produce_block()
        fees = [tx.fee for tx in block.transactions]
        assert fees == sorted(fees, reverse=True)
        if len(fees) == ledger.config.block_capacity:
            leftover = [
                tx.fee
                for tx in pending_before.values()
                if tx.hash not in {t.hash for t in block.transactions}
                and tx.submitted_at <= block.timestamp
            ]
            assert all(fee <= min(fees) for fee in leftover)


def test_selection_takes_best_ready_transaction():
    """Capacity 3, A0 fee 1, A1 fee 5, B0 fee 3, C0 fee 0: A1 is ready once A0
    is taken and outranks C0, so the block is [B0, A0, A1]."""
    ledger = quick_ledger(capacity=3)
    a0 = ledger.submit_payload(ALICE, REQUEST, fee=1)
    a1 = ledger.submit_payload(ALICE, REQUEST, fee=5)
    b0 = ledger.submit_payload(BOB, REQUEST, fee=3)
    c0 = ledger.submit_payload(CAROL, REQUEST, fee=0)
    block, _ = ledger.produce_block()
    assert [tx.hash for tx in block.transactions] == [b0.hash, a0.hash, a1.hash]
    block2, _ = ledger.produce_block()
    assert [tx.hash for tx in block2.transactions] == [c0.hash]


@pytest.mark.parametrize("seed", range(20))
def test_selection_matches_naive_oracle(seed):
    """Random schedules of several senders with multi-nonce chains, random
    fees and some future stamps, submitted between blocks: every block holds
    exactly the transactions the naive rescanning oracle picks, in order."""
    rng = random.Random(seed)
    capacity = rng.randint(1, 5)
    ledger = quick_ledger(capacity=capacity, interval=1000)
    senders = [ClientId.from_alias(f"sel{seed}-{i}") for i in range(rng.randint(2, 6))]
    pending: list[dict] = []
    next_nonce: dict[str, int] = {}

    def produce_and_compare():
        block, _ = ledger.produce_block()
        expected = naive_select(pending, next_nonce, block.timestamp, capacity)
        assert [tx.hash for tx in block.transactions] == [tx["hash"] for tx in expected]

    for _ in range(rng.randint(10, 60)):
        if rng.random() < 0.7:
            submitted_at = ledger.now + (rng.randint(1, 4000) if rng.random() < 0.2 else 0)
            tx = ledger.submit_payload(
                rng.choice(senders), REQUEST, fee=rng.randint(0, 4), submitted_at=submitted_at
            )
            pending.append(tx.wire_dict())
        else:
            produce_and_compare()
    while ledger.pending_count():
        produce_and_compare()
    assert pending == []


def test_throughput_ceiling():
    ledger = quick_ledger(interval=1000, capacity=4)
    for i in range(40):
        ledger.submit_payload(ClientId.from_alias(f"c{i}"), REQUEST, fee=1)
    confirmed = 0
    blocks = 0
    while ledger.pending_count():
        block, _ = ledger.produce_block()
        confirmed += len(block.transactions)
        blocks += 1
    elapsed_s = ledger.now / 1000.0
    assert confirmed / elapsed_s <= 4 / 1.0 + 1e-9


# --- persistence and tamper evidence ----------------------------------------------


def busy_chain(tmp_path, blocks=4):
    """A persisted ledger, its directory, and its genesis followed by every
    block it produced."""
    ledger = quick_ledger()
    produced = [ledger.head]
    ledger.submit_payload(ALICE, REQUEST)
    produced.append(ledger.produce_block()[0])
    ledger.submit_payload(ALICE, create_payload(token_id=1))
    produced.append(ledger.produce_block()[0])
    for i in range(blocks - 2):
        ledger.submit_payload(
            ALICE, create_payload(token_id=1, inputs=[], agent=f"agent{i}")
        )
        produced.append(ledger.produce_block()[0])
    directory = tmp_path / "ledger"
    ledger.persist(directory)
    return ledger, directory, produced


def busy_ledger(tmp_path, blocks=4):
    ledger, directory, _ = busy_chain(tmp_path, blocks)
    return ledger, directory


def test_persist_load_roundtrip(tmp_path):
    ledger, directory, produced = busy_chain(tmp_path)
    loaded = assert_log_matches(ledger, directory, produced)
    assert loaded.state_snapshot() == ledger.state_snapshot()
    assert verify_chain(directory).ok is True


def test_persist_appends_strictly(tmp_path):
    ledger, directory = busy_ledger(tmp_path)
    before = (directory / BLOCKS_FILE).read_bytes()
    ledger.submit_payload(ALICE, create_payload(token_id=1, agent="later"))
    ledger.produce_block()
    ledger.persist(directory)
    after = (directory / BLOCKS_FILE).read_bytes()
    assert after.startswith(before)
    assert len(after) > len(before)
    # re-persisting with nothing new leaves the file untouched
    ledger.persist(directory)
    assert (directory / BLOCKS_FILE).read_bytes() == after


def test_loaded_ledger_continues_producing(tmp_path):
    ledger, directory = busy_ledger(tmp_path)
    loaded = load_ledger(directory)
    loaded.submit_payload(ALICE, create_payload(token_id=1, agent="resumed"))
    block, outcomes = loaded.produce_block()
    assert outcomes[0].status == "ok"
    assert block.timestamp > ledger.now


def test_byte_flip_fuzz_detects_everything(tmp_path):
    """Mini version of the acceptance fuzz: flip every byte of a 4-block log
    and require detection at the damaged line's height."""
    _, directory = busy_ledger(tmp_path, blocks=4)
    path = directory / BLOCKS_FILE
    original = path.read_bytes()
    line_of_offset = []
    line = 0
    for byte in original:
        line_of_offset.append(line)
        if byte == ord("\n"):
            line += 1
    for offset in range(len(original)):
        damaged = bytearray(original)
        damaged[offset] ^= 0x01
        path.write_bytes(bytes(damaged))
        result = verify_chain(directory)
        assert result.ok is False, f"flip at offset {offset} went undetected"
        assert result.first_corrupt_height == line_of_offset[offset]
    path.write_bytes(original)
    assert verify_chain(directory).ok is True


def test_truncated_log_detected(tmp_path):
    """Removing the next-to-last block line breaks the last block's parent link."""
    _, directory = busy_ledger(tmp_path)
    path = directory / BLOCKS_FILE
    lines = path.read_bytes().decode().splitlines()
    path.write_text("\n".join(lines[:-2] + [lines[-1]]) + "\n", encoding="utf-8")
    result = verify_chain(directory)
    assert result.ok is False


def test_torn_final_line_detected(tmp_path):
    """A write cut anywhere inside the last line fails at that line's height."""
    _, directory = busy_ledger(tmp_path)
    path = directory / BLOCKS_FILE
    original = path.read_bytes()
    lines = original.splitlines(keepends=True)
    last_start = len(original) - len(lines[-1])
    last_end = len(original) - 1  # the final newline
    for cut in range(last_start + 1, last_end):
        path.write_bytes(original[:cut])
        result = verify_chain(directory)
        assert result.ok is False, f"cut at offset {cut} went undetected"
        assert result.first_corrupt_height == len(lines) - 1


def test_log_holds_one_line_per_block(tmp_path):
    ledger, directory, produced = busy_chain(tmp_path)
    lines = [json.loads(line) for line in (directory / BLOCKS_FILE).read_bytes().splitlines()]
    assert [line["height"] for line in lines] == list(range(ledger.height + 1))
    assert_log_matches(ledger, directory, produced)


def test_genesis_hash_commits_to_policy_and_config():
    genesis = quick_ledger().blocks[0].block_hash
    assert quick_ledger(policy=open_policy(allow_update=False)).blocks[0].block_hash != genesis
    assert quick_ledger(capacity=11).blocks[0].block_hash != genesis
    assert quick_ledger().blocks[0].block_hash == genesis


def test_replay_rejects_wrong_state_digest(tmp_path):
    """A last block whose hash matches its fields but whose stateDigest is
    not the replayed post-state fails at its own height."""
    ledger, directory, produced = busy_chain(tmp_path)
    path = directory / BLOCKS_FILE
    lines = path.read_bytes().splitlines()
    last = json.loads(lines[-1])
    last["stateDigest"] = produced[-2].state_digest
    last["blockHash"] = Block.compute_block_hash(
        last["height"],
        last["parentHash"],
        last["timestamp"],
        [tx["hash"] for tx in last["transactions"]],
        last["results"],
        last["stateDigest"],
    )
    path.write_bytes(b"\n".join(lines[:-1] + [canonical_json(last).encode()]) + b"\n")
    result = verify_chain(directory)
    assert result.ok is False
    assert result.first_corrupt_height == ledger.height
    assert result.reason == f"state digest mismatch after height {ledger.height}"


def test_fresh_ledger_refuses_existing_log(tmp_path):
    """Only the ledger that started a directory's log may append to it."""
    _, directory = busy_ledger(tmp_path)
    before = {path.name: path.read_bytes() for path in directory.iterdir()}
    with pytest.raises(IoFailureError):
        quick_ledger(capacity=3).persist(directory)
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == before


def test_persist_refuses_a_second_directory(tmp_path):
    """A ledger appends only to the directory it started or was loaded from."""
    ledger, directory = busy_ledger(tmp_path)
    ledger.submit_payload(ALICE, create_payload(token_id=1, agent="later"))
    block, _ = ledger.produce_block()
    other = tmp_path / "other"
    other.mkdir()
    with pytest.raises(IoFailureError):
        ledger.persist(other)
    with pytest.raises(IoFailureError):
        load_ledger(directory).persist(other)
    assert list(other.iterdir()) == []
    ledger.persist(directory / ".." / directory.name)  # the same directory
    last = json.loads((directory / BLOCKS_FILE).read_bytes().splitlines()[-1])
    assert last["blockHash"] == block.block_hash
    assert verify_chain(directory).ok is True



def counted_resolves(monkeypatch):
    """The paths ``Path.resolve`` is called on from now on."""
    calls = []
    resolve = Path.resolve

    def counted(self, *args, **kwargs):
        calls.append(self)
        return resolve(self, *args, **kwargs)

    monkeypatch.setattr(Path, "resolve", counted)
    return calls


def next_block(ledger, agent):
    ledger.submit_payload(ALICE, create_payload(token_id=1, agent=agent))
    return ledger.produce_block()[0]


def logged_hashes(directory):
    lines = (directory / BLOCKS_FILE).read_bytes().splitlines()
    return [json.loads(line)["blockHash"] for line in lines]


def test_persist_resolves_only_a_new_spelling(tmp_path, monkeypatch):
    """A bound ledger resolves its argument only when it is not ``==`` to the
    spelling last accepted, and every spelling appends each block once."""
    ledger = quick_ledger()
    ledger.submit_payload(ALICE, REQUEST)
    produced = [ledger.head, ledger.produce_block()[0]]
    directory = tmp_path / "ledger"
    resolves = counted_resolves(monkeypatch)
    spellings = [
        directory,  # binds
        tmp_path / "ledger",  # an equal Path
        str(directory),  # the same text as a str: resolved once, then kept
        str(directory),
        directory / ".." / directory.name,
        directory / ".." / directory.name,
    ]
    expected_resolves = [1, 1, 2, 2, 3, 3]
    for spelling, expected in zip(spellings, expected_resolves):
        ledger.persist(spelling)
        assert len(resolves) == expected
        ledger.persist(spelling)  # nothing new: no line written
        assert len(resolves) == expected
        assert logged_hashes(directory) == [block.block_hash for block in produced]
        produced.append(next_block(ledger, f"after {len(produced)}"))
    assert verify_chain(directory).ok is True


def test_persist_appends_to_the_bound_log_after_a_chdir(tmp_path, monkeypatch):
    """A relative spelling accepted before names the bound directory, whatever
    the working directory is now."""
    ledger, directory, produced = busy_chain(tmp_path)
    monkeypatch.chdir(tmp_path)
    ledger.persist("ledger")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    produced.append(next_block(ledger, "moved"))
    ledger.persist("ledger")
    assert list(elsewhere.iterdir()) == []
    assert logged_hashes(directory) == [block.block_hash for block in produced]
    with pytest.raises(IoFailureError):
        ledger.persist(Path("ledger"))  # not the accepted spelling: resolved here


def test_refused_first_persist_leaves_the_ledger_unbound(tmp_path):
    _, directory = busy_ledger(tmp_path)
    fresh = quick_ledger(capacity=3)
    with pytest.raises(IoFailureError):
        fresh.persist(directory)
    fresh.persist(tmp_path / "fresh")
    assert verify_chain(tmp_path / "fresh").ok is True
    with pytest.raises(IoFailureError):
        fresh.persist(directory)


def test_loaded_ledger_persists_to_its_relative_directory(tmp_path, monkeypatch):
    """``load_ledger(d).persist(d)``, as a CLI write runs it, resolves ``d``
    once and appends to the loaded log."""
    _, directory = busy_ledger(tmp_path)
    monkeypatch.chdir(tmp_path)
    resolves = counted_resolves(monkeypatch)
    loaded = load_ledger("ledger")
    block = next_block(loaded, "resumed")
    loaded.persist("ledger")
    assert len(resolves) == 1
    assert logged_hashes(directory)[-1] == block.block_hash
    assert verify_chain(directory).ok is True

def fixed_store_chain(directory, blocks):
    """A chain whose store stays at 10 records: after the token and the
    records, each block updates every record once. Persists after each block."""
    ledger = quick_ledger()
    ledger.submit_payload(ALICE, REQUEST)
    ledger.produce_block()
    ledger.persist(directory)
    for i in range(10):
        ledger.submit_payload(ALICE, create_payload(token_id=1, agent=f"r{i}"))
    ledger.produce_block()
    ledger.persist(directory)
    for height in range(3, blocks + 1):
        for prov_id in range(1, 11):
            context = {"agent": f"h{height}"}
            ledger.submit_payload(
                ALICE, {"op": "updateContext", "provId": prov_id, "context": context}
            )
        ledger.produce_block()
        ledger.persist(directory)
        assert len(ledger.blocks) == 1
    return ledger


def held_and_load_peak(directory, blocks):
    """Bytes a producing ledger holds after ``blocks`` blocks (what deleting
    it frees), and the peak bytes of reloading its log."""
    gc.collect()
    tracemalloc.start()
    try:
        ledger = fixed_store_chain(directory, blocks)
        head = canonical_json(ledger.head.wire_dict())
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del ledger
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        loaded = load_ledger(directory)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(loaded.blocks) == 1
    assert canonical_json(loaded.head.wire_dict()) == head
    return held, peak


def test_memory_is_bounded_by_state_not_chain_length(tmp_path):
    """At a fixed store size, an 8x longer chain costs no more memory to hold
    or to reload: the log on disk is the one copy of the chain."""
    fixed_store_chain(tmp_path / "warm-up", 5)  # fills one-off caches before measuring
    short_held, short_peak = held_and_load_peak(tmp_path / "short", 25)
    long_held, long_peak = held_and_load_peak(tmp_path / "long", 200)
    assert long_held / short_held < 1.5
    assert long_peak / short_peak < 1.5


@pytest.mark.parametrize(
    "edit, verdict",
    [
        ("empty", {"ok": False, "firstCorruptHeight": 0, "reason": "empty block log"}),
        ("no final newline", {"ok": True}),
        ("blank line", {"ok": False, "firstCorruptHeight": 2}),
        ("crlf", {"ok": False, "firstCorruptHeight": 0, "reason": "genesis block mismatch"}),
    ],
)
def test_log_line_edge_cases(tmp_path, edit, verdict):
    _, directory = busy_ledger(tmp_path)
    path = directory / BLOCKS_FILE
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    edited = {
        "empty": b"",
        "no final newline": data[:-1],
        "blank line": b"".join(lines[:2] + [b"\n"] + lines[2:]),
        "crlf": data.replace(b"\n", b"\r\n"),
    }[edit]
    path.write_bytes(edited)
    result = verify_chain(directory).as_dict()
    if edit == "blank line":
        assert result.pop("reason").startswith("unparseable log line")
    assert result == verdict


def nested_lists(depth: int) -> str:
    return "[" * depth + "]" * depth


# every depth near the default recursion limit, where a recursive parser or
# checker would run out of stack, and one far beyond it
NESTING_DEPTHS = [*range(900, 1101), 100_000]


@pytest.mark.parametrize("where", ["line", "payload", "op", "context value"])
def test_a_line_nested_too_deep_fails_verification_at_its_height(tmp_path, where):
    """However deep the nesting, verify reports the line at its height and
    never raises: a line that parses is malformed at the field that holds
    the nesting, whose check reads no deeper than it must; one a reader
    refuses as too deep is unparseable."""
    _, directory = busy_ledger(tmp_path)
    path = directory / BLOCKS_FILE
    lines = path.read_bytes().splitlines(keepends=True)
    height = len(lines) - 1
    last = json.loads(lines[-1])
    tx = last["transactions"][0]
    if where == "line":
        last = "@"
    elif where == "payload":
        tx["payload"] = "@"
    elif where == "op":
        tx["payload"]["op"] = "@"
    else:
        tx["payload"]["context"]["agent"] = "@"
    template = canonical_json(last)
    reasons = set()
    for depth in NESTING_DEPTHS:
        line = template.replace('"@"', nested_lists(depth))
        path.write_bytes(b"".join(lines[:-1]) + line.encode() + b"\n")
        result = verify_chain(directory)
        assert (result.ok, result.first_corrupt_height) == (False, height), depth
        reasons.add(result.reason)
    malformed = {
        "line": "block must be a JSON object",
        "payload": "payload must be a JSON object",
        "op": "unknown operation [[[",
        "context value": "context values must be strings, got [[[",
    }[where]
    assert all(reason.startswith(("unparseable log line: ", malformed)) for reason in reasons)
    assert any(reason.startswith(malformed) for reason in reasons), reasons


def varied_chain(directory):
    """A persisted log with several senders, non-ASCII contexts, zero and
    non-zero numbers, a failed transaction and an empty block."""
    ledger = quick_ledger(capacity=4)
    for client in (ALICE, BOB):
        ledger.submit_payload(client, REQUEST)
    ledger.produce_block()
    ledger.submit_payload(ALICE, create_payload(agent="café"), fee=3)
    ledger.submit_payload(BOB, {"op": "approve", "tokenId": 2, "operator": CAROL.hex})
    ledger.produce_block()
    ledger.produce_block()
    ledger.submit_payload(
        ALICE, {"op": "updateContext", "provId": 1, "context": {"agent": "naïve", "unit": "°C"}}
    )
    ledger.submit_payload(
        ALICE, {"op": "transfer", "tokenId": 1, "from": ALICE.hex, "to": BOB.hex}, fee=2
    )
    ledger.submit_payload(CAROL, create_payload(token_id=2, inputs=[1], agent="é"))
    ledger.submit_payload(MALLORY, create_payload(token_id=1))  # not authorized: fails
    ledger.produce_block()
    ledger.persist(directory)
    return directory / BLOCKS_FILE


def refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def int_as_orjson_reads(text: str) -> int | float:
    """An integer literal as orjson reads it: an ``int`` within 64 bits,
    else a ``float``, which no field accepts."""
    value = int(text)
    return value if -(2**63) <= value <= 2**64 - 1 else float(text)


def naive_parse_block(raw: bytes, height: int) -> Block:
    """The parse step with the stdlib alone: ``json.loads`` refuses NaN and
    Infinity, reads an integer outside 64 bits as orjson does, and a line
    holding a lone surrogate, which no UTF-8 text holds, is refused too.
    The value is checked as a block first; then the whole line is encoded
    and compared."""
    try:
        text = raw.decode("utf-8")
        parsed = json.loads(text, parse_constant=refuse_constant, parse_int=int_as_orjson_reads)
        naive_canonical(parsed).encode("utf-8")  # UnicodeEncodeError is a ValueError
    except ValueError as exc:
        raise CorruptLogError(f"unparseable log line: {exc}", height=height) from exc
    try:
        block = Block.from_wire(parsed)
    except MalformedPayloadError as exc:
        raise CorruptLogError(str(exc), height=height) from exc
    if not naive_line_is_canonical(text):
        raise CorruptLogError(NOT_CANONICAL, height=height)
    return block


def unsorted_json(value) -> str:
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False)


def reversed_keys_at(*path):
    """An edit writing the keys of the object at ``path`` in reverse order."""

    def edit(line):
        root = [json.loads(line)]
        parent, key = root, 0
        for step in path:
            parent, key = parent[key], step
            if step == 0 and not parent:
                return None  # a block without transactions
        parent[key] = dict(reversed(parent[key].items()))
        return unsorted_json(root[0])

    return edit


def text_edit(pattern, replacement):
    """An edit replacing the first match of ``pattern``, if there is one."""

    def edit(line):
        edited, count = re.subn(pattern, replacement, line, count=1)
        return edited if count else None

    return edit


changed_hash = text_edit(r'"hash":"(.)', lambda m: '"hash":"' + ("1" if m[1] == "0" else "0"))


def naive_hash(value) -> str:
    return hashlib.sha256(naive_canonical(value).encode("utf-8")).hexdigest()


def resealed(block: dict) -> str:
    """The canonical line of ``block`` with its block hash computed again."""
    fields = ("height", "parentHash", "results", "stateDigest", "timestamp")
    header = {key: block[key] for key in fields}
    header["txHashes"] = [tx["hash"] for tx in block["transactions"]]
    return naive_canonical(dict(block, blockHash=naive_hash(header)))


def rehash(tx: dict) -> None:
    """Compute ``tx``'s hash again from its other fields."""
    tx["hash"] = naive_hash({key: value for key, value in tx.items() if key != "hash"})


def resealed_fee(fee):
    """An edit giving the first transaction ``fee`` and computing its hash
    and the block's again: the fee is not state, so the line stays valid."""

    def edit(line):
        block = json.loads(line)
        if not block["transactions"]:
            return None
        tx = block["transactions"][0]
        tx["fee"] = fee
        rehash(tx)
        return resealed(block)

    return edit


def relinked(lines: list[str], height: int) -> list[str]:
    """``lines`` with every line after ``height`` resealed onto the new hash
    of the line before it."""
    lines = list(lines)
    for later in range(height + 1, len(lines)):
        parent_hash = json.loads(lines[later - 1])["blockHash"]
        lines[later] = resealed(dict(json.loads(lines[later]), parentHash=parent_hash))
    return lines


LINE_EDITS = {
    "unchanged": lambda line: line,
    "block keys reordered": reversed_keys_at(),
    "transaction keys reordered": reversed_keys_at("transactions", 0),
    "payload keys reordered": reversed_keys_at("transactions", 0, "payload"),
    "space after a colon": text_edit('":', '": '),
    "space after a comma": text_edit(",", ", "),
    "leading space": lambda line: " " + line,
    "trailing space": lambda line: line + " ",
    "escaped non-ASCII character": text_edit("é", r"\\u00e9"),
    "escaped ASCII character": text_edit('"agent"', r'"\\u0061gent"'),
    # a lone surrogate, which UTF-8 cannot hold, so no hash can be taken over it
    "lone surrogate in a context": text_edit('"agent":"', r'"agent":"\\ud800'),
    "lone surrogate in a result": text_edit(r'"results":\["', r'"results":["\\udfff'),
    "float fee": text_edit(r'"fee":(\d+)', r'"fee":\1.0'),
    "float height": text_edit(r'"height":(\d+)', r'"height":\1.0'),
    "float fee and a space": text_edit(r'"fee":(\d+)', r'"fee": \1.0'),
    "negative zero": text_edit('"nonce":0,', '"nonce":-0,'),
    "leading zero": text_edit(r'"fee":(\d+)', r'"fee":0\1'),
    "duplicate transaction key": text_edit('{"fee":', '{"fee":7,"fee":'),
    "duplicate block key": text_edit('{"blockHash":', '{"height":0,"blockHash":'),
    "changed transaction hash": changed_hash,
    "changed hash and reordered keys": lambda line: (
        changed_hash(line) and reversed_keys_at()(changed_hash(line))
    ),
    "CRLF": lambda line: line + "\r",
    # integers outside 64 bits, which orjson reads as floats
    "fee of 2**64": resealed_fee(2**64),
    "fee of 2**70": resealed_fee(2**70),
    "fee of 2**64 - 1": resealed_fee(2**64 - 1),
    "NaN fee": text_edit(r'"fee":\d+', '"fee":NaN'),
    "Infinity fee": text_edit(r'"fee":\d+', '"fee":Infinity'),
    "fee past the int-to-text digit limit": text_edit(
        r'"fee":\d+', '"fee":' + "9" * (sys.get_int_max_str_digits() + 1)
    ),
    "UTF-8 BOM": lambda line: "\ufeff" + line,
    # written as the byte 0xff, which no UTF-8 text holds
    "invalid UTF-8 byte": text_edit('"agent":"', '"agent":"\udcff'),
}

# edits after which the chain is still valid, once the later lines are relinked
VALID_EDITS = {"unchanged", "fee of 2**64 - 1"}
# edits orjson refuses with its own wording: the oracle's reason is the
# stdlib's, so only the verdict and the height are compared
UNPARSEABLE_EDITS = {
    "leading zero",
    "NaN fee",
    "Infinity fee",
    "fee past the int-to-text digit limit",
    "UTF-8 BOM",
    "invalid UTF-8 byte",
    "lone surrogate in a context",
    "lone surrogate in a result",
}


@pytest.mark.parametrize("name", sorted(LINE_EDITS))
def test_line_check_matches_the_naive_oracle(tmp_path, monkeypatch, name):
    """Each one-line edit of a varied log gets the same verdict, height and
    reason whether a line is parsed with orjson and its form checked from
    the transactions' wire texts, or parsed with the stdlib alone and
    checked by encoding the whole parsed line; an edit both refuse gets the
    same verdict and height, each reason unparseable."""
    from provledger import ledger as ledger_mod

    path = varied_chain(tmp_path / "ledger")
    original = path.read_text(encoding="utf-8").splitlines()
    edit = LINE_EDITS[name]
    edited_lines = 0
    for height, line in enumerate(original):
        edited = edit(line)
        if edited is None:
            continue
        edited_lines += 1
        lines = original[:height] + [edited] + original[height + 1 :]
        if name in VALID_EDITS:
            lines = relinked(lines, height)
        # surrogateescape writes the lone surrogate U+DCFF as the byte 0xff
        text = "".join(each + "\n" for each in lines)
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        verdict = verify_chain(path.parent).as_dict()
        with monkeypatch.context() as patched:
            patched.setattr(ledger_mod, "_parse_block", naive_parse_block)
            oracle = verify_chain(path.parent).as_dict()
        if name in UNPARSEABLE_EDITS and height > 0:
            reasons = verdict.pop("reason"), oracle.pop("reason")
            assert all(r.startswith("unparseable log line: ") for r in reasons), reasons
        assert oracle == verdict, (height, edited)
        if name in VALID_EDITS:
            assert verdict == {"ok": True}
        else:
            assert verdict["ok"] is False and verdict["firstCorruptHeight"] == height
    assert edited_lines > 0


def resealed_at(height, edit):
    """A chain edit applying ``edit(block, previous)`` to the parsed block at
    ``height``, resealing it and relinking every later line, so only the
    check the edit aims at can fail."""

    def apply(directory):
        path = directory / BLOCKS_FILE
        lines = path.read_text(encoding="utf-8").splitlines()
        block = json.loads(lines[height])
        edit(block, json.loads(lines[height - 1]))
        lines[height] = resealed(block)
        path.write_text("".join(line + "\n" for line in relinked(lines, height)), encoding="utf-8")

    return apply


def first_tx(edit):
    """An edit of the first transaction of a block, whose hash is then
    computed again."""

    def apply(block, previous):
        tx = block["transactions"][0]
        edit(tx)
        rehash(tx)

    return apply


def result_changed(block, previous):
    block["results"][1] = "ok"  # the logged result is NotAuthorized


def fifth_transaction(block, previous):
    """Append the block's last transaction with the sender's next nonce."""
    tx = dict(block["transactions"][-1], nonce=block["transactions"][-1]["nonce"] + 1)
    rehash(tx)
    block["transactions"].append(tx)
    block["results"].append("ok")


# varied_chain's capacity is 4; height 2 is followed by more blocks, and
# height 4, the last, holds 4 transactions, the first of them CAROL's create
REPLAY_EDITS = {
    "parentHash changed": (
        2, "broken parent link", resealed_at(2, lambda b, p: b.update(parentHash="1" * 64))
    ),
    "timestamp of the previous block": (
        2, "timestamps must strictly increase",
        resealed_at(2, lambda b, p: b.update(timestamp=p["timestamp"])),
    ),
    "fifth transaction": (4, "block over capacity", resealed_at(4, fifth_transaction)),
    "nonce raised": (
        4, f"nonce gap for {CAROL.hex} at height 4",
        resealed_at(4, first_tx(lambda tx: tx.update(nonce=tx["nonce"] + 1))),
    ),
    "result changed": (
        4, "recorded results diverge from replay at height 4",
        resealed_at(4, result_changed),
    ),
    "transactions an object": (
        4, "transactions must be a list", resealed_at(4, lambda b, p: b.update(transactions={}))
    ),
    "result dropped": (
        4, "results and transactions must align", resealed_at(4, lambda b, p: b["results"].pop())
    ),
    "inputs a number": (
        4, "inputs must be a list of record ids",
        resealed_at(4, first_tx(lambda tx: tx["payload"].update(inputs=5))),
    ),
    "context a list": (
        4, "context must be an object of string keys and values",
        resealed_at(4, first_tx(lambda tx: tx["payload"].update(context=["agent", "é"]))),
    ),
    "config a list": (
        0, "sim config must be a JSON object",
        lambda directory: (directory / CONFIG_FILE).write_text("[]"),
    ),
}


@pytest.mark.parametrize("name", sorted(REPLAY_EDITS))
def test_each_replay_check_reports_its_reason_and_height(tmp_path, name):
    """An edit aimed at one check of ``verify`` fails at that check, with its
    reason and the height of the edited block."""
    height, reason, edit = REPLAY_EDITS[name]
    path = varied_chain(tmp_path / "ledger")
    edit(path.parent)
    assert verify_chain(path.parent).as_dict() == {
        "ok": False, "firstCorruptHeight": height, "reason": reason
    }


# one JSON token: a string, a number, a literal, or one structural character
JSON_TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|[a-zA-Z]+|.', re.S)
# tokens an edit may put in a line: each JSON type, what orjson and the stdlib
# read differently, and what no JSON parser reads
FUZZ_TOKENS = [
    b"{", b"}", b"[", b"]", b",", b":", b'"', b"", b" ", b"\\",
    b"0", b"-0", b"1", b"1.0", b"1e3", b"-1", b"01",
    b"18446744073709551615", b"18446744073709551616", b"1180591620717411303424",
    b"null", b"true", b"false", b"NaN", b"Infinity", b"-Infinity",
    b'""', b'"op"', b'"fee"', b'"\\u00e9"', b'"\\ud800"', "é".encode(), b"\xff", b"\xef\xbb\xbf",
    b"{}", b"[]", b"[[[[", b'{"a":1}',
]


def fuzzed_line(rng: random.Random, line: bytes) -> bytes:
    """``line`` after 1-3 random edits, each a byte or a whole JSON token
    replaced, deleted or inserted; a random byte is ASCII, since the tokens
    hold the non-ASCII and invalid UTF-8 cases."""
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            position = rng.randrange(len(line) + 1)
            cut = rng.choice([0, 1])
            new = bytes([rng.randrange(128)]) if rng.random() < 0.5 else rng.choice(FUZZ_TOKENS)
            line = line[:position] + new + line[position + cut :]
        else:
            tokens = JSON_TOKEN.findall(line)
            position = rng.randrange(len(tokens))
            tokens[position : position + rng.choice([0, 1])] = [rng.choice(FUZZ_TOKENS)]
            line = b"".join(tokens)
    return line


FUZZ_CASES = 1000
UNPARSEABLE = "unparseable log line: "


def test_line_edit_fuzz_matches_the_naive_oracle(tmp_path, monkeypatch):
    """Seeded random edits of one line of a varied log get the same verdict
    and height whether lines are parsed by ``_parse_block`` or by the stdlib
    alone, and the same reason wherever both readers parse the edited line.
    A line one reader refuses as unparseable is refused in that reader's
    own wording, so there only the verdict and height are compared."""
    from provledger import ledger as ledger_mod

    path = varied_chain(tmp_path / "ledger")
    original = path.read_bytes().splitlines(keepends=True)
    rng = random.Random(2026)
    verdicts, compared = set(), 0
    for _ in range(FUZZ_CASES):
        height = rng.randrange(len(original))
        edited = fuzzed_line(rng, original[height].removesuffix(b"\n")) + b"\n"
        path.write_bytes(b"".join(original[:height] + [edited] + original[height + 1 :]))
        result = verify_chain(path.parent)
        with monkeypatch.context() as patched:
            patched.setattr(ledger_mod, "_parse_block", naive_parse_block)
            oracle = verify_chain(path.parent)
        assert (result.ok, result.first_corrupt_height) == (
            oracle.ok, oracle.first_corrupt_height
        ), (height, edited, result.reason, oracle.reason)
        if not any(
            (each.reason or "").startswith(UNPARSEABLE) for each in (result, oracle)
        ):
            compared += 1
            assert result.reason == oracle.reason, (height, edited)
        verdicts.add((result.ok, result.reason.split(":")[0] if result.reason else None))
    # the edits reach more than one check
    assert len(verdicts) > 5, verdicts
    # about a third of the edits leave a line both readers parse
    assert compared > FUZZ_CASES // 4, compared


def test_load_rejects_corruption(tmp_path):
    _, directory = busy_ledger(tmp_path)
    path = directory / BLOCKS_FILE
    data = bytearray(path.read_bytes())
    data[10] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptLogError):
        load_ledger(directory)


def test_load_missing_files(tmp_path):
    with pytest.raises(IoFailureError):
        load_ledger(tmp_path / "nowhere")


def test_determinism_identical_schedules_identical_logs(tmp_path):
    def build(target):
        ledger = quick_ledger(seed=77, jitter=True)
        ledger.submit_payload(ALICE, REQUEST, fee=2)
        ledger.produce_block()
        for i in range(5):
            ledger.submit_payload(ALICE, create_payload(token_id=1, agent=f"x{i}"), fee=i + 1)
        ledger.produce_block()
        ledger.produce_block()
        ledger.persist(target)
        return (target / BLOCKS_FILE).read_bytes()

    first = build(tmp_path / "a")
    second = build(tmp_path / "b")
    assert first == second


def print_seeded_chains(out: str) -> None:
    """Build one seeded chain under the whitelist policy and one under the
    fee policy, persist each in a directory under ``out``, and load it once,
    so that the load writes its checkpoint. Print, per chain, the SHA-256
    of the log and of the checkpoint and the ops that succeeded; then this
    process's hash of a fixed text."""
    for name in ("whitelist", "fee"):
        rng = random.Random(2026)
        ledger = quick_ledger(policy=FAILURE_POLICIES[name], capacity=6)
        clients = [ALICE, BOB, CAROL, MALLORY]
        for client in clients:
            ledger.submit_payload(client, {"op": "requestToken", "payment": 2})
        done = set()
        for _ in range(40):
            for _ in range(rng.randint(0, 6)):
                payload = random_payload(rng, ledger, clients)
                sender = plausible_sender(rng, ledger, payload, clients)
                ledger.submit_payload(sender, payload, fee=rng.randint(1, 3))
            _, outcomes = ledger.produce_block()
            done.update(outcome.tx.payload["op"] for outcome in outcomes if outcome.ok)
        directory = Path(out) / name
        ledger.persist(directory)
        load_ledger(directory)
        files = [(directory / file).read_bytes() for file in (BLOCKS_FILE, CHECKPOINT_FILE)]
        print(name, *(hashlib.sha256(data).hexdigest() for data in files), *sorted(done))
    print(hash("provledger"))


def test_logs_and_checkpoints_do_not_depend_on_the_hash_seed(tmp_path):
    """Sets of addresses, such as the whitelist and a token's approvals,
    iterate in an order ``PYTHONHASHSEED`` sets; no log or checkpoint byte
    may follow it. Two processes under different seeds, run one after the
    other, build the same chains and write the same files."""
    paths = [str(Path(provledger.__file__).resolve().parent.parent), str(Path(__file__).parent)]
    script = "import sys, test_ledger; test_ledger.print_seeded_chains(sys.argv[1])"
    printed = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(paths))
        run = subprocess.run([sys.executable, "-c", script, str(tmp_path / seed)], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        printed.append(run.stdout.splitlines())
    (*chains, first_hash), (*again, second_hash) = printed
    assert first_hash != second_hash  # the seeds took effect
    assert chains == again
    # each chain holds the ops whose state is a set of addresses
    ops = {line.split()[0]: set(line.split()[3:]) for line in chains}
    assert {"approve", "transfer", "whitelistAdd", "whitelistRemove"} <= ops["whitelist"]
    assert {"approve", "transfer"} <= ops["fee"]


def test_replay_digest_equality_each_block(tmp_path):
    rng = random.Random(3)
    ledger = quick_ledger(capacity=3)
    produced = [ledger.head]
    clients = [ALICE, BOB, CAROL]
    for client in clients:
        ledger.submit_payload(client, REQUEST)
    produced.append(ledger.produce_block()[0])
    for step in range(30):
        client = rng.choice(clients)
        token = rng.randint(1, 3)
        ledger.submit_payload(client, create_payload(token_id=token, agent=f"s{step}"))
        if rng.random() < 0.5:
            produced.append(ledger.produce_block()[0])
    while ledger.pending_count():
        produced.append(ledger.produce_block()[0])
    directory = tmp_path / "replayed"
    ledger.persist(directory)
    assert_log_matches(ledger, directory, produced)


# --- config -----------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigInvalidError):
        SimConfig(block_interval_ms=0, block_capacity=1)
    with pytest.raises(ConfigInvalidError):
        SimConfig(block_interval_ms=10, block_capacity=0)
    with pytest.raises(ConfigInvalidError):
        SimConfig(block_interval_ms=10, block_capacity=1, rng_seed=-1)
    with pytest.raises(ConfigInvalidError):
        SimConfig.from_dict({"blockIntervalMs": 10})
    with pytest.raises(ConfigInvalidError):
        SimConfig.from_dict({"blockIntervalMs": 10, "blockCapacity": 1, "bogus": 2})
    config = SimConfig.from_dict({"blockIntervalMs": 10, "blockCapacity": 1})
    assert SimConfig.from_dict(config.as_dict()) == config


def built(config=SimConfig(1000, 5), **policy_fields):
    """A policy and sim config built directly, the test policy with ``policy_fields``."""
    return dataclasses.replace(open_policy(), **policy_fields), config


CONFIGS = {
    "jitter": lambda: built(SimConfig(700, 3, rng_seed=2**64 - 1, jitter=True)),
    "fee": lambda: built(assignment=AssignmentStrategy("fee", price=3, initial_balance=10)),
    "whitelist": lambda: built(assignment=AssignmentStrategy(
        "whitelist", admin=CAROL, members=frozenset({ALICE, BOB}), initial_balance=4
    )),
    "closed": lambda: built(
        schema=ContextSchema(name="s", required=frozenset({"agent", "time"})),
        exposure=ExposureFlags(allow_update=False, allow_invalidate=False),
        assignment=AssignmentStrategy("open", initial_balance=7),
    ),
    "64-bit edge": lambda: built(
        SimConfig(2**64 - 1, 5),
        assignment=AssignmentStrategy("fee", price=2**64 - 1, initial_balance=2**64 - 1),
    ),
    # values the wire parsers reject, so a ledger built from them could not be loaded
    "interval 2**64": lambda: built(SimConfig(2**64, 5)),
    "fee price=2**64": lambda: built(assignment=AssignmentStrategy("fee", price=2**64)),
    "initial_balance=2**64": lambda: built(
        assignment=AssignmentStrategy("open", initial_balance=2**64)
    ),
    "jitter=1": lambda: built(SimConfig(1000, 5, jitter=1)),
    "jitter='no'": lambda: built(SimConfig(1000, 5, jitter="no")),
    "fee price=True": lambda: built(assignment=AssignmentStrategy("fee", price=True)),
    "fee price=2.5": lambda: built(assignment=AssignmentStrategy("fee", price=2.5)),
    "initial_balance=True": lambda: built(
        assignment=AssignmentStrategy("open", initial_balance=True)
    ),
    "initial_balance=1.0": lambda: built(
        assignment=AssignmentStrategy("fee", price=1, initial_balance=1.0)
    ),
    "open price": lambda: built(assignment=AssignmentStrategy("open", price=3)),
    "open members": lambda: built(
        assignment=AssignmentStrategy("open", members=frozenset({ALICE}))
    ),
    "fee admin": lambda: built(assignment=AssignmentStrategy("fee", price=1, admin=CAROL)),
    "whitelist admin 'carol'": lambda: built(
        assignment=AssignmentStrategy("whitelist", admin="carol")
    ),
    "whitelist members {'bob'}": lambda: built(assignment=AssignmentStrategy(
        "whitelist", admin=CAROL, members=frozenset({"bob"})
    )),
    "whitelist members list": lambda: built(
        assignment=AssignmentStrategy("whitelist", admin=CAROL, members=[ALICE])
    ),
    "schema name ''": lambda: built(schema=ContextSchema(name="", required=frozenset())),
    "schema name 5": lambda: built(schema=ContextSchema(name=5, required=frozenset())),
    "required key ''": lambda: built(schema=ContextSchema(name="s", required=frozenset({""}))),
    "optional key 3": lambda: built(
        schema=ContextSchema(name="s", required=frozenset(), optional=frozenset({3}))
    ),
    "required list": lambda: built(schema=ContextSchema(name="s", required=["a"])),
    "optional set": lambda: built(
        schema=ContextSchema(name="s", required=frozenset(), optional={"a"})
    ),
    "allow_update=1": lambda: built(exposure=ExposureFlags(allow_update=1)),
    "allow_invalidate='false'": lambda: built(exposure=ExposureFlags(allow_invalidate="false")),
}
GOOD_CONFIGS = ("jitter", "fee", "whitelist", "closed", "64-bit edge")


@pytest.mark.parametrize("name", sorted(set(CONFIGS) - set(GOOD_CONFIGS)))
def test_bad_config_values_fail_at_construction(name):
    with pytest.raises(ConfigInvalidError):
        CONFIGS[name]()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_constructible_config_survives_persist_and_load(tmp_path, name):
    """A ledger built from any config its constructors accept loads back."""
    try:
        policy, config = CONFIGS[name]()
    except ConfigInvalidError:
        assert name not in GOOD_CONFIGS
        return
    ledger = Ledger(policy, config)
    produced = [ledger.head]
    ledger.submit_payload(ALICE, {"op": "requestToken", "payment": 3})
    ledger.submit_payload(ALICE, {**create_payload(), "context": {"agent": "a", "time": "5am"}})
    ledger.submit_payload(ALICE, {"op": "invalidate", "provId": 1})
    ledger.submit_payload(CAROL, {"op": "whitelistAdd", "member": MALLORY.hex})
    while ledger.pending_count():
        produced.append(ledger.produce_block()[0])
    ledger.persist(tmp_path)
    loaded = assert_log_matches(ledger, tmp_path, produced)
    assert (loaded.policy, loaded.config) == (policy, config)
    assert verify_chain(tmp_path).ok is True


@pytest.mark.parametrize("jitter", [False, True])
def test_a_block_past_the_64_bit_clock_is_refused_and_changes_nothing(jitter):
    """The next block time must fit in 64 bits: past it, ``produce_block``
    raises before it selects anything, so the mempool, the state and the
    head stay as they were."""
    ledger = Ledger(open_policy(), SimConfig(2**62, 5, jitter=jitter))
    while ledger.next_block_timestamp() <= 2**64 - 1:
        ledger.submit_payload(ALICE, REQUEST)
        ledger.produce_block()
    ledger.submit_payload(ALICE, REQUEST)
    head, state, pending = ledger.head, ledger.state_snapshot(), ledger.pending_count()
    with pytest.raises(ClockExhaustedError) as caught:
        ledger.produce_block()
    assert caught.value.code == "ClockExhausted"
    assert (ledger.head, ledger.state_snapshot(), ledger.pending_count()) == (head, state, pending)
    assert ledger.head.timestamp <= 2**64 - 1 < ledger.next_block_timestamp()


def test_wire_forms_are_canonical(tmp_path):
    _, directory = busy_ledger(tmp_path)
    for raw in (directory / BLOCKS_FILE).read_bytes().splitlines():
        parsed = json.loads(raw)
        assert canonical_json(parsed).encode() == raw


def test_whitelist_payloads_execute_on_chain():
    from support import whitelist_policy

    ledger = quick_ledger(policy=whitelist_policy(admin=CAROL, members=[]))
    ledger.submit_payload(ALICE, REQUEST)
    block, _ = ledger.produce_block()
    assert block.results == ("NotWhitelisted",)
    ledger.submit_payload(CAROL, {"op": "whitelistAdd", "member": ALICE.hex})
    block, _ = ledger.produce_block()
    assert block.results == ("ok",)
    ledger.submit_payload(ALICE, REQUEST)
    block, outcomes = ledger.produce_block()
    assert block.results == ("ok",)
    assert outcomes[0].value == {"tokenId": 1}
    ledger.submit_payload(BOB, {"op": "whitelistRemove", "member": ALICE.hex})
    block, _ = ledger.produce_block()
    assert block.results == ("NotAuthorized",)


def test_tampered_policy_file_detected(tmp_path):
    """The genesis digest covers the policy, so editing policy.json breaks
    verification at height 0."""
    _, directory = busy_ledger(tmp_path)
    policy_path = directory / "policy.json"
    text = policy_path.read_text(encoding="utf-8")
    policy_path.write_text(
        text.replace('"allowUpdate":true', '"allowUpdate":false'), encoding="utf-8"
    )
    result = verify_chain(directory)
    assert result.ok is False
    assert result.first_corrupt_height == 0


def test_prior_context_recoverable_from_log(tmp_path):
    """Updates replace state, but the block log keeps the old context."""
    ledger = quick_ledger()
    ledger.submit_payload(ALICE, REQUEST)
    ledger.produce_block()
    ledger.submit_payload(ALICE, create_payload(token_id=1, agent="original-agent"))
    ledger.produce_block()
    ledger.submit_payload(
        ALICE, {"op": "updateContext", "provId": 1, "context": {"agent": "replacement"}}
    )
    ledger.produce_block()
    assert ledger.machine.provenance.records.get_record(1).context.get("agent") == "replacement"
    directory = tmp_path / "audit"
    ledger.persist(directory)
    log_text = (directory / BLOCKS_FILE).read_text(encoding="utf-8")
    assert "original-agent" in log_text
    assert "replacement" in log_text


# --- failed transactions leave state untouched ------------------------------------

FAILURE_POLICIES = {
    "open": open_policy(),
    "fee": fee_policy(price=2, initial_balance=5),
    "fee-underfunded": fee_policy(price=5, initial_balance=3),
    "whitelist": whitelist_policy(admin=CAROL, members=[ALICE]),
}


def random_payload(rng, ledger, clients):
    """Any of the eight ops, with ids and clients that are often invalid."""
    machine = ledger.machine
    records = machine.provenance.records.record_count()
    token_id = rng.randint(1, machine.next_token_id)
    prov_id = rng.randint(1, records + 1)
    context = rng.choice([{"agent": "a"}, {"agent": "b", "unit": "C"}, {"bogus": "x"}])
    client = rng.choice(clients).hex
    op = rng.choice(sorted(OPS))
    if op == "requestToken":
        return {"op": op, "payment": rng.randint(0, 6)}
    if op == "transfer":
        return {"op": op, "tokenId": token_id, "from": client, "to": rng.choice(clients).hex}
    if op == "approve":
        return {"op": op, "tokenId": token_id, "operator": client}
    if op == "createProvenance":
        inputs = rng.sample(range(1, records + 2), k=min(rng.randint(0, 2), records + 1))
        return {"op": op, "tokenId": token_id, "inputs": inputs, "context": context}
    if op == "updateContext":
        return {"op": op, "provId": prov_id, "context": context}
    if op == "invalidate":
        return {"op": op, "provId": prov_id}
    return {"op": op, "member": client}


def state_without_nonces(ledger):
    snapshot = ledger.state_snapshot()
    del snapshot["nonces"]  # a failed transaction still consumes its nonce
    return snapshot


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("policy_name", sorted(FAILURE_POLICIES))
def test_failed_transactions_leave_state_untouched(policy_name, seed):
    rng = random.Random(seed)
    ledger = quick_ledger(policy=FAILURE_POLICIES[policy_name])
    clients = [ALICE, BOB, CAROL, MALLORY]
    failures = 0
    for _ in range(60):
        before = state_without_nonces(ledger)
        ledger.submit_payload(rng.choice(clients), random_payload(rng, ledger, clients))
        _, (outcome,) = ledger.produce_block()
        if not outcome.ok:
            failures += 1
            assert state_without_nonces(ledger) == before, (
                f"failed {outcome.tx.payload} ({outcome.status}) changed state"
            )
    assert failures


# --- incremental state digest ------------------------------------------------------

DIGEST_POLICIES = {
    **FAILURE_POLICIES,
    "closed": open_policy(allow_update=False, allow_invalidate=False),
}


def plausible_sender(rng, ledger, payload, clients):
    """Usually the client a payload needs to succeed: the whitelist admin, or
    the owner of the token it names or of its record's token."""
    machine = ledger.machine
    records = machine.provenance.records
    if rng.random() < 0.25:
        return rng.choice(clients)
    if payload["op"].startswith("whitelist"):
        return machine.policy.assignment.admin or rng.choice(clients)
    try:
        token_id = records.get_record(payload.get("provId")).token_id
    except RecordNotFoundError:
        token_id = payload.get("tokenId")
    if machine.tokens.exists(token_id):
        return machine.tokens.owner_of(token_id)
    return rng.choice(clients)


def digest_from_scratch(ledger):
    """The ledger's incremental digest, checked against the oracle."""
    digest = ledger.state_digest()
    assert digest == snapshot_digest(ledger.state_snapshot())
    return digest


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("policy_name", sorted(DIGEST_POLICIES))
def test_incremental_digest_matches_from_scratch(tmp_path, policy_name, seed):
    rng = random.Random(seed)
    ledger = quick_ledger(policy=DIGEST_POLICIES[policy_name], capacity=4)
    clients = [ALICE, BOB, CAROL, MALLORY]
    directory = tmp_path / "ledger"
    assert ledger.head.state_digest == digest_from_scratch(ledger)
    results = set()
    for height in range(1, 61):
        for _ in range(rng.randint(0, 4)):
            payload = random_payload(rng, ledger, clients)
            sender = plausible_sender(rng, ledger, payload, clients)
            ledger.submit_payload(sender, payload, fee=rng.randint(1, 3))
        block, outcomes = ledger.produce_block()
        results.update(outcome.ok for outcome in outcomes)
        assert block.state_digest == digest_from_scratch(ledger)
        if height % 20 == 0:
            ledger.persist(directory)
            loaded = load_ledger(directory)
            assert digest_from_scratch(loaded) == block.state_digest
    # an underfunded fee policy mints nothing, so every op there fails
    assert results == ({False} if policy_name == "fee-underfunded" else {True, False})


def test_digest_follows_its_definition():
    """The README definition, computed by the json-and-hashlib oracle."""
    ledger = quick_ledger(policy=whitelist_policy(admin=CAROL, members=[ALICE]))
    ledger.submit_payload(ALICE, REQUEST)
    ledger.submit_payload(ALICE, create_payload(token_id=1))
    ledger.submit_payload(ALICE, {"op": "approve", "tokenId": 1, "operator": BOB.hex})
    ledger.produce_block()
    snapshot = ledger.state_snapshot()
    assert snapshot["nonces"] == {ALICE.hex: 3}
    assert len(snapshot["records"]) == len(snapshot["tokens"]) == len(snapshot["whitelist"]) == 1
    assert ledger.state_digest() == naive_state_digest(snapshot)


def old_value(value):
    """The hook's ``old`` argument for a stored ``value``: ``None`` for an
    absent leaf, else a function returning it."""
    return None if value is None else lambda: value


# the scalar fields a digest is taken with, all zero
ZERO_SCALARS = dict.fromkeys(statehash.SCALARS, 0)


def test_accumulator_is_order_free_and_undoes_writes():
    empty = StateAccumulator().digest(ZERO_SCALARS)
    writes = [("nonces", "a", None, 1), ("nonces", "b", None, 1), ("nonces", "a", 1, 2)]
    forward, direct = StateAccumulator(), StateAccumulator()
    for kind, key, old, new in writes:
        forward.write(kind, key, old_value(old), new)
    direct.write("nonces", "b", None, 1)
    direct.write("nonces", "a", None, 2)
    assert forward.digest(ZERO_SCALARS) == direct.digest(ZERO_SCALARS) != empty
    for kind, key, old, new in reversed(writes):
        forward.write(kind, key, old_value(new), old)
    assert forward.digest(ZERO_SCALARS) == empty
    # three counts are the multiplicity 3 that the from-scratch digest reads
    counted = StateAccumulator()
    for _ in range(3):
        counted.count("nonces", "a")
    snapshot = {"records": [], "tokens": [], "balances": {}, "whitelist": [], **ZERO_SCALARS}
    assert counted.digest(ZERO_SCALARS) == snapshot_digest(dict(snapshot, nonces={"a": 3}))
    assert counted.digest(ZERO_SCALARS) != snapshot_digest(dict(snapshot, nonces={"a": 2}))


def counted_leaf_hashes(monkeypatch) -> list:
    """The kind of every leaf hashed from now on, in order."""
    hashed = []
    real_leaf = statehash._leaf

    def counting_leaf(kind, key, value):
        hashed.append(kind)
        return real_leaf(kind, key, value)

    monkeypatch.setattr(statehash, "_leaf", counting_leaf)
    return hashed


def test_each_executed_op_hashes_only_the_leaves_it_stores(tmp_path, monkeypatch):
    """Leaf hashes per executed transaction, in production and in replay: a
    request hashes the minted token, a create its record, and a first update
    or approval the old and the new value. The new value's leaf is held, so
    a second rewrite of the same value hashes only its new leaf. A sender's
    nonce leaf is hashed on its first transaction only, then read from the
    memo, so a failed transaction hashes nothing; replay from an empty memo
    hashes it once per sender."""
    statehash._member_leaf.cache_clear()
    hashed = counted_leaf_hashes(monkeypatch)
    ledger = quick_ledger()
    steps = [
        (ALICE, REQUEST, ["tokens", "nonces"]),
        (ALICE, create_payload(), ["records"]),
        (ALICE, {"op": "updateContext", "provId": 1, "context": {"agent": "b"}},
         ["records", "records"]),
        (ALICE, {"op": "updateContext", "provId": 1, "context": {"agent": "c"}}, ["records"]),
        (ALICE, create_payload(token_id=9), []),  # no token 9: fails
        (ALICE, {"op": "approve", "tokenId": 1, "operator": BOB.hex}, ["tokens", "tokens"]),
        (ALICE, {"op": "approve", "tokenId": 1, "operator": CAROL.hex}, ["tokens"]),
        (BOB, REQUEST, ["tokens", "nonces"]),
        (ALICE, REQUEST, ["tokens"]),
    ]
    produced = []
    for sender, payload, expected in steps:
        ledger.submit_payload(sender, payload)
        hashed.clear()
        ledger.produce_block()
        assert sorted(hashed) == sorted(expected), payload
        produced += hashed
    ledger.persist(tmp_path)
    statehash._member_leaf.cache_clear()
    hashed.clear()
    assert load_ledger(tmp_path).head == ledger.head
    assert hashed == produced
    assert hashed.count("nonces") == 2  # ALICE and BOB


def counted_old_values(monkeypatch) -> list:
    """The kind of every old value a write hook builds from now on, in order,
    for ledgers and layers made after the call."""
    built = []
    real_write = StateAccumulator.write

    def counting_write(self, kind, key, old, new):
        def counted_old():
            built.append(kind)
            return old()

        real_write(self, kind, key, None if old is None else counted_old, new)

    monkeypatch.setattr(StateAccumulator, "write", counting_write)
    return built


def test_a_rewrite_builds_the_old_value_only_when_its_leaf_is_not_held(tmp_path, monkeypatch):
    """Leaf hashes and old values built per executed transaction, in
    production and in replay: the first rewrite of a record, a token or a
    balance builds and hashes the old value, and each later one subtracts the
    held leaf and builds nothing. A rewrite that changes nothing (an equal
    context, an operator approved again, a transfer to the owner of a token
    with no approvals) hashes and builds nothing. These are README's counts."""
    statehash._member_leaf.cache_clear()
    hashed = counted_leaf_hashes(monkeypatch)
    built = counted_old_values(monkeypatch)
    ledger = quick_ledger(policy=fee_policy(price=2, initial_balance=20))
    paid = {"op": "requestToken", "payment": 2}

    def update(agent):
        return {"op": "updateContext", "provId": 1, "context": {"agent": agent}}

    def approve(operator):
        return {"op": "approve", "tokenId": 1, "operator": operator.hex}

    def transfer(token_id, from_, to):
        return {"op": "transfer", "tokenId": token_id, "from": from_.hex, "to": to.hex}

    steps = [
        (ALICE, paid, ["tokens", "nonces", "balances"], []),
        (ALICE, create_payload(), ["records"], []),
        (ALICE, update("b"), ["records", "records"], ["records"]),
        (ALICE, update("c"), ["records"], []),
        (ALICE, update("c"), [], []),
        (ALICE, approve(BOB), ["tokens", "tokens"], ["tokens"]),
        (ALICE, approve(BOB), [], []),
        (ALICE, approve(CAROL), ["tokens"], []),
        (ALICE, paid, ["tokens", "balances", "balances"], ["balances"]),
        (ALICE, paid, ["tokens", "balances"], []),
        (ALICE, {"op": "invalidate", "provId": 1}, ["records"], []),
        (ALICE, transfer(1, ALICE, BOB), ["tokens"], []),
        (BOB, transfer(1, BOB, BOB), ["nonces"], []),
        (ALICE, transfer(2, ALICE, ALICE), [], []),
    ]
    produced = []
    for sender, payload, expected_hashes, expected_builds in steps:
        ledger.submit_payload(sender, payload)
        hashed.clear()
        built.clear()
        _, outcomes = ledger.produce_block()
        assert outcomes[0].ok, payload
        assert sorted(hashed) == sorted(expected_hashes), payload
        assert built == expected_builds, payload
        produced.append((list(hashed), list(built)))
    ledger.persist(tmp_path)
    statehash._member_leaf.cache_clear()
    hashed.clear()
    built.clear()
    assert load_ledger(tmp_path).head == ledger.head
    assert hashed == [kind for each, _ in produced for kind in each]
    assert built == [kind for _, each in produced for kind in each]


@pytest.mark.parametrize("held", [0, statehash.HELD_LEAVES])
def test_no_op_rewrites_leave_the_digest_unchanged(held, monkeypatch):
    """An update to an equal context, a transfer to the owner of a token with
    no approvals and the approval of an operator already approved hash
    nothing and leave the digest as it was, whether the accumulator holds
    the value's leaf or not; it stays the digest of the stored values."""
    monkeypatch.setattr(statehash, "HELD_LEAVES", held)
    accumulator = StateAccumulator()
    machine = PolicyLayer.build(open_policy(), accumulator.write)
    token = machine.request_token(ALICE)
    prov_id = machine.create_provenance_checked(ALICE, token, [], Context({"agent": "a"}))
    machine.gate_update(ALICE, prov_id, Context({"agent": "b"}))
    machine.tokens.approve(ALICE, BOB, token)
    assert len(accumulator._held) == min(held, 2)
    digest = accumulator.digest(ZERO_SCALARS)
    hashed = counted_leaf_hashes(monkeypatch)
    machine.gate_update(ALICE, prov_id, Context({"agent": "b"}))
    machine.tokens.approve(ALICE, BOB, token)
    assert hashed == [] and accumulator.digest(ZERO_SCALARS) == digest
    machine.tokens.transfer(ALICE, ALICE, CAROL, token)  # clears BOB's approval
    digest = accumulator.digest(ZERO_SCALARS)
    hashed.clear()
    machine.tokens.transfer(CAROL, CAROL, CAROL, token)
    assert hashed == [] and accumulator.digest(ZERO_SCALARS) == digest
    fresh = StateAccumulator()
    for kind, items in (
        ("records", machine.provenance.records.snapshot()),
        ("tokens", machine.tokens.snapshot()),
    ):
        for item in items:
            fresh.write(kind, item["id"], None, item)
    assert fresh.digest(ZERO_SCALARS) == accumulator.digest(ZERO_SCALARS)


MEMO_SIZE = statehash._member_leaf.cache_info().maxsize


def many_senders_ledger(clear_memo=False):
    """A ledger in which more distinct senders than the member-leaf memo holds
    each request a token, then the first 20 of them, long evicted, request
    another; yields it and each of its 12 blocks."""
    senders = [ClientId.from_alias(f"sender{i}") for i in range(MEMO_SIZE + 80)]
    ledger = quick_ledger(capacity=100)
    for sender in senders + senders[:20]:
        ledger.submit_payload(sender, REQUEST)
    while ledger.pending_count():
        if clear_memo:
            statehash._member_leaf.cache_clear()
        yield ledger, ledger.produce_block()[0]


def test_memoised_nonce_leaves_match_the_oracle_past_the_memo_size():
    statehash._member_leaf.cache_clear()
    blocks = 0
    for ledger, block in many_senders_ledger():
        blocks += 1
        assert block.state_digest == naive_state_digest(ledger.state_snapshot())
        assert statehash._member_leaf.cache_info().currsize <= MEMO_SIZE
    assert blocks == 12
    assert len(ledger.state_snapshot()["nonces"]) > MEMO_SIZE
    assert statehash._member_leaf.cache_info().currsize == MEMO_SIZE


def test_block_hashes_do_not_depend_on_the_memo():
    warm = [block.block_hash for _, block in many_senders_ledger()]
    cold = [block.block_hash for _, block in many_senders_ledger(clear_memo=True)]
    assert cold == warm


def test_from_scratch_digest_never_reads_the_memo(tmp_path, monkeypatch):
    """``verify``'s independent check hashes every leaf of the snapshot
    itself, even while the memos hold a sender's nonce leaf and the leaves
    of rewritten values, and leaves the held leaves as they were."""
    ledger = quick_ledger()
    senders = [ALICE, BOB, CAROL]
    for sender in senders:  # ALICE gets token 1
        ledger.submit_payload(sender, REQUEST)
        ledger.submit_payload(sender, create_payload(token_id=9))  # fails
        ledger.produce_block()
    ledger.submit_payload(ALICE, create_payload())
    for agent in ("b", "c"):
        update = {"op": "updateContext", "provId": 1, "context": {"agent": agent}}
        ledger.submit_payload(ALICE, update)
    for operator in (BOB, CAROL):
        ledger.submit_payload(ALICE, {"op": "approve", "tokenId": 1, "operator": operator.hex})
    ledger.produce_block()
    ledger.persist(tmp_path)
    loaded = load_ledger(tmp_path)
    snapshot = loaded.state_snapshot()
    held = list(loaded._accumulator._held.items())
    assert [key for key, _ in held] == [("records", 1), ("tokens", 1)]
    hashed = counted_leaf_hashes(monkeypatch)
    StateAccumulator().count("nonces", ALICE.hex)
    assert hashed == []  # the memo is warm
    assert snapshot_digest(snapshot) == loaded.state_digest()
    assert sorted(hashed) == ["nonces"] * len(senders) + ["records"] + ["tokens"] * 3
    assert list(loaded._accumulator._held.items()) == held


def rewrite_schedule(policy_name: str, agent: str = "a"):
    """A ledger under the fee or the whitelist policy that writes every kind
    of leaf and rewrites each stored value again and again: record updates
    and invalidations, token approvals and transfers, and either repeated
    fee-charging token requests (balances) or a whitelist member removed and
    added back; ``agent`` tags the record contexts. Among them are rewrites
    that change nothing (an equal context, an operator approved again, a
    transfer to the owner of a token with no approvals) and transfers that
    clear approvals. Yields the ledger and each of its blocks."""

    def update(prov_id, tag):
        return {"op": "updateContext", "provId": prov_id, "context": {"agent": f"{agent}{tag}"}}

    def approve(operator):
        return {"op": "approve", "tokenId": 1, "operator": operator.hex}

    def transfer(from_, to):
        return {"op": "transfer", "tokenId": 1, "from": from_.hex, "to": to.hex}

    if policy_name == "fee":
        ledger = quick_ledger(policy=fee_policy(price=2, initial_balance=20), capacity=20)
        paid = {"op": "requestToken", "payment": 2}
        prefix = [[(ALICE, paid)], [(BOB, paid)]]
        churn = [[(ALICE, paid)], [(BOB, paid)]]
    else:
        ledger = quick_ledger(policy=whitelist_policy(admin=CAROL, members=[ALICE]), capacity=20)
        prefix = [
            [(ALICE, REQUEST), (CAROL, {"op": "whitelistAdd", "member": BOB.hex})],
            [(BOB, REQUEST)],
        ]
        churn = [
            [(CAROL, {"op": "whitelistRemove", "member": BOB.hex})],
            [(CAROL, {"op": "whitelistAdd", "member": BOB.hex})],
        ]
    blocks = prefix + [[(ALICE, create_payload(agent=agent))] * 3]
    for round_ in range(4):
        blocks.append(
            [(ALICE, update(prov_id, round_)) for prov_id in (1, 2, 3)]
            + [(ALICE, approve((BOB, CAROL, MALLORY, BOB)[round_]))]
            + churn[round_ % 2]
        )
    blocks += [
        [(ALICE, {"op": "invalidate", "provId": 1}), (ALICE, update(2, "x"))],
        [(ALICE, update(3, 3))],
        [(ALICE, transfer(ALICE, BOB))],
        [(BOB, approve(CAROL)), (BOB, approve(MALLORY)), (BOB, approve(CAROL))],
        [(BOB, transfer(BOB, ALICE))],
        [(ALICE, transfer(ALICE, ALICE))],
        [(ALICE, approve(BOB)), (ALICE, {"op": "invalidate", "provId": 2})],
        [(ALICE, transfer(ALICE, ALICE)), (ALICE, update(3, 3))],
    ]
    for block in blocks:
        for sender, payload in block:
            ledger.submit_payload(sender, payload)
        produced, outcomes = ledger.produce_block()
        assert all(outcome.ok for outcome in outcomes), [o.status for o in outcomes]
        yield ledger, produced


@pytest.mark.parametrize("policy_name", ["fee", "whitelist"])
def test_held_leaves_match_the_oracle_past_the_bound(policy_name, monkeypatch):
    """With room for only two held leaves, evictions are frequent; every
    block's digest still equals the json-and-hashlib oracle's."""
    monkeypatch.setattr(statehash, "HELD_LEAVES", 2)
    for ledger, block in rewrite_schedule(policy_name):
        assert block.state_digest == naive_state_digest(ledger.state_snapshot())
        assert len(ledger._accumulator._held) <= 2
    assert len(ledger._accumulator._held) == 2


@pytest.mark.parametrize("policy_name", ["fee", "whitelist"])
def test_block_hashes_do_not_depend_on_the_held_leaves(policy_name, monkeypatch):
    held = [block.block_hash for _, block in rewrite_schedule(policy_name)]
    monkeypatch.setattr(statehash, "HELD_LEAVES", 0)
    unheld = []
    for ledger, block in rewrite_schedule(policy_name):
        assert not ledger._accumulator._held
        assert block.state_digest == naive_state_digest(ledger.state_snapshot())
        unheld.append(block.block_hash)
    assert unheld == held


def test_each_ledger_holds_its_own_leaves():
    """Two ledgers rewrite the same keys to different values, block by block
    in turn: each subtracts only leaves it added itself."""
    for (first, a), (second, b) in zip(
        rewrite_schedule("fee", agent="a"), rewrite_schedule("fee", agent="b")
    ):
        assert a.state_digest == naive_state_digest(first.state_snapshot())
        assert b.state_digest == naive_state_digest(second.state_snapshot())
        assert a.height == b.height
    assert a.state_digest != b.state_digest
    assert set(first._accumulator._held) == set(second._accumulator._held)


def test_block_production_and_replay_never_snapshot_the_state(tmp_path, monkeypatch):
    """Only writing a checkpoint snapshots the state: a load writing one
    does, once, after its replay. A load restoring one hashes the file's
    leaves as read and never does; nor do producing and replaying a block."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    snapshots = (
        (Ledger, "state_snapshot"),
        (RecordStore, "snapshot"),
        (TokenRegistry, "snapshot"),
        (PolicyLayer, "snapshot"),
    )
    for owner, name in snapshots + ((Ledger, "_append_block"),):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    rng = random.Random(5)
    ledger = quick_ledger(policy=FAILURE_POLICIES["fee"])
    clients = [ALICE, BOB, CAROL]
    for _ in range(40):
        for _ in range(3):
            payload = random_payload(rng, ledger, clients)
            ledger.submit_payload(plausible_sender(rng, ledger, payload, clients), payload)
        ledger.produce_block()
    directory = tmp_path / "ledger"
    ledger.persist(directory)
    assert load_ledger(directory, checkpoint=False).head == ledger.head
    assert calls == ["_append_block"] * 80
    calls.clear()
    assert load_ledger(directory).head == ledger.head
    assert calls[:40] == ["_append_block"] * 40
    assert sorted(calls[40:]) == sorted(name for _, name in snapshots)
    calls.clear()
    restored = load_ledger(directory)
    assert calls == []
    assert restored.state_snapshot() == ledger.state_snapshot()


def test_verify_recomputes_the_head_digest_from_scratch(tmp_path, monkeypatch):
    _, directory, _ = busy_chain(tmp_path)
    assert verify_chain(directory).ok
    # a store that never reports its writes: replay reproduces the logged
    # digests, but they are not the digests of the state
    real_init = RecordStore.__init__
    monkeypatch.setattr(
        RecordStore, "__init__", lambda self, key, on_write=None: real_init(self, key)
    )
    lossy, lossy_dir, _ = busy_chain(tmp_path / "lossy")
    assert load_ledger(lossy_dir).head == lossy.head
    result = verify_chain(lossy_dir)
    assert not result.ok
    assert result.first_corrupt_height == lossy.height
    assert "from-scratch" in result.reason
