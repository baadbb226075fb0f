"""The encoder of checked values (``checked_json``) against the stdlib oracle:
over the float-free values within 64 bits it is given, and on every call of
a seeded chain's production, persist, load and verify. What it refuses
(integers outside 64 bits, lone surrogates, unknown types) is refused, and
2**64 is refused in every checked transaction field and on a log line (the
config bounds are in ``test_ledger``'s ``CONFIGS``). Only the state's sums,
``treasury`` and ``seededTotal``, may pass 64 bits; they are not encoded by
it."""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys

import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provledger import (
    AssignmentStrategy,
    ContextSchema,
    Ledger,
    SimConfig,
    Transaction,
    UseCasePolicy,
    load_ledger,
    verify_chain,
)
from provledger import canonical, statehash
from provledger import ledger as ledger_module
from provledger.canonical import UINT64_MAX, canonical_json, checked_json
from provledger.errors import MalformedPayloadError
from provledger.ledger import BLOCKS_FILE
from oracles import naive_canonical, naive_state_digest
from support import ALICE, BOB, CAROL, MALLORY, quick_ledger
from test_canonical import TRICKY_TEXTS
from test_ledger import relinked, resealed_fee, varied_chain

WIDE = 2**200
# keys on both sides of the surrogate block and of the BMP's end, where a sort
# by UTF-16 code units would differ from one by code points
BOUNDARY_KEYS = ["z", "퟿", "", "￿", "\U00010000", "\U0001f600", "\U0010ffff"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=0, max_value=UINT64_MAX)
    | st.sampled_from([UINT64_MAX, 2**63, 2**63 - 1, 2**32])
    | st.text()
    | st.sampled_from(TRICKY_TEXTS)
)
keys = st.text(max_size=6) | st.sampled_from(TRICKY_TEXTS + BOUNDARY_KEYS)
checked_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(keys, children, max_size=5),
    max_leaves=20,
)


def stdlib_bytes(value) -> bytes:
    return naive_canonical(value).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(value=checked_values)
def test_checked_json_matches_the_oracle(value):
    assert checked_json(value) == canonical_json(value).encode("utf-8") == stdlib_bytes(value)


def test_keys_sort_by_code_point():
    value = {key: index for index, key in enumerate(reversed(BOUNDARY_KEYS))}
    assert checked_json(value) == stdlib_bytes(value)
    assert list(json.loads(checked_json(value))) == BOUNDARY_KEYS


class Count(int):
    pass


class Name(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        2**64,
        -(2**63) - 1,
        [WIDE, {"a": -WIDE}],
        {2: "a", 1: "b"},
        Count(7),
        {Name("k"): Name("v")},
        {"agent": "\ud800"},
        {"a": object()},
        {"a": bytes(2)},
    ],
    ids=[
        "u64 + 1", "i64 - 1", "wide in a list", "int key", "int subclass", "str subclass",
        "lone surrogate", "object", "bytes",
    ],
)
def test_what_orjson_refuses_is_refused(value):
    """No value a check accepts holds one of these, so nothing falls back to
    another encoder."""
    with pytest.raises(orjson.JSONEncodeError):
        checked_json(value)


# --- every call of a chain's life, wrapped -------------------------------------

SCHEMA = ContextSchema(
    name="differential",
    required=frozenset({"agent"}),
    optional=frozenset(BOUNDARY_KEYS + ["é", "unit"]),
)


def seeded_chain(directory, seed: int, wide: bool) -> Ledger:
    """A persisted chain of every op drawn from ``random.Random(seed)``,
    mostly on the sender's own tokens, with contexts of escaped and non-BMP
    text; ``wide`` puts integers near 2**64 - 1 into balances, fees,
    payments and timestamps, and so a treasury and a seeded total over it."""
    rng = random.Random(seed)
    price = 2**62 if wide else 5
    policy = UseCasePolicy(
        schema=SCHEMA,
        assignment=AssignmentStrategy(
            "fee", price=price, initial_balance=UINT64_MAX if wide else 50
        ),
    )
    interval = 2**58 if wide else 1000  # 40 blocks stay within 64 bits
    ledger = Ledger(policy, SimConfig(block_interval_ms=interval, block_capacity=5))
    tokens, records = ledger.machine.tokens, ledger.machine.provenance.records
    clients = [ALICE, BOB, CAROL, MALLORY]
    texts = TRICKY_TEXTS + ["café", "°C"]
    for _ in range(40):
        for _ in range(rng.randint(0, 5)):
            sender, other = rng.sample(clients, 2)
            owned = [t for t in range(1, ledger.machine.next_token_id) if tokens.owner_of(t) == sender]
            token = rng.choice(owned) if owned and rng.random() < 0.9 else rng.randint(1, 9)
            record = rng.randint(1, records.record_count() + 1)
            context = {"agent": rng.choice(texts)}
            for key in rng.sample(sorted(SCHEMA.optional), rng.randint(0, 3)):
                context[key] = rng.choice(texts)
            op = rng.choices(
                ["requestToken", "createProvenance", "updateContext", "invalidate", "approve",
                 "transfer", "whitelistAdd", "whitelistRemove"],
                weights=[4, 8, 3, 1, 2, 2, 1, 1],
            )[0]
            payload = {
                "requestToken": {"payment": price + rng.randint(-1, 4)},
                "createProvenance": {
                    "tokenId": token,
                    "inputs": sorted(rng.sample(range(1, record), min(record - 1, 2))),
                    "context": context,
                },
                "updateContext": {"provId": record, "context": context},
                "invalidate": {"provId": record},
                "approve": {"tokenId": token, "operator": other.hex},
                "transfer": {"tokenId": token, "from": sender.hex, "to": other.hex},
                "whitelistAdd": {"member": other.hex},
                "whitelistRemove": {"member": other.hex},
            }[op]
            fee = UINT64_MAX - rng.randint(0, 3) if wide else rng.randint(1, 4)
            ledger.submit_payload(sender, {"op": op, **payload}, fee=fee)
        ledger.produce_block()
        if rng.random() < 0.3:
            ledger.persist(directory)
    ledger.persist(directory)
    return ledger


@pytest.mark.parametrize("seed, wide", [(1, False), (2, False), (3, True)])
def test_every_checked_encoding_of_a_chain_matches_the_oracle(tmp_path, monkeypatch, seed, wide):
    """Every call made while a seeded chain is produced, persisted, loaded
    and verified gives the stdlib's bytes."""
    calls = []

    def checked(value):
        data = checked_json(value)
        assert data == stdlib_bytes(value), value
        calls.append(data)
        return data

    # each module that encodes through it, whatever its sites
    patched = [
        module
        for name, module in sys.modules.items()
        if name.startswith("provledger.")
        and module is not canonical
        and getattr(module, "checked_json", None) is checked_json
    ]
    assert statehash in patched and ledger_module in patched
    for module in patched:
        monkeypatch.setattr(module, "checked_json", checked)
    statehash._member_leaf.cache_clear()  # so that member leaves are encoded too

    ledger = seeded_chain(tmp_path / "ledger", seed, wide)
    produced = len(calls)
    loaded = load_ledger(tmp_path / "ledger")
    assert loaded.head == ledger.head
    assert loaded.state_snapshot() == ledger.state_snapshot()
    assert verify_chain(tmp_path / "ledger").ok is True
    # the load and the verify each encode about what production did
    assert produced > 100 and len(calls) > 2 * produced
    # a number of 20 digits lies near the 64-bit bound
    assert any(re.search(rb"[:,\[]\d{20}", data) for data in calls) is wide
    assert (ledger.machine.treasury > UINT64_MAX) is wide


# --- the 64-bit bound ------------------------------------------------------------

def stdlib_tx_hash(tx: Transaction) -> str:
    plain = {
        "fee": tx.fee,
        "nonce": tx.nonce,
        "payload": tx.payload,
        "sender": tx.sender.hex,
        "submittedAt": tx.submitted_at,
    }
    return hashlib.sha256(stdlib_bytes(plain)).hexdigest()


def test_integers_over_64_bits_persist_reload_and_verify(tmp_path):
    """The treasury and the seeded total, sums that pass 2**64 although each
    price and balance is within it, are hashed as the stdlib encodes them,
    and the chain reloads and verifies; every other integer is 2**64 - 1."""
    policy = UseCasePolicy(
        schema=SCHEMA,
        assignment=AssignmentStrategy("fee", price=UINT64_MAX, initial_balance=UINT64_MAX),
    )
    ledger = Ledger(policy, SimConfig(block_interval_ms=UINT64_MAX, block_capacity=5))
    txs = [
        ledger.submit_payload(
            client, {"op": "requestToken", "payment": UINT64_MAX}, fee=UINT64_MAX,
            submitted_at=UINT64_MAX,
        )
        for client in (ALICE, BOB, CAROL, MALLORY)
    ]
    block, outcomes = ledger.produce_block()
    assert all(outcome.ok for outcome in outcomes) and block.timestamp == UINT64_MAX
    assert ledger.machine.treasury == ledger.machine.seeded_total == 4 * UINT64_MAX
    assert all(tx.hash == stdlib_tx_hash(tx) for tx in txs)
    assert block.state_digest == naive_state_digest(ledger.state_snapshot())
    directory = tmp_path / "ledger"
    ledger.persist(directory)
    loaded = load_ledger(directory)
    assert loaded.head == ledger.head
    assert loaded.state_snapshot() == ledger.state_snapshot()
    assert verify_chain(directory).ok is True
    line = (directory / BLOCKS_FILE).read_bytes().splitlines()[1]
    assert orjson.loads(line)["transactions"][0]["fee"] == UINT64_MAX


def request(field: str, value: int) -> dict:
    """The build arguments of a ``requestToken`` (or, for ``tokenId``,
    ``provId`` and ``inputs``, another op) with ``field`` set to ``value``."""
    payload = {
        "payment": {"op": "requestToken", "payment": value},
        "tokenId": {"op": "approve", "tokenId": value, "operator": BOB.hex},
        "provId": {"op": "invalidate", "provId": value},
        "inputs": {"op": "createProvenance", "tokenId": 1, "inputs": [value], "context": {}},
    }.get(field, {"op": "requestToken", "payment": 0})
    fields = {"fee": 1, "nonce": None, "submitted_at": None}
    if field in fields:
        fields[field] = value
    return {"payload": payload, **fields}


CHECKED_FIELDS = ["payment", "tokenId", "provId", "inputs", "fee", "nonce", "submitted_at"]


@pytest.mark.parametrize("field", CHECKED_FIELDS)
def test_2_to_the_64_is_refused_in_every_checked_field(field):
    label = {"inputs": "input id", "submitted_at": "submittedAt"}.get(field, field)
    ledger = quick_ledger()
    ledger.build_transaction(ALICE, **request(field, UINT64_MAX))
    message = f"^{label} must be an unsigned 64-bit integer$"
    with pytest.raises(MalformedPayloadError, match=message):
        ledger.build_transaction(ALICE, **request(field, 2**64))


@pytest.mark.parametrize("fee", [2**64, 2**70])
def test_2_to_the_64_is_refused_as_a_log_value(tmp_path, fee):
    """A log line whose transaction's fee is over 64 bits, with every hash
    computed again, fails at its height: orjson reads the fee as a float."""
    path = varied_chain(tmp_path / "ledger")
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = resealed_fee(fee)(lines[1])
    path.write_text("".join(line + "\n" for line in relinked(lines, 1)), encoding="utf-8")
    assert verify_chain(path.parent).as_dict() == {
        "ok": False, "firstCorruptHeight": 1, "reason": "fee must be an unsigned 64-bit integer"
    }


# the smallest integer whose text exceeds the interpreter's int-to-text limit
OVER_DIGIT_LIMIT = 10 ** sys.get_int_max_str_digits()


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-to-text digit limit")
@pytest.mark.parametrize("field", ["payment", "fee", "nonce", "submittedAt"])
def test_an_integer_over_the_digit_limit_is_a_malformed_payload(field):
    """Such an integer has no JSON text; it is refused by the 64-bit bound
    before anything would write it."""
    ledger = Ledger(UseCasePolicy(schema=SCHEMA), SimConfig(block_interval_ms=1000, block_capacity=5))
    fields = {"payment": 0, "fee": 1, "nonce": None, "submittedAt": None, field: OVER_DIGIT_LIMIT}
    message = f"^{field} must be an unsigned 64-bit integer$"
    with pytest.raises(MalformedPayloadError, match=message):
        ledger.build_transaction(
            ALICE,
            {"op": "requestToken", "payment": fields["payment"]},
            fee=fields["fee"],
            nonce=fields["nonce"],
            submitted_at=fields["submittedAt"],
        )
    assert ledger.build_transaction(
        ALICE, {"op": "requestToken", "payment": UINT64_MAX}, fee=UINT64_MAX
    )
