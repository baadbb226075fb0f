"""The encoder of checked values (``checked_json``) against the stdlib oracle:
over the float-free values it is given, on every call of a seeded chain's
production, persist, load and verify, and where it falls back to the stdlib
encoder (integers wider than 64 bits, lone surrogates, unknown types), and
integers too long to have a text at all."""

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
from provledger.canonical import checked_json
from provledger.errors import MalformedPayloadError
from provledger.ledger import BLOCKS_FILE
from oracles import naive_canonical
from support import ALICE, BOB, CAROL, MALLORY
from test_canonical import TRICKY_TEXTS

WIDE = 2**200
# keys on both sides of the surrogate block and of the BMP's end, where a sort
# by UTF-16 code units would differ from one by code points
BOUNDARY_KEYS = ["z", "퟿", "", "￿", "\U00010000", "\U0001f600", "\U0010ffff"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-WIDE, max_value=WIDE)
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
    assert checked_json(value) == stdlib_bytes(value)


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
    ],
    ids=["u64 + 1", "i64 - 1", "wide in a list", "int key", "int subclass", "str subclass"],
)
def test_what_orjson_refuses_falls_back_to_the_stdlib_encoding(value):
    with pytest.raises(TypeError):
        orjson.dumps(value, option=orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_SUBCLASS)
    assert checked_json(value) == stdlib_bytes(value)


def test_a_fallback_raises_what_the_stdlib_raises():
    with pytest.raises(UnicodeEncodeError):
        checked_json({"agent": "\ud800"})
    with pytest.raises(TypeError, match="not JSON serializable"):
        checked_json({"a": object()})
    with pytest.raises(TypeError, match="not JSON serializable"):
        checked_json({"a": bytes(2)})


# --- every call of a chain's life, wrapped -------------------------------------

SCHEMA = ContextSchema(
    name="differential",
    required=frozenset({"agent"}),
    optional=frozenset(BOUNDARY_KEYS + ["é", "unit"]),
)


def seeded_chain(directory, seed: int, wide: bool) -> Ledger:
    """A persisted chain of every op drawn from ``random.Random(seed)``,
    mostly on the sender's own tokens, with contexts of escaped and non-BMP
    text; ``wide`` puts integers over 64 bits into balances, the treasury,
    fees, payments and timestamps."""
    rng = random.Random(seed)
    base = 2**64 if wide else 0
    policy = UseCasePolicy(
        schema=SCHEMA,
        assignment=AssignmentStrategy("fee", price=base + 5, initial_balance=base * 9 + 50),
    )
    ledger = Ledger(policy, SimConfig(block_interval_ms=base + 1000, block_capacity=5))
    tokens, records = ledger.machine.tokens, ledger.machine.provenance.records
    clients = [ALICE, BOB, CAROL, MALLORY]
    texts = TRICKY_TEXTS + ["café", "°C"]
    for _ in range(40):
        for _ in range(rng.randint(0, 5)):
            sender, other = rng.sample(clients, 2)
            owned = [t for t in tokens.token_ids() if tokens.owner_of(t) == sender]
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
                "requestToken": {"payment": base + rng.randint(4, 9)},
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
            ledger.submit_payload(sender, {"op": op, **payload}, fee=base + rng.randint(1, 4))
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
    # a number of 20 digits or more lies outside orjson's 64 bits
    assert any(re.search(rb"[:,\[]\d{20}", data) for data in calls) is wide


# --- integers over 64 bits ------------------------------------------------------

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
    """A fee, payment, submission time, block time, balance and treasury of
    2**64 or more are legal: they are hashed as the stdlib encodes them, and
    the chain reloads and verifies."""
    price = 2**64
    policy = UseCasePolicy(
        schema=SCHEMA, assignment=AssignmentStrategy("fee", price=price, initial_balance=3 * price)
    )
    ledger = Ledger(policy, SimConfig(block_interval_ms=2**64, block_capacity=5))
    tx = ledger.submit_payload(
        ALICE, {"op": "requestToken", "payment": price + 1}, fee=2**70, submitted_at=2**64
    )
    block, outcomes = ledger.produce_block()
    assert outcomes[0].ok and block.timestamp == 2**64
    assert ledger.machine.balance_of(ALICE) == ledger.machine.treasury * 2 == 2**65
    assert tx.hash == stdlib_tx_hash(tx)
    directory = tmp_path / "ledger"
    ledger.persist(directory)
    loaded = load_ledger(directory)
    assert loaded.head == ledger.head
    assert loaded.state_snapshot() == ledger.state_snapshot()
    assert verify_chain(directory).ok is True
    # why a line that orjson parses is read again with json.loads when its
    # value is not a block: orjson reads such a number as a float
    line = (directory / BLOCKS_FILE).read_bytes().splitlines()[1]
    assert json.loads(line)["transactions"][0]["fee"] == 2**70
    assert orjson.loads(b'{"a":18446744073709551616}') == {"a": 1.8446744073709552e19}


def test_a_nonce_over_64_bits_is_hashed_as_the_stdlib_encodes_it():
    """A sender reaches such a nonce only after as many transactions, so it
    is checked on the transaction alone."""
    tx = Transaction.build(ALICE, 2**64 + 3, {"op": "requestToken", "payment": 2**64}, 2**65, 2**66)
    assert tx.hash == stdlib_tx_hash(tx)
    assert tx.payload_text == naive_canonical(tx.payload)
    assert Transaction.from_wire(json.loads(tx.wire_text())) == tx


# the smallest integer whose text exceeds the interpreter's int-to-text limit
OVER_DIGIT_LIMIT = 10 ** sys.get_int_max_str_digits()


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-to-text digit limit")
@pytest.mark.parametrize("field", ["payment", "fee", "nonce", "submittedAt"])
def test_an_integer_over_the_digit_limit_is_a_malformed_payload(field):
    """Such an integer has no JSON text: the payload encoder or the
    transaction text raises ``ValueError``, which the build reports."""
    ledger = Ledger(UseCasePolicy(schema=SCHEMA), SimConfig(block_interval_ms=1000, block_capacity=5))
    fields = {"payment": 0, "fee": 1, "nonce": None, "submittedAt": None, field: OVER_DIGIT_LIMIT}
    with pytest.raises(MalformedPayloadError, match="^transaction is not encodable: Exceeds"):
        ledger.build_transaction(
            ALICE,
            {"op": "requestToken", "payment": fields["payment"]},
            fee=fields["fee"],
            nonce=fields["nonce"],
            submitted_at=fields["submittedAt"],
        )
    assert ledger.build_transaction(ALICE, {"op": "requestToken", "payment": WIDE}, fee=WIDE)
