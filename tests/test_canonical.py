"""Canonical JSON: the prebuilt encoder, its fallback, the transaction text
written around a payload and the block line written from those texts, each
against the naive oracle."""

from __future__ import annotations

import json
from json import encoder as json_encoder

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provledger import Block, ClientId, Transaction
from provledger.canonical import canonical_json, make_canonical_json
from provledger.ledger import BLOCKS_FILE, OPS
from oracles import naive_canonical
from support import ALICE, BOB, CAROL, quick_ledger

WIDE = 2**200
# texts that JSON escapes or that lie outside ASCII, which the encoder keeps
TRICKY_TEXTS = ["", "é", "naïve °C", "\u2028", '"\\/', "\x00\x1f\x7f", "\b\f\n\r\t", "😀"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-WIDE, max_value=WIDE)
    | st.floats()
    | st.sampled_from([0.0, -0.0, 1.5, 1e300, 5e-324])
    | st.text()
    | st.sampled_from(TRICKY_TEXTS)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)

NO_C_ENCODER = json_encoder.c_make_encoder is None
encoders = pytest.mark.parametrize(
    "encode",
    [
        pytest.param(canonical_json, id="module"),
        pytest.param(
            None if NO_C_ENCODER else make_canonical_json(json_encoder.c_make_encoder),
            id="prebuilt",
            marks=pytest.mark.skipif(NO_C_ENCODER, reason="this Python has no C JSON encoder"),
        ),
        pytest.param(make_canonical_json(None), id="fallback"),
    ],
)


@encoders
@settings(max_examples=200, deadline=None)
@given(value=json_values)
def test_canonical_json_matches_the_oracle(encode, value):
    assert encode(value) == naive_canonical(value)


@encoders
def test_an_unencodable_value_leaves_the_encoder_usable(encode):
    """A failed call leaves nothing behind: an encoder sharing one markers
    dict between calls would still hold ``value``'s id and report it as a
    circular reference."""
    value = {"a": [1, 2], "b": object()}
    with pytest.raises(TypeError, match="not JSON serializable"):
        encode(value)
    value["b"] = value["a"]
    assert encode(value) == '{"a":[1,2],"b":[1,2]}'


uints = st.integers(min_value=0, max_value=WIDE)
addresses = st.binary(min_size=32, max_size=32).map(lambda raw: "0x" + raw.hex())
contexts = st.dictionaries(
    st.text(min_size=1, max_size=8), st.text(max_size=8) | st.sampled_from(TRICKY_TEXTS), max_size=4
)
FIELD_VALUES = {
    "payment": uints,
    "tokenId": uints,
    "provId": uints,
    "from": addresses,
    "to": addresses,
    "operator": addresses,
    "member": addresses,
    "inputs": st.lists(uints, max_size=4),
    "context": contexts,
}
payloads = st.one_of(
    [
        st.fixed_dictionaries(
            {"op": st.just(op), **{name: FIELD_VALUES[name] for name in operation.fields}}
        )
        for op, operation in sorted(OPS.items())
    ]
)
senders = st.binary(min_size=32, max_size=32).filter(any).map(ClientId)


def test_payload_strategy_covers_every_op():
    assert len(OPS) == 8
    assert {name for operation in OPS.values() for name in operation.fields} == set(FIELD_VALUES)


@settings(max_examples=300, deadline=None)
@given(sender=senders, nonce=uints, payload=payloads, fee=uints, submitted_at=uints)
def test_hashed_text_matches_the_oracle(sender, nonce, payload, fee, submitted_at):
    plain = {
        "fee": fee,
        "nonce": nonce,
        "payload": payload,
        "sender": sender.hex,
        "submittedAt": submitted_at,
    }
    text = Transaction.hashed_text(sender, nonce, canonical_json(payload), fee, submitted_at)
    assert text == naive_canonical(plain)
    tx = Transaction.build(sender, nonce, payload, fee, submitted_at)
    assert tx.payload_text == naive_canonical(payload)
    parsed = Transaction.from_wire(tx.wire_dict())
    assert parsed == tx
    assert parsed.wire_text() == naive_canonical({**plain, "hash": tx.hash})


hashes = st.binary(min_size=32, max_size=32).map(bytes.hex)
transactions = st.builds(Transaction.build, senders, uints, payloads, uints, uints)


@settings(max_examples=200, deadline=None)
@given(
    height=uints,
    parent_hash=hashes,
    timestamp=uints,
    txs=st.lists(transactions, max_size=4),
    state_digest=hashes,
    data=st.data(),
)
def test_block_line_matches_the_oracle(height, parent_hash, timestamp, txs, state_digest, data):
    results = data.draw(
        st.lists(
            st.text(min_size=1, max_size=8) | st.sampled_from(TRICKY_TEXTS[1:]),
            min_size=len(txs),
            max_size=len(txs),
        )
    )
    block = Block.seal(height, parent_hash, timestamp, tuple(txs), tuple(results), state_digest)
    for tx in block.transactions:
        assert tx.wire_text() == naive_canonical(tx.wire_dict())
    line = block.wire_line()
    assert line == naive_canonical(block.wire_dict())
    assert Block.from_wire(json.loads(line), line) == block


def test_every_persisted_line_matches_the_oracle(tmp_path):
    """A ledger persisted through ``produce_block`` writes every line, with
    each op and escaped context values, as the oracle encodes its parse."""
    ledger = quick_ledger()
    steps = [
        (ALICE, {"op": "requestToken", "payment": 0}),
        (ALICE, {"op": "createProvenance", "tokenId": 1, "inputs": [],
                 "context": {"agent": 'é "q" \\ \x00\x1f 😀', "unit": "°C\n"}}),
        (ALICE, {"op": "updateContext", "provId": 1, "context": {"agent": "\u2028\t\x7f"}}),
        (ALICE, {"op": "approve", "tokenId": 1, "operator": BOB.hex}),
        (BOB, {"op": "transfer", "tokenId": 1, "from": ALICE.hex, "to": CAROL.hex}),
        (CAROL, {"op": "invalidate", "provId": 1}),
        (ALICE, {"op": "whitelistAdd", "member": BOB.hex}),
        (ALICE, {"op": "whitelistRemove", "member": BOB.hex}),
    ]
    for sender, payload in steps:
        ledger.submit_payload(sender, payload)
        ledger.produce_block()
        ledger.persist(tmp_path)
    # split as bytes: str.splitlines also splits at "\u2028" and "\x1f"
    lines = [raw.decode("utf-8") for raw in (tmp_path / BLOCKS_FILE).read_bytes().splitlines()]
    assert len(lines) == 1 + len(steps)
    assert all(line == naive_canonical(json.loads(line)) for line in lines)
    logged_ops = {tx["payload"]["op"] for line in lines for tx in json.loads(line)["transactions"]}
    assert logged_ops == set(OPS)
