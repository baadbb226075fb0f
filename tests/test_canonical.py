"""Canonical JSON: the stdlib encoder behind ``canonical_json``, the
transaction text written around a payload and the block line written from
those texts, each against the naive oracle; and the traffic that keeps
``canonical_json`` a plain stdlib encoder: a fixed number of calls per
load or verify, none per block. ``checked_json``, the orjson encoder of
hashed values, has its own tests in ``test_checked_encoder``."""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provledger import Block, ClientId, Transaction, load_ledger, verify_chain
from provledger import canonical
from provledger import ledger as ledger_module
from provledger.canonical import canonical_json
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


@settings(max_examples=200, deadline=None)
@given(value=json_values)
def test_canonical_json_matches_the_oracle(value):
    assert canonical_json(value) == naive_canonical(value)


def test_an_unencodable_value_leaves_the_encoder_usable():
    """A failed call leaves nothing behind: an encoder sharing one markers
    dict between calls would still hold ``value``'s id and report it as a
    circular reference."""
    value = {"a": [1, 2], "b": object()}
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_json(value)
    value["b"] = value["a"]
    assert canonical_json(value) == '{"a":[1,2],"b":[1,2]}'


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
    tx = Transaction(sender, nonce, payload, fee, submitted_at)
    assert tx.payload_text == naive_canonical(payload)
    parsed = Transaction.from_wire(tx.wire_dict())
    assert parsed == tx
    assert parsed.wire_text() == naive_canonical({**plain, "hash": tx.hash})


hashes = st.binary(min_size=32, max_size=32).map(bytes.hex)
transactions = st.builds(Transaction, senders, uints, payloads, uints, uints)


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


# --- the traffic canonical_json serves -----------------------------------------

@pytest.fixture
def canonical_calls(monkeypatch) -> list:
    """Every value encoded through ``canonical_json``, wrapped in each
    ``provledger`` module that holds it, the defining one included."""
    calls = []

    def counted(value):
        calls.append(value)
        return canonical_json(value)

    patched = [
        module
        for name, module in sys.modules.items()
        if (name == "provledger" or name.startswith("provledger."))
        and getattr(module, "canonical_json", None) is canonical_json
    ]
    assert canonical in patched and ledger_module in patched
    for module in patched:
        monkeypatch.setattr(module, "canonical_json", counted)
    return calls


def chain_with_transactions(directory, blocks: int):
    """A persisted ledger of ``blocks`` blocks after genesis, each holding a
    transaction; bound to ``directory``."""
    ledger = quick_ledger()
    ledger.submit_payload(ALICE, {"op": "requestToken", "payment": 0})
    ledger.produce_block()
    for i in range(blocks - 1):
        ledger.submit_payload(
            ALICE,
            {"op": "createProvenance", "tokenId": 1, "inputs": [], "context": {"agent": f"a{i}"}},
        )
        ledger.produce_block()
    ledger.persist(directory)
    return ledger


def test_load_and_verify_encode_through_canonical_json_a_fixed_number_of_times(
    tmp_path, canonical_calls
):
    """Only the policy digest, the config digest and the genesis line go
    through ``canonical_json`` on a load: a per-block or per-transaction
    value there would make the count grow with the chain."""
    counts = {}
    for blocks in (3, 30):
        directory = tmp_path / str(blocks)
        chain_with_transactions(directory, blocks)
        canonical_calls.clear()
        load_ledger(directory)
        loaded = len(canonical_calls)
        canonical_calls.clear()
        assert verify_chain(directory).ok is True
        counts[blocks] = (loaded, len(canonical_calls))
    assert counts[3] == counts[30]
    assert counts[3][0] > 0  # the wrapper sees the calls


def test_producing_and_persisting_blocks_never_calls_canonical_json(tmp_path, canonical_calls):
    ledger = chain_with_transactions(tmp_path / "ledger", 3)
    canonical_calls.clear()
    for i in range(5):
        ledger.submit_payload(
            ALICE,
            {"op": "createProvenance", "tokenId": 1, "inputs": [1], "context": {"agent": f"b{i}"}},
        )
        ledger.produce_block()
        ledger.persist(tmp_path / "ledger")
    assert ledger.height == 8
    assert canonical_calls == []
