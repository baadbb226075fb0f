"""Canonical JSON: the prebuilt encoder, its fallback and the transaction
text written around a payload, each against the naive oracle."""

from __future__ import annotations

from json import encoder as json_encoder

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provledger import ClientId, Transaction
from provledger.canonical import canonical_json, make_canonical_json
from provledger.ledger import OPS
from oracles import naive_canonical

WIDE = 2**200

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-WIDE, max_value=WIDE)
    | st.floats()
    | st.sampled_from([0.0, -0.0, 1.5, 1e300, 5e-324])
    | st.text()
    | st.sampled_from(["", "é", "naïve °C", " ", '"\\/', "\x00\x1f\x7f", "\b\f\n\r\t", "😀"])
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
contexts = st.dictionaries(st.text(min_size=1, max_size=8), st.text(max_size=8), max_size=4)
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
    text = Transaction.hashed_text(sender, nonce, payload, fee, submitted_at)
    assert text == naive_canonical(plain)
    tx = Transaction.build(sender, nonce, payload, fee, submitted_at)
    parsed, wire_text = Transaction._from_wire(tx.wire_dict())
    assert parsed == tx
    assert wire_text == naive_canonical({**plain, "hash": tx.hash})
