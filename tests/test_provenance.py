"""Generic provenance layer: creation workflow, associations, DAG shape."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provledger import Context, RecordStatus, RecordStore
from provledger.errors import (
    InvalidInputError,
    NotAuthorizedError,
    PolicyForbiddenError,
    RecordInvalidatedError,
    RecordNotFoundError,
    TokenNotFoundError,
)
from oracles import export_records, topological_order, random_dag_plan
from support import ALICE, BOB, CAROL, layer, open_policy


def vaccine_chain(stack):
    """The three-step cold-chain lineage used throughout the tests."""
    token = stack.request_token(ALICE)
    p1 = stack.provenance.create_provenance(
        ALICE, token, [], Context({"agent": "operator1@SaferVaccinesInc", "time": "5am"})
    )
    p2 = stack.provenance.create_provenance(
        ALICE, token, [p1], Context({"agent": "rfid1@SaferVaccinesInc", "time": "5am"})
    )
    p3 = stack.provenance.create_provenance(
        ALICE, token, [p2], Context({"agent": "rfid1@air1", "time": "5am"})
    )
    return token, (p1, p2, p3)


def test_lineage_creation_returns_fresh_ids(stack):
    token, (p1, p2, p3) = vaccine_chain(stack)
    assert (p1, p2, p3) == (1, 2, 3)
    assert stack.provenance.get_associated_provenance(token) == [p1, p2, p3]


def test_unauthorized_creation_raises(stack):
    token = stack.request_token(ALICE)
    with pytest.raises(NotAuthorizedError):
        stack.provenance.create_provenance(BOB, token, [], Context({"agent": "b"}))


def test_approved_client_may_create(stack):
    token = stack.request_token(ALICE)
    stack.tokens.approve(ALICE, BOB, token)
    prov_id = stack.provenance.create_provenance(BOB, token, [], Context({"agent": "b"}))
    assert stack.provenance.records.get_record(prov_id).token_id == token


def test_missing_token(stack):
    with pytest.raises(TokenNotFoundError):
        stack.provenance.create_provenance(ALICE, 99, [], Context())


def test_invalidated_input_rejected(stack):
    token = stack.request_token(ALICE)
    q = stack.provenance.create_provenance(ALICE, token, [], Context({"agent": "a"}))
    stack.provenance.invalidate_provenance(ALICE, q)
    with pytest.raises(InvalidInputError):
        stack.provenance.create_provenance(ALICE, token, [q], Context({"agent": "b"}))
    # the invalidated record stays readable
    assert stack.provenance.records.get_record(q).status is RecordStatus.INVALIDATED


def test_missing_input_rejected(stack):
    token = stack.request_token(ALICE)
    with pytest.raises(InvalidInputError):
        stack.provenance.create_provenance(ALICE, token, [42], Context())


def test_duplicate_inputs_rejected(stack):
    token = stack.request_token(ALICE)
    p1 = stack.provenance.create_provenance(ALICE, token, [], Context())
    with pytest.raises(InvalidInputError):
        stack.provenance.create_provenance(ALICE, token, [p1, p1], Context())


def test_four_sensor_derivation(stack):
    """Average of three sensor readings: cross-token inputs are permitted."""
    sensors = []
    for reading, time in (("38F", "7am"), ("45F", "8am"), ("40F", "9am")):
        token = stack.request_token(ALICE)
        sensors.append(
            stack.provenance.create_provenance(
                ALICE, token, [], Context({"agent": "sensor", "time": time, "value": reading})
            )
        )
    # 41 = (38 + 45 + 40) / 3; the averaging agent owns a different token
    average_token = stack.request_token(BOB)
    average = stack.provenance.create_provenance(
        BOB,
        average_token,
        sensors,
        Context({"agent": "averager@air1", "time": "10am", "value": "41F"}),
    )
    record = stack.provenance.records.get_record(average)
    assert record.input_ids == tuple(sensors)
    assert record.context.get("value") == "41F"


def test_association_empty_and_missing(stack):
    token = stack.request_token(ALICE)
    assert stack.provenance.get_associated_provenance(token) == []
    with pytest.raises(TokenNotFoundError):
        stack.provenance.get_associated_provenance(42)


def test_parallel_traces_survive_invalidation(stack):
    """Invalidating one trace leaves the other trace's history untouched."""
    token = stack.request_token(ALICE)
    temperature = stack.provenance.create_provenance(
        ALICE, token, [], Context({"agent": "sensor@air1", "temperature": "41F"})
    )
    location = stack.provenance.create_provenance(
        ALICE, token, [], Context({"agent": "gps1@air1", "location": "47N,11E"})
    )
    location2 = stack.provenance.create_provenance(
        ALICE, token, [location], Context({"agent": "gps1@air1", "location": "48N,16E"})
    )
    stack.provenance.invalidate_provenance(ALICE, temperature)
    assert stack.provenance.get_associated_provenance(token) == [
        temperature,
        location,
        location2,
    ]
    from provledger import lineage

    assert lineage(stack.provenance, location2) == [location, location2]


def test_link_and_trace_maps_are_read_only_live_views(stack):
    """A caller cannot corrupt ``lineage`` through the maps or the traces the
    layer hands out, and a map handed out earlier shows later creates."""
    from provledger import lineage

    token, (p1, p2, p3) = vaccine_chain(stack)
    parents = stack.provenance.same_token_parents
    record_traces = stack.provenance.record_traces
    for view in (parents, record_traces):
        with pytest.raises(TypeError):
            view[p3] = 0
        with pytest.raises(TypeError):
            del view[p3]
    (trace,) = stack.provenance.token_traces(token)
    assert trace == (p1, p2, p3)
    with pytest.raises(TypeError):
        trace[2] = p1  # type: ignore[index]
    with pytest.raises(AttributeError):
        trace.append(p1)  # type: ignore[attr-defined]
    assert lineage(stack.provenance, p3) == [p1, p2, p3]
    fork = stack.provenance.create_provenance(ALICE, token, [p2], Context({"agent": "a"}))
    assert parents[fork] == p2
    assert record_traces[fork] == [fork]
    assert record_traces[p1] == [p1, p2, p3]
    assert lineage(stack.provenance, fork) == [p1, p2, fork]


def test_update_and_invalidate_authorization(stack):
    token = stack.request_token(ALICE)
    prov_id = stack.provenance.create_provenance(ALICE, token, [], Context({"agent": "a"}))
    with pytest.raises(NotAuthorizedError):
        stack.provenance.update_provenance(BOB, prov_id, Context({"agent": "b"}))
    with pytest.raises(RecordNotFoundError):
        stack.provenance.update_provenance(ALICE, 77, Context())
    stack.provenance.update_provenance(ALICE, prov_id, Context({"agent": "b"}))
    assert stack.provenance.records.get_record(prov_id).context == Context({"agent": "b"})
    stack.provenance.invalidate_provenance(ALICE, prov_id)
    with pytest.raises(RecordInvalidatedError):
        stack.provenance.update_provenance(ALICE, prov_id, Context({"agent": "c"}))


def test_policy_gate_hides_invalidate():
    stack = layer(open_policy(allow_invalidate=False))
    token = stack.request_token(ALICE)
    prov_id = stack.provenance.create_provenance(ALICE, token, [], Context({"agent": "a"}))
    with pytest.raises(PolicyForbiddenError):
        stack.gate_invalidate(ALICE, prov_id)
    # owner invalidation under an exposing policy works
    stack2 = layer(open_policy())
    token2 = stack2.request_token(ALICE)
    p = stack2.provenance.create_provenance(ALICE, token2, [], Context({"agent": "a"}))
    stack2.gate_invalidate(ALICE, p)
    assert stack2.provenance.records.get_record(p).status is RecordStatus.INVALIDATED


def test_counter_freshness_across_tokens(stack):
    ids = []
    for client in (ALICE, BOB, CAROL):
        token = stack.request_token(client)
        for _ in range(3):
            ids.append(stack.provenance.create_provenance(client, token, [], Context()))
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_cross_trace_inputs_within_token(stack):
    """Inputs may reference a sibling parallel trace of the same token."""
    token = stack.request_token(ALICE)
    a = stack.provenance.create_provenance(ALICE, token, [], Context({"agent": "a"}))
    b = stack.provenance.create_provenance(ALICE, token, [], Context({"agent": "b"}))
    merged = stack.provenance.create_provenance(ALICE, token, [a, b], Context({"agent": "m"}))
    assert stack.provenance.records.get_record(merged).input_ids == (a, b)


# --- properties -----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_histories_are_acyclic_and_fully_associated(seed):
    rng = random.Random(seed)
    stack = layer(open_policy())
    token_count, steps = random_dag_plan(rng, max_records=60)
    tokens = [stack.request_token(ALICE) for _ in range(token_count)]
    created: list[int] = []
    for token_index, input_positions in steps:
        created.append(
            stack.provenance.create_provenance(
                ALICE,
                tokens[token_index],
                [created[i] for i in input_positions],
                Context({"agent": "gen"}),
            )
        )
    records = export_records(stack.provenance)
    assert topological_order(records) is not None
    # association completeness: every record appears under exactly its token
    seen: list[int] = []
    for token in tokens:
        for prov_id in stack.provenance.get_associated_provenance(token):
            assert records[prov_id]["tokenId"] == token
            seen.append(prov_id)
    assert sorted(seen) == sorted(records)


def test_each_precondition_looks_up_a_record_once(monkeypatch):
    """A create with k inputs reads each input once, for its checks and its
    same-token link alike; an update or an invalidate reads its record once."""
    stack = layer(open_policy())
    token = stack.request_token(ALICE)
    other = stack.request_token(ALICE)
    inputs = [stack.create_provenance_checked(ALICE, t, [], Context({"agent": "a"}))
              for t in (token, token, other)]
    calls = []
    real_get = RecordStore.get_record

    def counting(self, prov_id):
        calls.append(prov_id)
        return real_get(self, prov_id)

    monkeypatch.setattr(RecordStore, "get_record", counting)
    for k in range(len(inputs) + 1):
        calls.clear()
        stack.create_provenance_checked(ALICE, token, inputs[:k], Context({"agent": "m"}))
        assert calls == inputs[:k]
    calls.clear()
    stack.gate_update(ALICE, inputs[0], Context({"agent": "u"}))
    assert calls == [inputs[0]]
    calls.clear()
    stack.gate_invalidate(ALICE, inputs[0])
    assert calls == [inputs[0]]
