"""Records: the store and its global index, and the record status machine.

The store stores what it is handed; the provenance layer checks every record
precondition, so the status machine and the id rules are tested through it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provledger import Context, RecordStatus, RecordStore
from provledger.errors import (
    DuplicateProvenanceIdError,
    InvalidInputError,
    RecordInvalidatedError,
    RecordNotFoundError,
    TokenNotFoundError,
)
from support import ALICE, layer

KEY = object()


def store_with_key():
    return RecordStore(KEY), KEY


def record_ids(store):
    """The stored ids in insertion order, through the public snapshot."""
    return [item["id"] for item in store.snapshot()]


def provenance_with_record(context=Context({"agent": "a"})):
    """A provenance layer, ALICE's token, and one valid record of it."""
    stack = layer()
    token = stack.request_token(ALICE)
    provenance = stack.provenance
    return provenance, token, provenance.create_provenance(ALICE, token, [], context)


def mutate(provenance, operation, prov_id):
    if operation == "update":
        provenance.update_provenance(ALICE, prov_id, Context({"agent": "b"}))
    else:
        provenance.invalidate_provenance(ALICE, prov_id)


def test_create_then_get_roundtrips_all_fields():
    store, key = store_with_key()
    context = Context({"agent": "operator1@SaferVaccinesInc", "time": "5am"})
    index = store.create_record(key, 1, 1, [], context)
    assert index == 0
    record = store.get_record(1)
    assert record.id == 1
    assert record.token_id == 1
    assert record.input_ids == ()
    assert record.context == context
    assert record.index == 0
    assert record.status is RecordStatus.VALID


def test_create_returns_previous_record_count():
    store, key = store_with_key()
    assert store.create_record(key, 1, 1, [], Context({"agent": "a"})) == 0
    assert store.create_record(key, 2, 1, [1], Context({"agent": "b"})) == 1


def test_duplicate_id_rejected():
    store, key = store_with_key()
    store.create_record(key, 1, 1, [], Context())
    with pytest.raises(DuplicateProvenanceIdError):
        store.create_record(key, 1, 1, [], Context())


def test_get_missing_record():
    store, _ = store_with_key()
    with pytest.raises(RecordNotFoundError):
        store.get_record(999)


def test_get_is_pure():
    store, key = store_with_key()
    store.create_record(key, 1, 2, [], Context({"k": "v"}))
    first = store.get_record(1)
    second = store.get_record(1)
    assert first == second
    assert store.record_count() == 1


def test_update_context_replaces_whole_context():
    provenance, _, prov_id = provenance_with_record(Context({"agent": "a", "time": "5am"}))
    provenance.update_provenance(ALICE, prov_id, Context({"agent": "x"}))
    assert provenance.records.get_record(prov_id).context == Context({"agent": "x"})


def test_update_missing_record():
    provenance, _, prov_id = provenance_with_record()
    with pytest.raises(RecordNotFoundError):
        provenance.update_provenance(ALICE, prov_id + 1, Context())
    with pytest.raises(RecordNotFoundError):
        provenance.invalidate_provenance(ALICE, prov_id + 1)


def test_status_operation_matrix():
    # enumerate status x mutation: only a valid record permits mutation
    for operation in ("update", "invalidate"):
        # valid record: mutation succeeds
        provenance, _, prov_id = provenance_with_record()
        mutate(provenance, operation, prov_id)
        # invalidated record: every mutation is rejected and changes nothing
        provenance, _, prov_id = provenance_with_record()
        provenance.invalidate_provenance(ALICE, prov_id)
        before = provenance.records.get_record(prov_id)
        with pytest.raises(RecordInvalidatedError):
            mutate(provenance, operation, prov_id)
        assert provenance.records.get_record(prov_id) is before


def test_invalidate_keeps_record_readable():
    provenance, token, prov_id = provenance_with_record()
    provenance.invalidate_provenance(ALICE, prov_id)
    assert provenance.records.get_record(prov_id).status is RecordStatus.INVALIDATED
    assert provenance.records.record_count() == 1
    assert provenance.get_associated_provenance(token) == [prov_id]


def test_double_invalidation_rejected():
    provenance, _, prov_id = provenance_with_record()
    provenance.invalidate_provenance(ALICE, prov_id)
    with pytest.raises(RecordInvalidatedError):
        provenance.invalidate_provenance(ALICE, prov_id)


def test_count_and_listing():
    store, key = store_with_key()
    assert store.record_count() == 0
    assert record_ids(store) == []
    for prov_id in (1, 2, 3):
        store.create_record(key, prov_id, 1, [], Context())
    assert store.record_count() == 3
    assert record_ids(store) == [1, 2, 3]
    # a replaced record keeps its place in the index
    store.replace_record(key, store.get_record(2), replace(store.get_record(2), context=Context()))
    assert record_ids(store) == [1, 2, 3]


def test_mutations_require_internal_key():
    store, key = store_with_key()
    with pytest.raises(PermissionError):
        store.create_record(object(), 1, 1, [], Context())
    store.create_record(key, 1, 1, [], Context())
    record = store.get_record(1)
    with pytest.raises(PermissionError):
        store.replace_record(object(), record, replace(record, status=RecordStatus.INVALIDATED))
    # reads stay public
    assert store.record_count() == 1
    assert store.get_record(1) is record


def test_zero_id_is_reserved():
    provenance, token, prov_id = provenance_with_record()
    with pytest.raises(InvalidInputError):
        provenance.create_provenance(ALICE, token, [0], Context())
    with pytest.raises(TokenNotFoundError):
        provenance.create_provenance(ALICE, 0, [], Context())
    with pytest.raises(RecordNotFoundError):
        provenance.update_provenance(ALICE, 0, Context())
    assert record_ids(provenance.records) == [prov_id]


def test_self_reference_rejected():
    # a new record's id is the next one drawn, which no input can name yet
    provenance, token, prov_id = provenance_with_record()
    own_id = provenance.next_prov_id
    with pytest.raises(InvalidInputError, match="does not exist"):
        provenance.create_provenance(ALICE, token, [prov_id, own_id], Context())
    assert provenance.next_prov_id == own_id
    assert record_ids(provenance.records) == [prov_id]


def test_context_keys_sorted_in_canonical_form():
    context = Context({"zulu": "1", "alpha": "2"})
    assert list(context.keys()) == ["alpha", "zulu"]
    assert context.canonical() == '{"alpha":"2","zulu":"1"}'
    assert Context({"alpha": "2", "zulu": "1"}) == context


def test_context_rejects_bad_entries():
    with pytest.raises(ValueError):
        Context({"": "v"})
    with pytest.raises(ValueError):
        Context({"k": 3})  # type: ignore[dict-item]


def test_snapshot_export_shape():
    store, key = store_with_key()
    store.create_record(key, 1, 4, [], Context({"agent": "a"}))
    store.create_record(key, 2, 4, [1], Context({"agent": "b"}))
    record = store.get_record(2)
    store.replace_record(key, record, replace(record, status=RecordStatus.INVALIDATED))
    exported = store.snapshot()
    assert [item["id"] for item in exported] == [1, 2]
    assert all(
        set(item) == {"id", "tokenId", "inputProvenanceIds", "context", "index", "status"}
        for item in exported
    )
    assert exported[1]["status"] == "invalidated"
    assert exported[1]["inputProvenanceIds"] == [1]


# --- properties -------------------------------------------------------------

op_strategy = st.lists(
    st.tuples(st.sampled_from(["create", "update", "invalidate"]), st.integers(1, 8)),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=op_strategy)
def test_status_machine_only_valid_to_invalidated(ops):
    """Over random op sequences through the provenance layer the only
    observable transition is valid -> invalidated, and counts never decrease.
    A create names an earlier record as its input, which must be valid."""
    stack = layer()
    token = stack.request_token(ALICE)
    provenance = stack.provenance
    store = provenance.records
    statuses: dict[int, RecordStatus] = {}
    last_count = 0
    for action, prov_id in ops:
        try:
            if action == "create":
                inputs = [prov_id] if prov_id < provenance.next_prov_id else []
                created = provenance.create_provenance(ALICE, token, inputs, Context())
                for input_id in store.get_record(created).input_ids:
                    assert store.get_record(input_id).status is RecordStatus.VALID
            else:
                mutate(provenance, action, prov_id)
        except (InvalidInputError, RecordNotFoundError, RecordInvalidatedError):
            pass
        count = store.record_count()
        assert count >= last_count
        last_count = count
        for rid in record_ids(store):
            status = store.get_record(rid).status
            previous = statuses.get(rid)
            if previous is RecordStatus.INVALIDATED:
                assert status is RecordStatus.INVALIDATED
            statuses[rid] = status


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.integers(1, 1000), unique=True, max_size=30))
def test_index_matches_listing_position(ids):
    store = RecordStore(KEY)
    for prov_id in ids:
        store.create_record(KEY, prov_id, 1, [], Context())
    listing = record_ids(store)
    assert listing == ids
    for position, prov_id in enumerate(listing):
        assert store.get_record(prov_id).index == position
