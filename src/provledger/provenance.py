"""Generic provenance layer.

Ties records to tokens: creation requires authorization on the target token
and valid inputs, the record store assigns each new record the next id, and
every record joins one of its token's parallel traces. Every record
precondition is checked here, once; the record store stores what this layer
hands it.

The records are the stored facts; the traces, the record → trace map and
the same-token links are indexes derived from them, so only the record store
reports writes to the state digest.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Callable, Iterable, Iterator

from .errors import (
    InvalidInputError,
    NotAuthorizedError,
    RecordInvalidatedError,
    RecordNotFoundError,
    TokenNotFoundError,
)
from .records import VALID, Context, ProvenanceRecord, RecordStatus, RecordStore
from .tokens import ClientId, TokenRegistry


class ProvenanceLayer:
    """Create/update/invalidate workflows plus the token-to-records map.

    A record's same-token link is fixed at creation, since its inputs and
    every token id never change, and records are never deleted. So the
    token's trace partition and the record → trace map are derived once, at
    creation, for the queries: a new record extends its same-token parent's
    trace when the parent is that trace's tail, or else opens a new trace,
    so each trace holds ascending ids. A lineage is then one slice per trace
    segment, read with :meth:`trace_segment`, and the only link it reads is
    that of a trace's first record, kept once per trace. None of these is
    hashed: the ``records`` leaves fix them. Replay rebuilds them by
    re-executing every create, :meth:`restore` in one pass over the
    restored records. No caller is handed a list the layer keeps.
    """

    def __init__(
        self,
        store: RecordStore,
        registry: TokenRegistry,
        store_key: object,
    ):
        self._store = store
        self._registry = registry
        self._store_key = store_key
        self._traces: defaultdict[int, list[list[int]]] = defaultdict(list)
        # record id -> (the trace holding it, the same-token parent of that
        # trace's first record), one tuple shared by the records of a trace
        self._trace_of: dict[int, tuple[list[int], int]] = {}

    @property
    def records(self) -> RecordStore:
        return self._store

    @property
    def next_prov_id(self) -> int:
        """The id the next created record gets."""
        return self._store.record_count() + 1

    def _require_authorized(self, caller: ClientId, token_id: int) -> None:
        """Raises ``TokenNotFoundError`` for a missing token, then
        ``NotAuthorizedError`` unless ``caller`` owns or is approved on it."""
        if not self._registry.is_authorized(caller, token_id):
            raise NotAuthorizedError(
                f"{caller.hex} is neither owner nor approved for token {token_id}"
            )

    def validate_create(
        self, caller: ClientId, token_id: int, inputs: Iterable[int]
    ) -> dict[int, ProvenanceRecord]:
        """Run the creation preconditions without mutating anything.

        Check order is fixed: token existence, then authorization, then input
        validity. Returns the input records in input order, each looked up
        once, keyed by their own ids, which the new record's input ids then
        share instead of holding the caller's copies.
        """
        self._require_authorized(caller, token_id)
        records: dict[int, ProvenanceRecord] = {}
        for input_id in inputs:
            if input_id in records:
                raise InvalidInputError(f"duplicate input record {input_id}")
            try:
                record = self._store.get_record(input_id)
            except RecordNotFoundError:
                raise InvalidInputError(f"input record {input_id} does not exist") from None
            if record.status is not VALID:
                raise InvalidInputError(f"input record {input_id} is invalidated")
            records[record.id] = record
        return records

    def create_provenance(
        self,
        caller: ClientId,
        token_id: int,
        inputs: Iterable[int],
        context: Context,
        context_check: Callable[[Context], None] | None = None,
    ) -> int:
        """Store a new record for the token and return its fresh id.

        Inputs may reference records of other tokens (derivation across data
        points); authorization is checked on the target token only.
        ``context_check`` runs after :meth:`validate_create` so schema errors
        surface last, per the fixed error order. The id is fresh and every
        input already exists, so a record never references itself.
        """
        input_records = self.validate_create(caller, token_id, inputs)
        if context_check is not None:
            context_check(context)
        prov_id = self._store.create_record(
            self._store_key, token_id, tuple(input_records), context
        )
        self._index(prov_id, token_id, input_records.values())
        return prov_id

    def _index(self, prov_id: int, token_id: int, inputs: Iterable[ProvenanceRecord]) -> None:
        """Enter the newest record, ``prov_id`` of token ``token_id`` with
        input records ``inputs``, in its token's traces and the record →
        trace map."""
        same_token = 0
        for record in inputs:
            if record.token_id == token_id:
                same_token += 1
                parent = record.id
        if same_token != 1:
            parent = -same_token
        # a parent of 0 or below is in no trace: only record ids are keys
        entry = self._trace_of.get(parent)
        if entry is None or entry[0][-1] != parent:
            entry = ([], parent)
            self._traces[token_id].append(entry[0])
        entry[0].append(prov_id)
        self._trace_of[prov_id] = entry

    def restore(self, items: Iterable[dict]) -> None:
        """Fill the empty record store from :meth:`RecordStore.snapshot`-shaped
        ``items`` (see :meth:`RecordStore.restore`), then derive the traces,
        the record → trace map and the same-token links from it, entering
        the records in id order as their creates did: the one rebuild of the
        indexes, which replay instead keeps create by create."""
        self._store.restore(self._store_key, items)
        get = self._store.get_record
        for record in self._store:
            self._index(record.id, record.token_id, map(get, record.input_ids))

    def trace_segment(self, prov_id: int) -> tuple[list[int], int]:
        """The ascending ids of ``prov_id``'s trace up to ``prov_id``, in a
        new list, and the same-token parent of that trace's first record:
        the id of its unique input with the same token, ``0`` (the nil id)
        when it has none, or ``-n`` when ``n`` >= 2 inputs share its token
        and it has no linear history. ``KeyError`` for an id of no record."""
        trace, parent = self._trace_of[prov_id]
        if trace[-1] == prov_id:  # a trace's tail, such as a chain's latest record
            return trace[:], parent
        return trace[: bisect_left(trace, prov_id) + 1], parent

    def token_traces(self, token_id: int) -> Iterator[tuple[int, ...]]:
        """A token's parallel traces in the order they were opened, each the
        ascending ids of one maximal same-token chain, copied into a tuple as
        it is read. An iterator, so a traces query builds no container of its
        own; read it before the next create."""
        if not self._registry.exists(token_id):
            raise TokenNotFoundError(f"token {token_id} not found")
        return map(tuple, self._traces.get(token_id, ()))

    def _writable_record(self, caller: ClientId, prov_id: int) -> ProvenanceRecord:
        """The record ``prov_id`` if it exists, ``caller`` is authorized on its
        token, and it is still valid, checked in that order."""
        record = self._store.get_record(prov_id)
        self._require_authorized(caller, record.token_id)
        if record.status is not VALID:
            raise RecordInvalidatedError(f"record {prov_id} is invalidated")
        return record

    def update_provenance(
        self,
        caller: ClientId,
        prov_id: int,
        new_context: Context,
        context_check: Callable[[Context], None] | None = None,
    ) -> None:
        """Replace a record's context. ``context_check`` runs after the status
        check so schema errors surface last, per the fixed error order. An
        equal context changes nothing and writes nothing."""
        record = self._writable_record(caller, prov_id)
        if context_check is not None:
            context_check(new_context)
        if new_context != record.context:
            new = ProvenanceRecord(
                prov_id, record.token_id, record.input_ids, new_context, record.status
            )
            self._store.replace_record(self._store_key, record, new)

    def invalidate_provenance(self, caller: ClientId, prov_id: int) -> None:
        """Logical delete: the record stays readable and associated, but can
        no longer serve as an input to new records."""
        record = self._writable_record(caller, prov_id)
        new = ProvenanceRecord(
            prov_id, record.token_id, record.input_ids, record.context, RecordStatus.INVALIDATED
        )
        self._store.replace_record(self._store_key, record, new)
