"""Generic provenance layer.

Ties records to tokens: creation requires authorization on the target token
and valid inputs, record ids are drawn from a single monotonic counter, and
every record joins one of its token's parallel traces. Every record
precondition is checked here, once; the record store stores what this layer
hands it.

The records are the stored facts; the traces, the record → trace map and
the same-token links are indexes derived from them, so only the record store
reports writes to the state digest.
"""

from __future__ import annotations

from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    InvalidInputError,
    NotAuthorizedError,
    RecordInvalidatedError,
    RecordNotFoundError,
    TokenNotFoundError,
)
from .records import Context, ProvenanceRecord, RecordStatus, RecordStore
from .tokens import ClientId, TokenRegistry


class ProvenanceLayer:
    """Create/update/invalidate workflows plus the token-to-records map.

    A record's same-token link is fixed at creation, since its inputs and
    every token id never change, and records are never deleted. So the link,
    the token's trace partition and the record → trace map are derived once,
    at creation, for the queries: a new record extends its same-token
    parent's trace when the parent is that trace's tail, or else opens a new
    trace, so each trace holds ascending ids. A lineage is then one slice
    per trace segment. None of these is hashed: the ``records`` leaves fix
    them, and replay rebuilds them by re-executing every create.

    Two read-only live views are plain attributes, so a query reads each
    without a call:

    ``same_token_parents``
        every record id -> its same-token parent: the id of its unique input
        with the same token, ``0`` (the nil id) when it has none, or ``-n``
        when ``n`` >= 2 inputs share its token and the record has no linear
        history.
    ``record_traces``
        every record id -> the trace that holds it, the ascending ids of one
        of its token's traces (see :meth:`token_traces`).
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
        self._same_token_parent: dict[int, int] = {}
        self._traces: dict[int, list[list[int]]] = {}
        self._trace_of: dict[int, list[int]] = {}
        self.same_token_parents: Mapping[int, int] = MappingProxyType(self._same_token_parent)
        self.record_traces: Mapping[int, Sequence[int]] = MappingProxyType(self._trace_of)
        self._next_prov_id = 1

    @property
    def records(self) -> RecordStore:
        return self._store

    @property
    def next_prov_id(self) -> int:
        return self._next_prov_id

    def _require_authorized(self, caller: ClientId, token_id: int) -> None:
        """Raises ``TokenNotFoundError`` for a missing token, then
        ``NotAuthorizedError`` unless ``caller`` owns or is approved on it."""
        if not self._registry.is_authorized(caller, token_id):
            raise NotAuthorizedError(
                f"{caller.hex} is neither owner nor approved for token {token_id}"
            )

    def validate_create(
        self, caller: ClientId, token_id: int, inputs: Iterable[int]
    ) -> tuple[ProvenanceRecord, ...]:
        """Run the creation preconditions without mutating anything.

        Check order is fixed: token existence, then authorization, then input
        validity. Returns the input records, each looked up once.
        """
        self._require_authorized(caller, token_id)
        records: dict[int, ProvenanceRecord] = {}
        for input_id in inputs:
            if input_id in records:
                raise InvalidInputError(f"duplicate input record {input_id}")
            try:
                record = records[input_id] = self._store.get_record(input_id)
            except RecordNotFoundError:
                raise InvalidInputError(f"input record {input_id} does not exist") from None
            if record.status is not RecordStatus.VALID:
                raise InvalidInputError(f"input record {input_id} is invalidated")
        return tuple(records.values())

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
        prov_id = self._next_prov_id
        self._store.create_record(
            self._store_key, prov_id, token_id, (record.id for record in input_records), context
        )
        self._next_prov_id += 1
        same_token = [record.id for record in input_records if record.token_id == token_id]
        parent = self._same_token_parent[prov_id] = (
            same_token[0] if len(same_token) == 1 else -len(same_token)
        )
        # a parent of 0 or below is in no trace: only record ids are keys
        trace = self._trace_of.get(parent)
        if trace is None or trace[-1] != parent:
            trace = []
            self._traces.setdefault(token_id, []).append(trace)
        trace.append(prov_id)
        self._trace_of[prov_id] = trace
        return prov_id

    def token_traces(self, token_id: int) -> Iterator[tuple[int, ...]]:
        """A token's parallel traces in the order they were opened, each the
        ascending ids of one maximal same-token chain, copied into a tuple as
        it is read. An iterator, so a traces query builds no container of its
        own; read it before the next create."""
        if not self._registry.exists(token_id):
            raise TokenNotFoundError(f"token {token_id} not found")
        return map(tuple, self._traces.get(token_id, ()))

    def get_associated_provenance(self, token_id: int) -> list[int]:
        """All record ids of a token in creation order (its traces, merged)."""
        return sorted(chain.from_iterable(self.token_traces(token_id)))

    def _writable_record(self, caller: ClientId, prov_id: int) -> ProvenanceRecord:
        """The record ``prov_id`` if it exists, ``caller`` is authorized on its
        token, and it is still valid, checked in that order."""
        record = self._store.get_record(prov_id)
        self._require_authorized(caller, record.token_id)
        if record.status is not RecordStatus.VALID:
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
                prov_id, record.token_id, record.input_ids, new_context, record.index, record.status
            )
            self._store.replace_record(self._store_key, record, new)

    def invalidate_provenance(self, caller: ClientId, prov_id: int) -> None:
        """Logical delete: the record stays readable and associated, but can
        no longer serve as an input to new records."""
        record = self._writable_record(caller, prov_id)
        new = ProvenanceRecord(
            prov_id, record.token_id, record.input_ids, record.context, record.index,
            RecordStatus.INVALIDATED,
        )
        self._store.replace_record(self._store_key, record, new)
