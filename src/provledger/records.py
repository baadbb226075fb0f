"""Storage layer: provenance records in insertion order.

Records are identified by positive integers that the store assigns: the
n-th record created has id n (0 is the reserved nil sentinel). Reads are
public; mutations require the internal access key held by the provenance
layer, mirroring the read/write access split of the layered design. The
store stores what it is handed: the provenance layer checks every workflow
precondition before it writes.
"""

from __future__ import annotations

import enum
import reprlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, KeysView, Mapping

from .errors import RecordNotFoundError
from .statehash import WriteHook, ignore_write


_KEY_REQUIRED = "record store mutation requires the internal access key"


class RecordStatus(enum.Enum):
    VALID = "valid"
    INVALIDATED = "invalidated"


# read once: an Enum member read off its class costs several plain reads
VALID = RecordStatus.VALID
# each status by its text, read by a dict lookup rather than the Enum's call
STATUS_OF_TEXT = {status.value: status for status in RecordStatus}


def check_context_entries(items: Mapping) -> Mapping:
    """``items`` if every key is a non-empty string and every value a string,
    as :class:`Context` requires; raises ``ValueError`` otherwise."""
    for key, value in items.items():
        if type(key) is not str or not key:
            raise ValueError(f"context keys must be non-empty strings, got {key!r}")
        if type(value) is not str:
            # a bounded repr: a value nested near the recursion limit parses
            # but has no full repr
            raise ValueError(f"context values must be strings, got {reprlib.repr(value)}")
    return items


class Context:
    """Immutable string-to-string map with a deterministic canonical form.

    Keys are non-empty strings, stored sorted lexicographically so that equal
    maps always serialize to identical bytes. Free-form use-cases can put
    everything under a single key such as ``raw``.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        self._entries = dict(sorted(check_context_entries(dict(entries)).items()))

    @classmethod
    def from_checked(cls, entries: dict[str, str]) -> "Context":
        """A context that takes ownership of ``entries``: a new dict, held by
        no caller, whose keys are already sorted, as in a dict decoded from
        canonical JSON, and which :func:`check_context_entries` already
        accepted, or which a checked state digest proves is a committed
        record's. It is neither checked, sorted nor copied again."""
        context = cls.__new__(cls)
        context._entries = entries
        return context

    def as_dict(self) -> dict[str, str]:
        return dict(self._entries)

    def keys(self) -> KeysView[str]:
        """A read-only view of the keys, in sorted order."""
        return self._entries.keys()

    def get(self, key: str, default: str | None = None) -> str | None:
        return self._entries.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Context):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Context({self._entries!r})"


@dataclass(frozen=True, slots=True)
class ProvenanceRecord:
    """One creation or modification event of a data point.

    ``input_ids`` reference strictly earlier records. The record's position
    in the global insertion index is ``id - 1``, exported as ``index``.
    Slots keep a record to one small object, which queries walking many
    records read faster.
    """

    id: int
    token_id: int
    input_ids: tuple[int, ...]
    context: Context
    status: RecordStatus

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "tokenId": self.token_id,
            "inputProvenanceIds": list(self.input_ids),
            "context": self.context.as_dict(),
            "index": self.id - 1,
            # the member's own attribute: ``value`` goes through a descriptor
            "status": self.status._value_,
        }


class RecordStore:
    """Mapping of record id to record, in insertion order.

    Reads are public. Mutations check ``internal_key`` by identity: only the
    holder of the key object given at construction time (the provenance
    layer) may create or replace records. Records are never deleted, so a
    record's position in the mapping is ``id - 1``. Each write is reported
    to ``on_write`` as a ``records`` leaf.
    """

    def __init__(self, internal_key: object, on_write: WriteHook = ignore_write):
        self._key = internal_key
        self._on_write = on_write
        self._records: dict[int, ProvenanceRecord] = {}
        # the one dict every write goes to, so the view never goes stale
        self._view = MappingProxyType(self._records)

    def create_record(
        self, key: object, token_id: int, input_ids: Iterable[int], context: Context
    ) -> int:
        """Store a new valid record under the next id, the record count plus
        one, and return that id."""
        if key is not self._key:
            raise PermissionError(_KEY_REQUIRED)
        prov_id = len(self._records) + 1
        record = self._records[prov_id] = ProvenanceRecord(
            prov_id, token_id, tuple(input_ids), context, VALID
        )
        self._on_write("records", prov_id, None, record.as_dict())
        return prov_id

    def get_record(self, prov_id: int) -> ProvenanceRecord:
        record = self._records.get(prov_id)
        if record is None:
            raise RecordNotFoundError(f"record {prov_id} not found")
        return record

    def view(self) -> Mapping[int, ProvenanceRecord]:
        """A read-only mapping of id to record that follows every write: the
        same object on every call, copying nothing. An unknown id raises
        ``KeyError``, where :meth:`get_record` raises ``RecordNotFoundError``."""
        return self._view

    def replace_record(self, key: object, old: ProvenanceRecord, new: ProvenanceRecord) -> None:
        """Store ``new`` in place of ``old``, the record stored under its id,
        which it differs from. History stays in the block log."""
        if key is not self._key:
            raise PermissionError(_KEY_REQUIRED)
        self._records[new.id] = new
        self._on_write("records", new.id, old.as_dict, new.as_dict())

    def restore(self, key: object, items: Iterable[Mapping]) -> None:
        """Fill an empty store from :meth:`snapshot`-shaped ``items``, without
        reporting a write. The caller proves the items with the state digest
        (see :meth:`~provledger.ledger.Ledger.restore`), which does not see
        a dict's key order; so each context's keys must be sorted, as the
        canonical form sorts them, or this raises ``ValueError``. Nothing
        else is checked again. The n-th item becomes record n. Its context
        dict is taken over, neither sorted nor copied, its status read by
        its text, and its input ids are the stored inputs' own id objects,
        as :meth:`create_record` is handed them; an input that is not an
        earlier record raises ``KeyError``."""
        if key is not self._key:
            raise PermissionError(_KEY_REQUIRED)
        records = self._records
        from_checked = Context.from_checked
        orders = set()  # key orders found sorted: records of one schema share a few
        for prov_id, item in enumerate(items, start=1):
            context = item["context"]
            order = tuple(context)
            if order not in orders:
                if list(order) != sorted(order):
                    raise ValueError(f"record {prov_id} has its context keys out of order")
                orders.add(order)
            records[prov_id] = ProvenanceRecord(
                prov_id,
                item["tokenId"],
                tuple([records[input_id].id for input_id in item["inputProvenanceIds"]]),
                from_checked(context),
                STATUS_OF_TEXT[item["status"]],
            )

    def record_count(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ProvenanceRecord]:
        """Every record, in id order."""
        return iter(self._records.values())

    def snapshot(self) -> list[dict]:
        return [record.as_dict() for record in self._records.values()]
