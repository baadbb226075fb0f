"""Storage layer: provenance records in insertion order.

Records are identified by positive 64-bit integers (0 is the reserved nil
sentinel). Reads are public; mutations require the internal access key held
by the provenance layer, mirroring the read/write access split of the
layered design. The store stores what it is handed: the provenance layer
checks every workflow precondition before it writes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, KeysView, Mapping

from .canonical import canonical_json
from .errors import DuplicateProvenanceIdError, RecordNotFoundError
from .statehash import WriteHook, ignore_write


class RecordStatus(enum.Enum):
    VALID = "valid"
    INVALIDATED = "invalidated"


def check_context_entries(items: Mapping) -> Mapping:
    """``items`` if every key is a non-empty string and every value a string,
    as :class:`Context` requires; raises ``ValueError`` otherwise."""
    for key, value in items.items():
        if type(key) is not str or not key:
            raise ValueError(f"context keys must be non-empty strings, got {key!r}")
        if type(value) is not str:
            raise ValueError(f"context values must be strings, got {value!r}")
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
    def from_checked(cls, entries: Mapping[str, str]) -> "Context":
        """A context of ``entries`` that :func:`check_context_entries` already
        accepted, built without checking them again."""
        context = cls.__new__(cls)
        context._entries = dict(sorted(entries.items()))
        return context

    def as_dict(self) -> dict[str, str]:
        return dict(self._entries)

    def keys(self) -> KeysView[str]:
        """A read-only view of the keys, in sorted order."""
        return self._entries.keys()

    def get(self, key: str, default: str | None = None) -> str | None:
        return self._entries.get(key, default)

    def canonical(self) -> str:
        return canonical_json(self._entries)

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

    ``input_ids`` reference strictly earlier records; ``index`` is the fixed
    position in the global insertion index. Slots keep a record to one small
    object, which queries walking many records read faster.
    """

    id: int
    token_id: int
    input_ids: tuple[int, ...]
    context: Context
    index: int
    status: RecordStatus

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "tokenId": self.token_id,
            "inputProvenanceIds": list(self.input_ids),
            "context": self.context.as_dict(),
            "index": self.index,
            "status": self.status.value,
        }


class RecordStore:
    """Mapping of record id to record, in insertion order.

    Reads are public. Mutations check ``internal_key`` by identity: only the
    holder of the key object given at construction time (the provenance
    layer) may create or replace records. Records are never deleted, so a
    record's position in the mapping is its ``index``. Each write is reported
    to ``on_write`` as a ``records`` leaf.
    """

    def __init__(self, internal_key: object, on_write: WriteHook = ignore_write):
        self._key = internal_key
        self._on_write = on_write
        self._records: dict[int, ProvenanceRecord] = {}

    def _require_internal(self, key: object) -> None:
        if key is not self._key:
            raise PermissionError("record store mutation requires the internal access key")

    def create_record(
        self,
        key: object,
        prov_id: int,
        token_id: int,
        input_ids: Iterable[int],
        context: Context,
    ) -> int:
        """Store a new valid record; returns its position in the global index.

        An existing id is refused: overwriting it would add a ``records``
        leaf without removing the old one from the state digest.
        """
        self._require_internal(key)
        if prov_id in self._records:
            raise DuplicateProvenanceIdError(f"record {prov_id} already exists")
        index = len(self._records)
        record = self._records[prov_id] = ProvenanceRecord(
            prov_id, token_id, tuple(input_ids), context, index, RecordStatus.VALID
        )
        self._on_write("records", prov_id, None, record.as_dict())
        return index

    def get_record(self, prov_id: int) -> ProvenanceRecord:
        record = self._records.get(prov_id)
        if record is None:
            raise RecordNotFoundError(f"record {prov_id} not found")
        return record

    def replace_record(self, key: object, old: ProvenanceRecord, new: ProvenanceRecord) -> None:
        """Store ``new`` in place of ``old``, the record stored under its id,
        which it differs from. History stays in the block log."""
        self._require_internal(key)
        self._records[new.id] = new
        self._on_write("records", new.id, old.as_dict, new.as_dict())

    def record_count(self) -> int:
        return len(self._records)

    def snapshot(self) -> list[dict]:
        return [record.as_dict() for record in self._records.values()]
