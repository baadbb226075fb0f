"""Storage layer: provenance records and the append-only record index.

Records are identified by positive 64-bit integers (0 is the reserved nil
sentinel). Reads are public; mutations require the internal access key held
by the provenance layer, mirroring the read/write access split of the
layered design.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping

from .canonical import canonical_json
from .errors import (
    DuplicateProvenanceIdError,
    RecordInvalidatedError,
    RecordNotFoundError,
)
from .statehash import WriteHook, ignore_write

MAX_ID = 2**64 - 1


def validate_id(value: int, label: str = "id") -> int:
    if type(value) is not int or not 1 <= value <= MAX_ID:
        raise ValueError(f"{label} must be an integer in [1, 2^64-1], got {value!r}")
    return value


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
        items = check_context_entries(dict(entries))
        self._entries = {key: items[key] for key in sorted(items)}

    def as_dict(self) -> dict[str, str]:
        return dict(self._entries)

    def keys(self) -> list[str]:
        return list(self._entries)

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
    """Mapping of record id to record plus the global insertion index.

    Reads are public. Mutations check ``internal_key`` by identity: only the
    holder of the key object given at construction time (the provenance
    layer) may create, update, or invalidate records. Each write is reported
    to ``on_write`` as a ``records`` leaf.
    """

    def __init__(self, internal_key: object, on_write: WriteHook = ignore_write):
        self._key = internal_key
        self._on_write = on_write
        self._records: dict[int, ProvenanceRecord] = {}
        self._index: list[int] = []

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
        """Store a new valid record; returns its position in the global index."""
        self._require_internal(key)
        validate_id(prov_id, "prov_id")
        validate_id(token_id, "token_id")
        inputs = tuple(input_ids)
        if len(set(inputs)) != len(inputs):
            raise ValueError("input_ids must not contain duplicates")
        if prov_id in inputs:
            raise ValueError("record must not reference itself")
        if prov_id in self._records:
            raise DuplicateProvenanceIdError(f"record {prov_id} already exists")
        index = len(self._index)
        record = ProvenanceRecord(
            id=prov_id,
            token_id=token_id,
            input_ids=inputs,
            context=context,
            index=index,
            status=RecordStatus.VALID,
        )
        self._records[prov_id] = record
        self._index.append(prov_id)
        self._on_write("records", prov_id, None, record.as_dict())
        return index

    def get_record(self, prov_id: int) -> ProvenanceRecord:
        record = self._records.get(prov_id)
        if record is None:
            raise RecordNotFoundError(f"record {prov_id} not found")
        return record

    def has_record(self, prov_id: int) -> bool:
        return prov_id in self._records

    def update_context(self, key: object, prov_id: int, new_context: Context) -> None:
        """Replace a valid record's context. History stays in the block log."""
        self._require_internal(key)
        record = self.get_record(prov_id)
        if record.status is not RecordStatus.VALID:
            raise RecordInvalidatedError(f"record {prov_id} is invalidated")
        self._replace(record, replace(record, context=new_context))

    def invalidate_record(self, key: object, prov_id: int) -> None:
        """Mark a record invalidated. It stays readable but is no longer a legal input."""
        self._require_internal(key)
        record = self.get_record(prov_id)
        if record.status is not RecordStatus.VALID:
            raise RecordInvalidatedError(f"record {prov_id} is already invalidated")
        self._replace(record, replace(record, status=RecordStatus.INVALIDATED))

    def _replace(self, old: ProvenanceRecord, new: ProvenanceRecord) -> None:
        self._records[new.id] = new
        self._on_write("records", new.id, old.as_dict(), new.as_dict())

    def record_count(self) -> int:
        return len(self._index)

    def list_record_ids(self, offset: int = 0, limit: int | None = None) -> list[int]:
        """Slice of the global index in insertion order; empty past the end."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if limit is None:
            return self._index[offset:]
        if limit < 0:
            raise ValueError("limit must be non-negative")
        return self._index[offset : offset + limit]

    def iter_records(self) -> Iterator[ProvenanceRecord]:
        for prov_id in self._index:
            yield self._records[prov_id]

    def snapshot(self) -> list[dict]:
        return [record.as_dict() for record in self.iter_records()]
