"""Read-only lineage and derivation queries over the record DAG.

All functions are pure over the provenance layer's current state and produce
deterministically ordered results, so identical stores always serialize to
identical bytes.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .errors import AmbiguousLineageError
from .provenance import ProvenanceLayer
from .records import ProvenanceRecord


class ProvenanceGraph(NamedTuple):
    """Derivation DAG slice: edge (a, b) means record b is an input of record a.

    A named tuple, as :class:`~provledger.tokens.Token` is: immutable, and
    equal to the plain tuple of its fields."""

    nodes: tuple[ProvenanceRecord, ...]
    edges: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict:
        return {
            "nodes": [record.as_dict() for record in self.nodes],
            "edges": [list(edge) for edge in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["digraph provenance {"]
        for record in self.nodes:
            shape = "box" if record.status.value == "valid" else "box, style=dashed"
            label = f"p{record.id} (token {record.token_id})"
            lines.append(f'  p{record.id} [label="{label}", shape={shape}];')
        for src, dst in self.edges:
            lines.append(f"  p{src} -> p{dst};")
        lines.append("}")
        return "\n".join(lines)


class Trace(NamedTuple):
    """One parallel provenance chain of a token; ``head`` is the latest record.
    A named tuple, as :class:`ProvenanceGraph` is."""

    head: int
    records: tuple[int, ...]

    def as_dict(self) -> dict:
        return {"head": self.head, "records": list(self.records)}


def lineage(layer: ProvenanceLayer, prov_id: int) -> list[int]:
    """Linear same-token history of a record, oldest first.

    Read from the traces kept at creation (see
    :meth:`ProvenanceLayer.trace_segment`): the record's trace up to the
    record, then, while a trace's first record forks off an earlier record,
    that record's trace up to it. So a lineage costs one slice per trace
    segment, not one step per ancestor. A record with more than one
    same-token input has no linear history and is reported as ambiguous
    rather than silently resolved.
    """
    try:
        found, parent = layer.trace_segment(prov_id)
    except KeyError:
        layer.records.get_record(prov_id)  # RecordNotFoundError for an unknown id
        raise
    if parent > 0:
        # a fork: join the segments once, oldest first, since prepending
        # each one would be quadratic in the number of segments
        segments = [found]
        while parent > 0:
            segment, parent = layer.trace_segment(parent)
            segments.append(segment)
        segments.reverse()
        found = list(chain.from_iterable(segments))
    if parent < 0:
        # found[0] opens the oldest segment: the record with several such inputs
        raise AmbiguousLineageError(f"record {found[0]} has {-parent} same-token inputs")
    return found


def derivation_graph(layer: ProvenanceLayer, prov_id: int, max_depth: int) -> ProvenanceGraph:
    """Level-by-level expansion through input edges up to ``max_depth`` hops.

    Depth 0 is the record alone. Edges are included only when both endpoints
    fall within the depth bound. Each node is expanded once and a record's
    inputs are distinct, so no edge is found twice. Only the root is looked
    up by :meth:`~provledger.records.RecordStore.get_record`, which reports
    an unknown id; an input always names an earlier record, so inputs are
    read through the store's read-only
    :meth:`~provledger.records.RecordStore.view`.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    store = layer.records
    found = {prov_id: store.get_record(prov_id)}
    stored = store.view()
    edges: list[tuple[int, int]] = []
    level = [prov_id]
    for _ in range(max_depth):
        next_level = []
        for current in level:
            for input_id in found[current].input_ids:
                edges.append((current, input_id))
                if input_id not in found:
                    found[input_id] = stored[input_id]
                    next_level.append(input_id)
        if not next_level:
            break
        level = next_level
    edges.sort()
    return ProvenanceGraph(tuple(map(found.__getitem__, sorted(found))), tuple(edges))


def traces(layer: ProvenanceLayer, token_id: int) -> list[Trace]:
    """A token's records partitioned into maximal same-token chains, from the
    partition the layer keeps as records are created, which
    :meth:`ProvenanceLayer.token_traces` copies once. Forks and ambiguous
    merges open fresh chains. The traces are not hashed; replay rebuilds
    them."""
    return [Trace(trace[-1], trace) for trace in layer.token_traces(token_id)]
