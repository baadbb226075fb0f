"""Read-only lineage and derivation queries over the record DAG.

All functions are pure over the provenance layer's current state and produce
deterministically ordered results, so identical stores always serialize to
identical bytes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

from .errors import AmbiguousLineageError
from .provenance import ProvenanceLayer
from .records import ProvenanceRecord


@dataclass(frozen=True)
class ProvenanceGraph:
    """Derivation DAG slice: edge (a, b) means record b is an input of record a."""

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


@dataclass(frozen=True, slots=True)
class Trace:
    """One parallel provenance chain of a token; ``head`` is the latest record."""

    head: int
    records: tuple[int, ...]

    def as_dict(self) -> dict:
        return {"head": self.head, "records": list(self.records)}


def lineage(layer: ProvenanceLayer, prov_id: int) -> list[int]:
    """Linear same-token history of a record, oldest first.

    Read from the record → trace map (see
    :attr:`ProvenanceLayer.record_traces`): the record's trace up to the
    record, then, while a trace's first record forks off an earlier record,
    that record's trace up to it. So a lineage costs one slice per trace
    segment, not one step per ancestor. A record with more than one
    same-token input has no linear history and is reported as ambiguous
    rather than silently resolved.
    """
    traces_of = layer.record_traces
    try:
        trace = traces_of[prov_id]
    except KeyError:
        layer.records.get_record(prov_id)  # RecordNotFoundError for an unknown id
        raise
    parents = layer.same_token_parents
    found = trace[: bisect_left(trace, prov_id) + 1]
    parent = parents[trace[0]]
    if parent > 0:
        # a fork: join the segments once, oldest first, since prepending
        # each one would be quadratic in the number of segments
        segments = [found]
        while parent > 0:
            trace = traces_of[parent]
            segments.append(trace[: bisect_left(trace, parent) + 1])
            parent = parents[trace[0]]
        segments.reverse()
        found = list(chain.from_iterable(segments))
    if parent < 0:
        raise AmbiguousLineageError(f"record {trace[0]} has {-parent} same-token inputs")
    return found


def derivation_graph(layer: ProvenanceLayer, prov_id: int, max_depth: int) -> ProvenanceGraph:
    """Level-by-level expansion through input edges up to ``max_depth`` hops.

    Depth 0 is the record alone. Edges are included only when both endpoints
    fall within the depth bound. Each node is expanded once and a record's
    inputs are distinct, so no edge is found twice.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    get_record = layer.records.get_record
    found = {prov_id: get_record(prov_id)}
    edges: list[tuple[int, int]] = []
    level = [prov_id]
    for _ in range(max_depth):
        next_level = []
        for current in level:
            for input_id in found[current].input_ids:
                edges.append((current, input_id))
                if input_id not in found:
                    found[input_id] = get_record(input_id)
                    next_level.append(input_id)
        if not next_level:
            break
        level = next_level
    edges.sort()
    nodes = tuple(found[rid] for rid in sorted(found))
    return ProvenanceGraph(nodes=nodes, edges=tuple(edges))


def traces(layer: ProvenanceLayer, token_id: int) -> list[Trace]:
    """A token's records partitioned into maximal same-token chains, from the
    partition the layer keeps as records are created, which
    :meth:`ProvenanceLayer.token_traces` copies once. Forks and ambiguous
    merges open fresh chains. The traces are not hashed; replay rebuilds
    them."""
    return [Trace(trace[-1], trace) for trace in layer.token_traces(token_id)]
