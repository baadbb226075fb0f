"""Independent reference implementations used to cross-check the package.

Everything here works on plain exported data (record dicts, integer lists,
submission schedules), not on the package's internal structures, so a bug in
the implementation cannot hide in its oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque


# --- plain-data views -------------------------------------------------------

def export_records(layer) -> dict[int, dict]:
    """Record id -> exported wire dict, via the public read API only."""
    return {item["id"]: item for item in layer.records.snapshot()}


def naive_association(records: dict[int, dict]) -> dict[int, list[int]]:
    """Token id -> the ids of the records naming that token, ascending."""
    grouped: dict[int, list[int]] = {}
    for rid in sorted(records):
        grouped.setdefault(records[rid]["tokenId"], []).append(rid)
    return grouped


# --- lineage ----------------------------------------------------------------

def naive_lineage(records: dict[int, dict], prov_id: int):
    """Walk same-token predecessors over exported dicts.

    Returns the oldest-first chain, or the string "ambiguous" when a record
    has more than one same-token input.
    """
    chain = [prov_id]
    current = records[prov_id]
    while True:
        same_token = [
            input_id
            for input_id in current["inputProvenanceIds"]
            if records[input_id]["tokenId"] == current["tokenId"]
        ]
        if len(same_token) > 1:
            return "ambiguous"
        if not same_token:
            return list(reversed(chain))
        current = records[same_token[0]]
        chain.append(current["id"])


def naive_ambiguity(records: dict[int, dict], prov_id: int) -> tuple[int, int]:
    """Where the walk back from ``prov_id`` along unique same-token inputs
    stops: the record it stops at and that record's same-token input count.
    A count of 2 or more is the record an ambiguous lineage names."""
    current = records[prov_id]
    while True:
        same_token = [
            input_id
            for input_id in current["inputProvenanceIds"]
            if records[input_id]["tokenId"] == current["tokenId"]
        ]
        if len(same_token) != 1:
            return current["id"], len(same_token)
        current = records[same_token[0]]


# --- derivation graph ---------------------------------------------------------

def naive_derivation(records: dict[int, dict], prov_id: int, max_depth: int):
    """Layer-by-layer expansion; returns (node id set, edge set)."""
    nodes = {prov_id}
    edges: set[tuple[int, int]] = set()
    layer = {prov_id}
    for _ in range(max_depth):
        next_layer: set[int] = set()
        for rid in layer:
            for input_id in records[rid]["inputProvenanceIds"]:
                edges.add((rid, input_id))
                if input_id not in nodes:
                    next_layer.add(input_id)
        nodes |= next_layer
        layer = next_layer
        if not layer:
            break
    return nodes, edges


def serialize_graph(records: dict[int, dict], nodes: set[int], edges: set[tuple[int, int]]) -> str:
    """Serialize an oracle graph the way the package's canonical form does,
    but through an independent construction."""
    payload = {
        "nodes": [records[rid] for rid in sorted(nodes)],
        "edges": [list(edge) for edge in sorted(edges)],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# --- canonical form ---------------------------------------------------------------

def naive_canonical(value) -> str:
    """The README's canonical JSON: sorted keys, no insignificant whitespace,
    non-ASCII characters written as themselves."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def naive_line_is_canonical(text: str) -> bool:
    """Whether a log line's text is the canonical form of what it parses to:
    parse it, encode the result whole, compare."""
    return naive_canonical(json.loads(text)) == text


# --- state digest ---------------------------------------------------------------

STATE_SCALARS = (
    "configDigest", "nextProvId", "nextTokenId", "policyDigest", "seededTotal", "treasury"
)


def naive_state_digest(snapshot: dict) -> str:
    """The README's state digest of a full ``state_snapshot()``, computed with
    json and hashlib alone: the sum mod 2^16384 of every leaf's SHAKE-256 to
    2048 bytes, little-endian, where a nonce count n is n copies of the leaf
    ``["nonces", address, true]``; then SHA-256 over that sum and the
    canonical JSON of the scalar fields."""

    def canonical(value) -> bytes:
        return naive_canonical(value).encode("utf-8")

    def shake(leaf) -> int:
        return int.from_bytes(hashlib.shake_256(canonical(leaf)).digest(2048), "little")

    assert set(snapshot) == set(STATE_SCALARS) | {
        "balances", "nonces", "records", "tokens", "whitelist"
    }
    leaves = [["records", item["id"], item] for item in snapshot["records"]]
    leaves += [["tokens", item["id"], item] for item in snapshot["tokens"]]
    leaves += [["balances", client, amount] for client, amount in snapshot["balances"].items()]
    leaves += [["whitelist", client, True] for client in snapshot["whitelist"]]
    total = sum(shake(leaf) for leaf in leaves)
    total += sum(n * shake(["nonces", client, True]) for client, n in snapshot["nonces"].items())
    scalars = {name: snapshot[name] for name in STATE_SCALARS}
    data = (total % 2**16384).to_bytes(2048, "little") + canonical(scalars)
    return hashlib.sha256(data).hexdigest()


# --- parallel traces -----------------------------------------------------------

def naive_traces(records: dict[int, dict], associated: list[int]):
    """Forest formulation of the trace partition.

    parent(r) is the unique same-token input; r chains onto parent(r) only if
    r is the first child of that parent in creation order. Every other record
    roots a new chain. Walking first-child links from each root yields the
    same partition the implementation builds greedily.
    """
    order = {rid: position for position, rid in enumerate(associated)}
    parent: dict[int, int] = {}
    for rid in associated:
        same_token = [
            input_id
            for input_id in records[rid]["inputProvenanceIds"]
            if records[input_id]["tokenId"] == records[rid]["tokenId"]
        ]
        if len(same_token) == 1 and same_token[0] in order:
            parent[rid] = same_token[0]
    first_child: dict[int, int] = {}
    for rid in associated:
        p = parent.get(rid)
        if p is None:
            continue
        if p not in first_child or order[rid] < order[first_child[p]]:
            first_child[p] = rid
    roots = [
        rid
        for rid in associated
        if rid not in parent or first_child.get(parent[rid]) != rid
    ]
    chains = []
    for root in roots:
        chain = [root]
        while chain[-1] in first_child:
            chain.append(first_child[chain[-1]])
        chains.append(chain)
    chains.sort(key=lambda chain: order[chain[0]])
    return chains


# --- discrete-event confirmation schedule ---------------------------------------

def schedule_confirmations(
    submit_times: list[int], first_boundary: int, interval: int, capacity: int
) -> list[int]:
    """Confirmation time per submission under FIFO service at block boundaries.

    Boundaries occur at first_boundary + k*interval; each serves up to
    ``capacity`` of the submissions with submit time <= boundary, oldest
    first. Models a single client submitting equal-fee transactions.
    """
    confirm: list[int | None] = [None] * len(submit_times)
    pending: deque[int] = deque()
    next_submit = 0
    boundary = first_boundary
    while any(c is None for c in confirm):
        while next_submit < len(submit_times) and submit_times[next_submit] <= boundary:
            pending.append(next_submit)
            next_submit += 1
        for _ in range(min(capacity, len(pending))):
            confirm[pending.popleft()] = boundary
        boundary += interval
    return [c for c in confirm]


# --- block selection ----------------------------------------------------------------

def naive_select(
    pending: list[dict], next_nonce: dict[str, int], timestamp: int, capacity: int
) -> list[dict]:
    """One block under the stated selection rule, over wire-form transactions.

    Repeatedly rescans all of ``pending`` for the best-ranked transaction,
    by (fee desc, submittedAt asc, hash asc), among those submitted by
    ``timestamp`` whose nonce is its sender's next. Picks are removed from
    ``pending`` and advance ``next_nonce`` (sender hex -> next nonce).
    """
    chosen: list[dict] = []
    while len(chosen) < capacity:
        ready = [
            tx
            for tx in pending
            if tx["submittedAt"] <= timestamp and tx["nonce"] == next_nonce.get(tx["sender"], 0)
        ]
        if not ready:
            break
        best = min(ready, key=lambda tx: (-tx["fee"], tx["submittedAt"], tx["hash"]))
        chosen.append(best)
        pending.remove(best)
        next_nonce[best["sender"]] = best["nonce"] + 1
    return chosen


# --- random DAG generation --------------------------------------------------------

def random_dag_plan(rng: random.Random, max_records: int):
    """A creation plan for a random multi-token DAG.

    Returns (token_count, steps) where each step is (token_index, input
    positions) and input positions refer to earlier steps. Structurally
    favours chains so lineage and traces stay interesting.
    """
    record_count = rng.randint(1, max_records)
    token_count = rng.randint(1, max(1, record_count // 3))
    steps: list[tuple[int, list[int]]] = []
    latest_by_token: dict[int, list[int]] = {}
    for position in range(record_count):
        token_index = rng.randrange(token_count)
        inputs: list[int] = []
        roll = rng.random()
        same_token_earlier = latest_by_token.get(token_index, [])
        if roll < 0.55 and same_token_earlier:
            # extend: latest same-token record plus the occasional extra input
            inputs.append(same_token_earlier[-1])
            if position and rng.random() < 0.30:
                extra = rng.randrange(position)
                if extra not in inputs:
                    inputs.append(extra)
        elif roll < 0.75 and position:
            # derivation: a handful of arbitrary earlier records
            k = rng.randint(1, min(3, position))
            inputs = sorted(rng.sample(range(position), k))
        latest_by_token.setdefault(token_index, []).append(position)
        steps.append((token_index, inputs))
    return token_count, steps


def topological_order(records: dict[int, dict]):
    """Kahn's algorithm over input edges; returns None if a cycle exists."""
    out_edges: dict[int, list[int]] = {rid: [] for rid in records}
    in_degree = {rid: 0 for rid in records}
    for rid, record in records.items():
        for input_id in record["inputProvenanceIds"]:
            out_edges[input_id].append(rid)
            in_degree[rid] += 1
    queue = deque(sorted(rid for rid, degree in in_degree.items() if degree == 0))
    order = []
    while queue:
        rid = queue.popleft()
        order.append(rid)
        for successor in out_edges[rid]:
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                queue.append(successor)
    if len(order) != len(records):
        return None
    return order
