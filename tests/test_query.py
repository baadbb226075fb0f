"""Query engine: lineage, derivation graphs, parallel traces, determinism."""

from __future__ import annotations

import random

import pytest

from provledger import (
    ClientId,
    Context,
    RecordStore,
    Trace,
    canonical_json,
    derivation_graph,
    lineage,
    load_ledger,
    traces,
)
from provledger.errors import AmbiguousLineageError, RecordNotFoundError, TokenNotFoundError
from oracles import (
    export_records,
    naive_ambiguity,
    naive_association,
    naive_derivation,
    naive_lineage,
    naive_traces,
    random_dag_plan,
    serialize_graph,
)
from support import ALICE, BOB, layer, open_policy, quick_ledger


def build_vaccine_story():
    """Tokens/records mirroring the cold-chain walkthrough; returns the stack
    plus the ids needed by the assertions."""
    stack = layer(open_policy())
    vacc = stack.request_token(ALICE)
    p1 = stack.provenance.create_provenance(ALICE, vacc, [], Context({"agent": "operator1"}))
    p2 = stack.provenance.create_provenance(ALICE, vacc, [p1], Context({"agent": "rfid1"}))
    p3 = stack.provenance.create_provenance(ALICE, vacc, [p2], Context({"agent": "rfid2"}))

    sensor_records = []
    for time in ("7am", "8am", "9am"):
        token = stack.request_token(BOB)
        sensor_records.append(
            stack.provenance.create_provenance(
                BOB, token, [], Context({"agent": "sensor", "time": time})
            )
        )
    avg_token = stack.request_token(BOB)
    avg = stack.provenance.create_provenance(
        BOB, avg_token, sensor_records, Context({"agent": "averager"})
    )
    conv_token = stack.request_token(BOB)
    conv = stack.provenance.create_provenance(
        BOB, conv_token, [avg], Context({"agent": "converter"})
    )

    air = stack.request_token(BOB)
    temp = stack.provenance.create_provenance(BOB, air, [], Context({"agent": "thermo"}))
    loc = stack.provenance.create_provenance(BOB, air, [], Context({"agent": "gps"}))
    return stack, {
        "vacc": vacc,
        "chain": (p1, p2, p3),
        "sensors": sensor_records,
        "avg": avg,
        "conv": conv,
        "air": air,
        "air_traces": (temp, loc),
    }


def assert_lineage_matches(provenance, records: dict[int, dict], prov_id: int):
    """``lineage`` answers as the oracle does, an ambiguous one with the exact
    message: the record the walk back stops at and its same-token input
    count. Returns the oracle's chain, or None for an ambiguous lineage."""
    expected = naive_lineage(records, prov_id)
    if expected == "ambiguous":
        named, count = naive_ambiguity(records, prov_id)
        with pytest.raises(AmbiguousLineageError) as caught:
            lineage(provenance, prov_id)
        assert str(caught.value) == f"record {named} has {count} same-token inputs"
        return None
    assert lineage(provenance, prov_id) == expected
    return expected


def test_lineage_of_vaccine_chain():
    stack, ids = build_vaccine_story()
    p1, p2, p3 = ids["chain"]
    assert lineage(stack.provenance, p3) == [p1, p2, p3]


def test_lineage_base_case():
    stack, ids = build_vaccine_story()
    p1 = ids["chain"][0]
    assert lineage(stack.provenance, p1) == [p1]


def test_lineage_missing_record(stack):
    with pytest.raises(RecordNotFoundError):
        lineage(stack.provenance, 3)


def test_lineage_diamond_is_ambiguous(stack):
    """Minimal diamond: one record with two same-token inputs."""
    token = stack.request_token(ALICE)
    a = stack.provenance.create_provenance(ALICE, token, [], Context())
    b = stack.provenance.create_provenance(ALICE, token, [], Context())
    merged = stack.provenance.create_provenance(ALICE, token, [a, b], Context())
    above = stack.provenance.create_provenance(ALICE, token, [merged], Context())
    c = stack.provenance.create_provenance(ALICE, token, [], Context())
    triple = stack.provenance.create_provenance(ALICE, token, [a, b, c], Context())
    # the error names the first record on the way back that has no unique parent
    for start, named, count in ((merged, merged, 2), (above, merged, 2), (triple, triple, 3)):
        with pytest.raises(AmbiguousLineageError) as caught:
            lineage(stack.provenance, start)
        assert str(caught.value) == f"record {named} has {count} same-token inputs"


def test_lineage_and_traces_lookups_do_not_grow_with_the_chain(stack, monkeypatch):
    """Both queries read the traces kept at creation instead of fetching
    each record's inputs again; ``lineage`` fetches a record only to report
    an unknown id."""
    token = stack.request_token(ALICE)
    chain: list[int] = []
    for _ in range(50):
        chain.append(stack.provenance.create_provenance(ALICE, token, chain[-1:], Context()))
    lookups: list[int] = []
    get_record = RecordStore.get_record

    def counting(self, prov_id):
        lookups.append(prov_id)
        return get_record(self, prov_id)

    monkeypatch.setattr(RecordStore, "get_record", counting)
    assert lineage(stack.provenance, chain[-1]) == chain
    assert lookups == []
    with pytest.raises(RecordNotFoundError):
        lineage(stack.provenance, chain[-1] + 1)
    assert lookups == [chain[-1] + 1]
    lookups.clear()
    assert [trace.records for trace in traces(stack.provenance, token)] == [tuple(chain)]
    assert len(lookups) <= 2


class SeededDag:
    """Records created on a fresh stack over two tokens. Kept aside: each
    token's records, those with a same-token child (so no trace's tail) and
    those without."""

    def __init__(self):
        self.stack = layer(open_policy())
        self.tokens = [self.stack.request_token(ALICE) for _ in range(2)]
        self.token_of: dict[int, int] = {}
        self.created: dict[int, list[int]] = {token: [] for token in self.tokens}
        self.with_child: dict[int, list[int]] = {token: [] for token in self.tokens}
        self.childless: dict[int, None] = {}

    def create(self, token: int, inputs: list[int]) -> int:
        prov_id = self.stack.provenance.create_provenance(ALICE, token, inputs, Context())
        same_token = [i for i in inputs if self.token_of[i] == token]
        if len(same_token) == 1 and same_token[0] in self.childless:
            del self.childless[same_token[0]]
            self.with_child[token].append(same_token[0])
        self.token_of[prov_id] = token
        self.created[token].append(prov_id)
        self.childless[prov_id] = None
        return prov_id


def grow_forking_dag(rng: random.Random, extend: float, merge: float) -> SeededDag:
    """A 20-record chain per token, then 300 records, each a merge of 2-3
    same-token records (``merge``), an extension of a trace's tail
    (``extend``), or else a fork off one of the newest records that already
    have a child; a fifth of them also take a record of the other token."""
    dag = SeededDag()
    for token in dag.tokens:
        previous: list[int] = []
        for _ in range(20):
            previous = [dag.create(token, previous)]
    for _ in range(300):
        token = rng.choice(dag.tokens)
        roll = rng.random()
        if roll < merge:
            inputs = rng.sample(dag.created[token], rng.choice((2, 2, 3)))
        elif roll < merge + extend:
            inputs = [rng.choice([i for i in dag.childless if dag.token_of[i] == token])]
        else:
            inputs = [rng.choice(dag.with_child[token][-4:])]
        if rng.random() < 0.2:
            other = dag.tokens[0] if token == dag.tokens[1] else dag.tokens[1]
            inputs.append(rng.choice(dag.created[other]))
        dag.create(token, inputs)
    return dag


def oracle_trace_of(records: dict[int, dict]) -> dict[int, tuple[int, int]]:
    """Record id -> (token, index of the oracle trace that holds it)."""
    trace_of = {}
    for token, associated in naive_association(records).items():
        for index, trace in enumerate(naive_traces(records, associated)):
            trace_of.update((rid, (token, index)) for rid in trace)
    return trace_of


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "shape, extend, merge",
    [("every record forks", 0.0, 0.0), ("forks of forks", 0.5, 0.0),
     ("merges above forks", 0.45, 0.15)],
)
def test_lineage_matches_oracle_on_forking_dags(shape, extend, merge, seed):
    dag = grow_forking_dag(random.Random(f"{shape} {seed}"), extend, merge)
    provenance = dag.stack.provenance
    records = export_records(provenance)
    trace_of = oracle_trace_of(records)
    deepest, ambiguous_over_forks = 0, 0
    for prov_id in records:
        chain = assert_lineage_matches(provenance, records, prov_id)
        if chain is None:
            # the walk back from the record to the merge it names crosses a fork
            named, _ = naive_ambiguity(records, prov_id)
            cut = records | {named: {**records[named], "inputProvenanceIds": []}}
            chain = naive_lineage(cut, prov_id)
            ambiguous_over_forks += len({trace_of[rid] for rid in chain}) > 1
        else:
            deepest = max(deepest, len({trace_of[rid] for rid in chain}))
    if shape == "every record forks":
        # each record forks off the first chain, so no lineage spans more
        assert deepest == 2
    else:
        assert deepest >= 4
    assert (ambiguous_over_forks > 0) == (merge > 0)


def test_lineage_of_a_long_chain_with_forks():
    dag = SeededDag()
    token = dag.tokens[0]
    chain: list[int] = []
    for _ in range(5_000):
        chain.append(dag.create(token, chain[-1:]))
    rng = random.Random(24)
    forks = [dag.create(token, [rng.choice(chain[:-1])]) for _ in range(20)]
    provenance = dag.stack.provenance
    records = export_records(provenance)
    assert lineage(provenance, chain[-1]) == chain
    for prov_id in forks + rng.sample(chain, 30):
        assert_lineage_matches(provenance, records, prov_id)


@pytest.mark.parametrize("base", ["root", "merge"])
def test_lineage_across_a_fork_chain_of_2000_segments(base):
    """Each segment opens with a fork off a record of the one before that
    already has a child; over a merge every lineage is ambiguous, and names
    the merge 2,000 segments back."""
    dag = SeededDag()
    token = dag.tokens[0]
    rng = random.Random(base)
    roots = [dag.create(token, []) for _ in range(2)]
    segment = [dag.create(token, roots if base == "merge" else roots[:1])]
    heads = [segment[0]]
    for _ in range(1, 2_000):
        for _ in range(rng.randint(1, 2)):
            segment.append(dag.create(token, segment[-1:]))
        segment = [dag.create(token, [rng.choice(segment[:-1])])]
        heads.append(segment[0])
    segment.append(dag.create(token, segment[-1:]))
    provenance = dag.stack.provenance
    records = export_records(provenance)
    for prov_id in [segment[-1], heads[-1], heads[1_000], *rng.sample(sorted(records), 20)]:
        assert_lineage_matches(provenance, records, prov_id)
    if base == "root":
        chain = lineage(provenance, segment[-1])
        trace_of = oracle_trace_of(records)
        assert len({trace_of[rid] for rid in chain}) == 2_000
        assert chain[0] == roots[0] and chain[-1] == segment[-1]


def test_derivation_graph_of_converted_average():
    stack, ids = build_vaccine_story()
    graph = derivation_graph(stack.provenance, ids["conv"], 2)
    expected_nodes = {ids["conv"], ids["avg"], *ids["sensors"]}
    assert {record.id for record in graph.nodes} == expected_nodes
    assert len(graph.nodes) == 5
    assert len(graph.edges) == 4


def test_derivation_graph_depth_bound_matches_oracle():
    stack, ids = build_vaccine_story()
    records = export_records(stack.provenance)
    graph = derivation_graph(stack.provenance, ids["conv"], 1)
    assert {record.id for record in graph.nodes} == {ids["conv"], ids["avg"]}
    assert graph.edges == ((ids["conv"], ids["avg"]),)
    nodes, edges = naive_derivation(records, ids["conv"], 1)
    assert {record.id for record in graph.nodes} == nodes
    assert set(graph.edges) == edges
    assert canonical_json(graph.as_dict()) == serialize_graph(records, nodes, edges)


def test_derivation_graph_no_inputs():
    stack, ids = build_vaccine_story()
    p1 = ids["chain"][0]
    graph = derivation_graph(stack.provenance, p1, 5)
    assert len(graph.nodes) == 1
    assert graph.edges == ()


def test_derivation_graph_depth_zero_and_missing():
    stack, ids = build_vaccine_story()
    graph = derivation_graph(stack.provenance, ids["conv"], 0)
    assert len(graph.nodes) == 1 and graph.edges == ()
    with pytest.raises(RecordNotFoundError):
        derivation_graph(stack.provenance, 777, 1)


def test_traces_parallel_aircraft():
    stack, ids = build_vaccine_story()
    found = traces(stack.provenance, ids["air"])
    assert len(found) == 2
    temp, loc = ids["air_traces"]
    assert found[0].records == (temp,)
    assert found[1].records == (loc,)


def test_traces_single_lineage():
    stack, ids = build_vaccine_story()
    found = traces(stack.provenance, ids["vacc"])
    assert len(found) == 1
    assert found[0].records == ids["chain"]
    assert found[0].head == ids["chain"][-1]


def test_traces_empty_and_missing(stack):
    token = stack.request_token(ALICE)
    assert traces(stack.provenance, token) == []
    with pytest.raises(TokenNotFoundError):
        traces(stack.provenance, 9)


def test_trace_fork_starts_new_chain(stack):
    """A second child of the same record cannot share the parent's chain."""
    token = stack.request_token(ALICE)
    root = stack.provenance.create_provenance(ALICE, token, [], Context())
    first = stack.provenance.create_provenance(ALICE, token, [root], Context())
    second = stack.provenance.create_provenance(ALICE, token, [root], Context())
    found = traces(stack.provenance, token)
    assert [trace.records for trace in found] == [(root, first), (second,)]


def test_dot_export_mentions_every_node_and_edge():
    stack, ids = build_vaccine_story()
    graph = derivation_graph(stack.provenance, ids["conv"], 2)
    dot = graph.to_dot()
    assert dot.startswith("digraph provenance {")
    for record in graph.nodes:
        assert f"p{record.id} " in dot
    for src, dst in graph.edges:
        assert f"p{src} -> p{dst};" in dot


def test_identical_stores_serialize_identically():
    first, ids_a = build_vaccine_story()
    second, ids_b = build_vaccine_story()
    assert ids_a == ids_b
    a = canonical_json(derivation_graph(first.provenance, ids_a["conv"], 3).as_dict())
    b = canonical_json(derivation_graph(second.provenance, ids_b["conv"], 3).as_dict())
    assert a.encode() == b.encode()


def test_oracle_equivalence_on_random_dags():
    """Smaller sibling of the acceptance sweep: 20 random DAGs, every query
    cross-checked against the plain-data reference."""
    for seed in range(20):
        rng = random.Random(1000 + seed)
        stack = layer(open_policy())
        token_count, steps = random_dag_plan(rng, max_records=120)
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
        by_token = naive_association(records)

        sample = created if len(created) <= 25 else rng.sample(created, 25)
        for prov_id in sample:
            assert_lineage_matches(stack.provenance, records, prov_id)
            depth = rng.randint(0, 4)
            nodes, edges = naive_derivation(records, prov_id, depth)
            graph = derivation_graph(stack.provenance, prov_id, depth)
            assert canonical_json(graph.as_dict()) == serialize_graph(records, nodes, edges)

        for token in tokens:
            expected_chains = naive_traces(records, by_token.get(token, []))
            actual = [list(trace.records) for trace in traces(stack.provenance, token)]
            assert actual == expected_chains


def random_ledger(rng: random.Random):
    """A ledger built through blocks of random transactions: token requests,
    transfers, creates with same-token and cross-token fan-in, updates and
    invalidations. Some fail (an input invalidated earlier in the block, a
    sender that lost its token), and a failed create must leave no link."""
    ledger = quick_ledger(capacity=6)
    clients = [ClientId.from_alias(f"q{i}") for i in range(3)]
    machine = ledger.machine
    for _ in range(60):
        for _ in range(rng.randint(1, 6)):
            tokens = machine.tokens.token_ids()
            count = machine.provenance.records.record_count()
            roll = rng.random()
            sender = rng.choice(clients)
            if not tokens or roll < 0.06:
                payload = {"op": "requestToken", "payment": 0}
            elif roll < 0.12:
                token = rng.choice(tokens)
                sender = machine.tokens.owner_of(token)
                payload = {"op": "transfer", "tokenId": token, "from": sender.hex,
                           "to": rng.choice(clients).hex}
            elif roll < 0.24 and count:
                prov_id = rng.randint(1, count)
                token = machine.provenance.records.get_record(prov_id).token_id
                sender = machine.tokens.owner_of(token)
                payload = (
                    {"op": "invalidate", "provId": prov_id}
                    if roll < 0.18
                    else {"op": "updateContext", "provId": prov_id, "context": {"agent": "u"}}
                )
            else:
                token = rng.choice(tokens)
                sender = machine.tokens.owner_of(token)
                own = machine.provenance.get_associated_provenance(token)[-4:]
                inputs = set(rng.sample(own, min(len(own), rng.choice((0, 1, 1, 1, 2, 3)))))
                if count and rng.random() < 0.3:
                    inputs.add(rng.randint(1, count))
                payload = {"op": "createProvenance", "tokenId": token,
                           "inputs": sorted(inputs), "context": {"agent": "c"}}
            ledger.submit_payload(sender, payload, fee=rng.randint(1, 5))
        ledger.produce_block()
    while ledger.pending_count():
        ledger.produce_block()
    return ledger


def assert_queries_match_oracles(machine, rng: random.Random) -> set[str]:
    """Every record's lineage and a random-depth graph, and every token's
    association list and traces, against the plain-data oracles, with the
    token answers checked to be copies; returns the lineage kinds seen."""
    provenance = machine.provenance
    records = export_records(provenance)
    by_token = naive_association(records)
    assert provenance.same_token_parents.keys() == records.keys()
    seen = set()
    for prov_id in records:
        expected = assert_lineage_matches(provenance, records, prov_id)
        if expected is None:
            seen.add("ambiguous")
        else:
            seen.add("chain" if len(expected) > 2 else "short")
        depth = rng.randint(0, 4)
        nodes, edges = naive_derivation(records, prov_id, depth)
        graph = derivation_graph(provenance, prov_id, depth)
        assert canonical_json(graph.as_dict()) == serialize_graph(records, nodes, edges)
    for token in machine.tokens.token_ids():
        associated = by_token.pop(token, [])
        expected = [
            Trace(head=chain[-1], records=tuple(chain))
            for chain in naive_traces(records, associated)
        ]
        answer = traces(provenance, token)
        listed = provenance.get_associated_provenance(token)
        assert (answer, listed) == (expected, associated)
        # every answer is a copy: changing one leaves the next unchanged
        for trace in answer:
            object.__setattr__(trace, "records", trace.records + (0,))
        answer.clear()
        listed.append(0)
        assert traces(provenance, token) == expected
        assert provenance.get_associated_provenance(token) == associated
    assert by_token == {}
    return seen


@pytest.mark.parametrize("seed", range(4))
def test_queries_match_oracles_on_ledger_and_replay(tmp_path, seed):
    """The links and traces are derived state, not hashed: a replayed ledger
    rebuilds the same ones, and both answer every query as the oracles do."""
    ledger = random_ledger(random.Random(5_000 + seed))
    ledger.persist(tmp_path)
    reloaded = load_ledger(tmp_path)
    assert "associated" not in ledger.state_snapshot()
    assert reloaded.state_snapshot() == ledger.state_snapshot()
    assert reloaded.machine.provenance.same_token_parents == ledger.machine.provenance.same_token_parents
    for machine in (ledger.machine, reloaded.machine):
        seen = assert_queries_match_oracles(machine, random.Random(seed))
        assert seen == {"ambiguous", "chain", "short"}


@pytest.mark.parametrize("seed", range(2))
def test_record_trace_map_on_ledger_and_replay(tmp_path, seed):
    """The record → trace map holds exactly the stored records, each in one
    of its token's traces, and replay rebuilds the same map."""
    ledger = random_ledger(random.Random(6_000 + seed))
    ledger.persist(tmp_path)
    reloaded = load_ledger(tmp_path)
    for provenance in (ledger.machine.provenance, reloaded.machine.provenance):
        assert provenance.record_traces.keys() == export_records(provenance).keys()
        for prov_id, trace in provenance.record_traces.items():
            assert prov_id in trace
            token = provenance.records.get_record(prov_id).token_id
            assert tuple(trace) in provenance.token_traces(token)
    assert dict(reloaded.machine.provenance.record_traces) == dict(
        ledger.machine.provenance.record_traces
    )
