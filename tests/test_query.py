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
    """Both queries follow the links fixed at creation instead of fetching
    each record's inputs again."""
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
    assert len(lookups) <= 2
    lookups.clear()
    assert [trace.records for trace in traces(stack.provenance, token)] == [tuple(chain)]
    assert len(lookups) <= 2


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
            expected = naive_lineage(records, prov_id)
            if expected == "ambiguous":
                with pytest.raises(AmbiguousLineageError):
                    lineage(stack.provenance, prov_id)
            else:
                assert lineage(stack.provenance, prov_id) == expected

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
        expected = naive_lineage(records, prov_id)
        if expected == "ambiguous":
            message = r"^record \d+ has \d+ same-token inputs$"
            with pytest.raises(AmbiguousLineageError, match=message):
                lineage(provenance, prov_id)
            seen.add("ambiguous")
        else:
            assert lineage(provenance, prov_id) == expected
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

