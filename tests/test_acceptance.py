"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a [PASS]/[FAIL] line (run pytest with -s to see them live).
The public-testnet throughput figures the evaluation narrative reports are
environment measurements and are deliberately replaced here by deterministic
simulator properties and scenario-level functional checks.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import pytest

from provledger import (
    ClientId,
    Context,
    Ledger,
    SimConfig,
    canonical_json,
    derivation_graph,
    lineage,
    load_scenario,
    policy_from_dict,
    run_benchmark,
    run_scenario,
    traces,
    verify_chain,
)
from provledger.errors import InvalidInputError, LedgerError, NotAuthorizedError
from provledger.ledger import BLOCKS_FILE
from oracles import (
    export_records,
    naive_association,
    naive_derivation,
    naive_lineage,
    naive_traces,
    random_dag_plan,
    serialize_graph,
)
from support import FIXTURES, assert_log_matches, layer, open_policy, quick_ledger


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def fixture_ledger() -> Ledger:
    policy = policy_from_dict(json.loads((FIXTURES / "vaccine_policy.json").read_text()))
    config = SimConfig.from_dict(json.loads((FIXTURES / "sim_config.json").read_text()))
    return Ledger(policy, config)


def test_criterion_1_vaccine_scenario_fidelity():
    with criterion("C1 vaccine scenario fidelity"):
        started = time.perf_counter()
        ledger = fixture_ledger()
        steps = load_scenario(FIXTURES / "vaccine_cold_chain.json")
        outcomes = run_scenario(ledger, steps)
        assert all(outcome.matched for outcome in outcomes)

        machine = ledger.machine.provenance
        assert lineage(machine, 3) == [1, 2, 3]

        graph = derivation_graph(machine, 8, 2)
        assert len(graph.nodes) == 5
        assert len(graph.edges) == 4
        assert {record.id for record in graph.nodes} == {8, 7, 4, 5, 6}

        aircraft_traces = traces(machine, 7)
        assert len(aircraft_traces) == 2

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"scenario replay took {elapsed:.3f}s"


def test_criterion_2_ownership_enforcement():
    with criterion("C2 ownership enforcement over 10,000 random pairs"):
        rng = random.Random(20_26)
        stack = layer(open_policy())
        clients = [ClientId.from_alias(f"client-{i}") for i in range(6)]
        tokens = [stack.request_token(clients[i % len(clients)]) for i in range(30)]

        violations = 0
        for step in range(10_000):
            if step % 10 == 0:  # keep ownership and approvals moving
                token = rng.choice(tokens)
                owner = stack.tokens.owner_of(token)
                other = rng.choice(clients)
                if rng.random() < 0.5:
                    stack.tokens.transfer(owner, owner, other, token)
                else:
                    stack.tokens.approve(owner, other, token)
            caller = rng.choice(clients)
            token = rng.choice(tokens)
            authorized = stack.tokens.is_authorized(caller, token)
            try:
                stack.provenance.create_provenance(
                    caller, token, [], Context({"agent": "probe"})
                )
                succeeded = True
            except NotAuthorizedError:
                succeeded = False
            if succeeded != authorized:
                violations += 1
        assert violations == 0


def test_criterion_3_invalidation_semantics():
    with criterion("C3 invalidation semantics over randomized sequences"):
        rng = random.Random(33)
        stack = layer(open_policy())
        owner = ClientId.from_alias("owner")
        tokens = [stack.request_token(owner) for _ in range(5)]
        records: list[int] = []
        invalidated: set[int] = set()
        violations = 0
        for _ in range(2_000):
            action = rng.random()
            if action < 0.15 and records:
                target = rng.choice(records)
                if target not in invalidated:
                    stack.provenance.invalidate_provenance(owner, target)
                    invalidated.add(target)
            else:
                token = rng.choice(tokens)
                inputs = (
                    rng.sample(records, rng.randint(1, min(3, len(records))))
                    if records and action > 0.3
                    else []
                )
                expect_failure = any(i in invalidated for i in inputs)
                try:
                    new_id = stack.provenance.create_provenance(
                        owner, token, inputs, Context({"agent": "x"})
                    )
                    records.append(new_id)
                    if expect_failure:
                        violations += 1
                except InvalidInputError:
                    if not expect_failure:
                        violations += 1
            # reads of invalidated records must keep working
            for target in list(invalidated)[:5]:
                if stack.provenance.records.get_record(target).status.value != "invalidated":
                    violations += 1
        assert violations == 0
        assert invalidated, "sequence never invalidated anything"


def test_criterion_4_tamper_evidence(tmp_path):
    with criterion("C4 tamper evidence: full byte-flip fuzz on a 10-block log"):
        started = time.perf_counter()
        ledger = quick_ledger(interval=1000, capacity=4)
        alice = ClientId.from_alias("alice")
        ledger.submit_payload(alice, {"op": "requestToken", "payment": 0})
        ledger.produce_block()
        for i in range(8):  # heights 2..9 -> a 10-block chain including genesis
            ledger.submit_payload(
                alice,
                {
                    "op": "createProvenance",
                    "tokenId": 1,
                    "inputs": [],
                    "context": {"agent": f"probe-{i}"},
                },
            )
            ledger.produce_block()
        assert ledger.height == 9
        directory = tmp_path / "fuzzed"
        ledger.persist(directory)
        path = directory / BLOCKS_FILE
        original = path.read_bytes()

        detected = 0
        for offset in range(len(original)):
            damaged = bytearray(original)
            damaged[offset] ^= 0x01
            path.write_bytes(bytes(damaged))
            if not verify_chain(directory).ok:
                detected += 1
        path.write_bytes(original)

        assert detected == len(original), (
            f"{len(original) - detected} of {len(original)} byte flips went undetected"
        )
        assert verify_chain(directory).ok is True
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"fuzz took {elapsed:.1f}s"


def test_criterion_5_throughput_ceiling_and_fee_insensitivity():
    with criterion("C5 throughput ceiling 0.667 tps, fee sweep changes nothing"):
        config = SimConfig(block_interval_ms=15_000, block_capacity=10, rng_seed=7)
        tps_by_fee = {}
        for fee in (1, 2, 5, 10, 20):
            report = run_benchmark(config, tx_count=150, window_ms=60_000, fee=fee)
            assert abs(report.tps - 0.667) <= 1e-3, f"tps {report.tps} at fee {fee}"
            tps_by_fee[fee] = report.tps
        assert len(set(tps_by_fee.values())) == 1, f"fee changed tps: {tps_by_fee}"
        # deterministic: an identical run reproduces the report exactly
        assert run_benchmark(config, 150, 60_000, 5) == run_benchmark(config, 150, 60_000, 5)


def test_criterion_6_latency_convergence():
    with criterion("C6 latency monotone in fee rank; top class within one interval"):
        interval, capacity = 10_000, 8
        fees = (1, 2, 5, 10, 20)
        ledger = quick_ledger(interval=interval, capacity=capacity)
        senders = {fee: ClientId.from_alias(f"class-{fee}") for fee in fees}
        for fee in fees:
            ledger.submit_payload(senders[fee], {"op": "requestToken", "payment": 0}, fee=50)
        ledger.produce_block()
        token_of = {fee: i + 1 for i, fee in enumerate(fees)}

        t0 = ledger.now
        window = 100_000
        pending: list = []
        for i in range(40):  # 4 arrivals per class per interval; 20 total vs capacity 8
            at = t0 + i * 2_500
            for fee in fees:
                pending.append(
                    ledger.build_transaction(
                        senders[fee],
                        {
                            "op": "createProvenance",
                            "tokenId": token_of[fee],
                            "inputs": [],
                            "context": {"agent": f"{fee}@{i}"},
                        },
                        fee=fee,
                        submitted_at=at,
                        nonce=i + 1,
                    )
                )
        pending.sort(key=lambda tx: (tx.submitted_at, tx.sender.hex))
        index = 0
        latencies: dict[int, list[int]] = {fee: [] for fee in fees}
        for _ in range(60):
            boundary = ledger.next_block_timestamp()
            while index < len(pending) and pending[index].submitted_at <= boundary:
                ledger.submit(pending[index])
                index += 1
            block, outcomes = ledger.produce_block()
            for outcome in outcomes:
                latencies[outcome.tx.fee].append(block.timestamp - outcome.tx.submitted_at)
            if index >= len(pending) and ledger.pending_count() == 0:
                break
        assert ledger.pending_count() == 0

        means = [sum(latencies[fee]) / len(latencies[fee]) for fee in fees]
        # higher fee class -> mean latency no worse
        for cheaper, pricier in zip(means, means[1:]):
            assert pricier <= cheaper + 1e-9, f"means not monotone: {means}"
        assert means[-1] <= interval, f"top fee class mean {means[-1]} > one interval"
        assert means[0] > interval  # the cheapest class really was contended


def test_criterion_7_oracle_equivalence():
    with criterion("C7 query oracle equivalence on 100 random DAGs"):
        for case in range(100):
            rng = random.Random(9_000 + case)
            stack = layer(open_policy())
            max_records = 1000 if case < 2 else 240  # two full-size, rest varied
            token_count, steps = random_dag_plan(rng, max_records=max_records)
            owner = ClientId.from_alias("dag-owner")
            tokens = [stack.request_token(owner) for _ in range(token_count)]
            created: list[int] = []
            for token_index, input_positions in steps:
                created.append(
                    stack.provenance.create_provenance(
                        owner,
                        tokens[token_index],
                        [created[i] for i in input_positions],
                        Context({"agent": "gen"}),
                    )
                )
            records = export_records(stack.provenance)

            sample = created if len(created) <= 20 else rng.sample(created, 20)
            for prov_id in sample:
                expected = naive_lineage(records, prov_id)
                if expected == "ambiguous":
                    with pytest.raises(LedgerError):
                        lineage(stack.provenance, prov_id)
                else:
                    actual = lineage(stack.provenance, prov_id)
                    assert canonical_json(actual) == canonical_json(expected)

                depth = rng.randint(0, 5)
                nodes, edges = naive_derivation(records, prov_id, depth)
                graph = derivation_graph(stack.provenance, prov_id, depth)
                assert canonical_json(graph.as_dict()) == serialize_graph(records, nodes, edges)

            by_token = naive_association(records)
            for token in tokens:
                expected_chains = naive_traces(records, by_token.get(token, []))
                actual_chains = [list(t.records) for t in traces(stack.provenance, token)]
                assert canonical_json(actual_chains) == canonical_json(expected_chains)


def test_criterion_8_replay_determinism(tmp_path):
    with criterion("C8 replay determinism over 50 randomized 200-tx runs"):
        ops = ("request", "create", "create", "create", "transfer", "approve",
               "invalidate", "update")
        for run in range(50):
            rng = random.Random(40_000 + run)
            ledger = quick_ledger(interval=500, capacity=7, seed=run, jitter=run % 2 == 0)
            produced = [ledger.head]
            clients = [ClientId.from_alias(f"r{run}-c{i}") for i in range(4)]
            submitted = 0
            while submitted < 200:
                sender = rng.choice(clients)
                kind = rng.choice(ops)
                tokens = range(1, ledger.machine.next_token_id)
                payload = None
                if kind == "request" or not tokens:
                    payload = {"op": "requestToken", "payment": 0}
                elif kind == "create":
                    count = ledger.machine.provenance.records.record_count()
                    inputs = (
                        sorted(rng.sample(range(1, count + 1), rng.randint(0, min(2, count))))
                        if count
                        else []
                    )
                    payload = {
                        "op": "createProvenance",
                        "tokenId": rng.choice(tokens),
                        "inputs": inputs,
                        "context": {"agent": f"a{submitted}"},
                    }
                elif kind == "transfer":
                    token = rng.choice(tokens)
                    payload = {
                        "op": "transfer",
                        "tokenId": token,
                        "from": ledger.machine.tokens.owner_of(token).hex,
                        "to": rng.choice(clients).hex,
                    }
                elif kind == "approve":
                    payload = {
                        "op": "approve",
                        "tokenId": rng.choice(tokens),
                        "operator": rng.choice(clients).hex,
                    }
                elif kind == "invalidate":
                    count = ledger.machine.provenance.records.record_count()
                    payload = {"op": "invalidate", "provId": rng.randint(1, max(count, 1))}
                else:
                    count = ledger.machine.provenance.records.record_count()
                    payload = {
                        "op": "updateContext",
                        "provId": rng.randint(1, max(count, 1)),
                        "context": {"agent": f"u{submitted}"},
                    }
                ledger.submit_payload(sender, payload, fee=rng.randint(1, 9))
                submitted += 1
                if rng.random() < 0.25:
                    produced.append(ledger.produce_block()[0])
            while ledger.pending_count():
                produced.append(ledger.produce_block()[0])

            directory = tmp_path / f"run{run}"
            ledger.persist(directory)
            # state digest equal after every block
            loaded = assert_log_matches(ledger, directory, produced)
            assert loaded.state_snapshot() == ledger.state_snapshot()
