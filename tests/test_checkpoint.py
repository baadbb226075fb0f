"""State restore and the checkpoint a load starts from.

``Ledger.restore`` builds a ledger from a state snapshot; ``load_ledger``
restores one from ``checkpoint.json`` when the file binds to the log and
replays only the blocks after it. These tests hold a restored ledger to a
full replay: its indexes, its state and digest, the blocks it goes on to
produce, what the CLI prints from it, and the corruption a load reports.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import sys
import tracemalloc
from pathlib import Path

import orjson
import pytest
from click.testing import CliRunner

from provledger import Block, Ledger, load_ledger, verify_chain
from provledger import ledger as ledger_module
from provledger.cli import main
from provledger.errors import CorruptLogError
from provledger.ledger import BLOCKS_FILE, CHECKPOINT_FILE
from provledger.records import Context
from provledger.statehash import snapshot_digest
from support import ALICE, BOB, CAROL, FIXTURES, MALLORY, fee_policy, quick_ledger
from test_ledger import (
    FAILURE_POLICIES,
    FUZZ_CASES,
    create_payload,
    fuzzed_line,
    plausible_sender,
    random_payload,
    varied_chain,
)
from test_cli import COLD_CHAIN_LOG_SHA256

INDEX_POLICIES = ("open", "fee", "whitelist")


def indexes(ledger: Ledger) -> tuple[dict, dict]:
    """The provenance layer's derived indexes as plain data: each token's
    traces, and each record's trace and the same-token parent of its head."""
    provenance = ledger.machine.provenance
    traces = {token: [list(trace) for trace in kept] for token, kept in provenance._traces.items()}
    trace_of = {
        prov_id: (list(trace), parent) for prov_id, (trace, parent) in provenance._trace_of.items()
    }
    return traces, trace_of


def assert_traces_are_shared(ledger: Ledger) -> None:
    """Each record's entry holds its token's trace list itself, and every
    record of a trace shares one entry, as :meth:`create_provenance` keeps them."""
    provenance = ledger.machine.provenance
    for token, kept in provenance._traces.items():
        for trace in kept:
            entry = provenance._trace_of[trace[0]]
            assert entry[0] is trace
            assert all(provenance._trace_of[prov_id] is entry for prov_id in trace)
            assert provenance.records.get_record(trace[0]).token_id == token


def seeded_create(rng: random.Random, ledger: Ledger) -> dict:
    """A create on an existing token, often extending a recent record of the
    same token, sometimes joining records of several."""
    machine = ledger.machine
    records = machine.provenance.records.record_count()
    recent = range(max(1, records - 5), records + 1) if records else range(0)
    inputs = rng.sample(recent, k=min(len(recent), rng.choice([0, 1, 1, 1, 2, 3])))
    token_id = rng.randint(1, max(1, machine.next_token_id - 1))
    if inputs and rng.random() < 0.7:
        token_id = machine.provenance.records.get_record(inputs[0]).token_id
    return create_payload(token_id=token_id, inputs=inputs, agent=f"r{records}")


def seeded_schedule(policy_name: str, seed: int, blocks: int = 30):
    """A ledger after ``blocks`` blocks of seeded payloads of every op, half
    of them creates, the first after every client asked for a token; and
    genesis and each block with the state snapshot and indexes right after
    it."""
    rng = random.Random(seed)
    ledger = quick_ledger(policy=FAILURE_POLICIES[policy_name], capacity=6)
    clients = [ALICE, BOB, CAROL, MALLORY]
    for client in clients:
        ledger.submit_payload(client, {"op": "requestToken", "payment": 2})
    steps = [(ledger.head, ledger.state_snapshot(), indexes(ledger))]
    for _ in range(blocks):
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.5:
                payload = seeded_create(rng, ledger)
            else:
                payload = random_payload(rng, ledger, clients)
            ledger.submit_payload(plausible_sender(rng, ledger, payload, clients), payload)
        block, _ = ledger.produce_block()
        steps.append((block, ledger.state_snapshot(), indexes(ledger)))
    return ledger, steps


# --- restore --------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("policy_name", INDEX_POLICIES)
def test_rebuilt_indexes_equal_the_incremental_ones(policy_name, seed):
    ledger, steps = seeded_schedule(policy_name, seed)
    assert ledger.machine.provenance.records.record_count() > 5
    for block, snapshot, kept in steps:
        restored = Ledger.restore(ledger.policy, ledger.config, block, snapshot)
        assert indexes(restored) == kept
        assert_traces_are_shared(restored)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("policy_name", INDEX_POLICIES)
def test_restore_then_replay_equals_a_full_replay(policy_name, seed):
    """Restored at height h, a ledger given blocks h+1 onward produces the
    same blocks, byte for byte, and ends in the same state and digest."""
    ledger, steps = seeded_schedule(policy_name, seed)
    for height in range(0, len(steps), 4):
        block, snapshot, _ = steps[height]
        restored = Ledger.restore(ledger.policy, ledger.config, block, snapshot)
        assert restored.head == block
        assert restored.state_snapshot() == snapshot
        # the oracle: a restore hashes the leaves it read, not the state it built
        assert snapshot_digest(restored.state_snapshot()) == block.state_digest
        for later, _, _ in steps[height + 1 :]:
            for tx in later.transactions:
                restored.submit(tx)
            produced, _ = restored.produce_block()
            assert produced.wire_line() == later.wire_line()
        assert restored.state_snapshot() == ledger.state_snapshot()
        assert restored.state_digest() == ledger.state_digest()


def test_restore_refuses_a_state_its_head_does_not_commit_to():
    ledger, steps = seeded_schedule("fee", 1)
    block, snapshot, _ = steps[-1]
    earlier, _, _ = steps[-2]
    assert block.state_digest != earlier.state_digest
    with pytest.raises(ValueError, match="commits to"):
        Ledger.restore(ledger.policy, ledger.config, earlier, snapshot)
    for key, value in (("treasury", snapshot["treasury"] + 1), ("whitelist", [BOB.hex])):
        with pytest.raises(ValueError, match="commits to"):
            Ledger.restore(ledger.policy, ledger.config, block, {**snapshot, key: value})
    # what the leaf sum does not see is refused before it is taken: an
    # item's position, the type of its id, a context's key order
    records, tokens = snapshot["records"], snapshot["tokens"]
    unsorted = {**records[0], "context": {"time": "5am", "agent": "a"}}
    for key, value, match in (
        ("records", [records[1], records[0], *records[2:]], "^item 1 names id 2$"),
        ("tokens", tokens[::-1], f"^item 1 names id {len(tokens)}$"),
        ("records", [{**records[0], "id": True}, *records[1:]], "^item 1 names id True$"),
        ("records", [unsorted, *records[1:]], "context keys out of order"),
    ):
        with pytest.raises(ValueError, match=match):
            Ledger.restore(ledger.policy, ledger.config, block, {**snapshot, key: value})
    # a scalar the digest writes as its text, which a string of its digits has too
    for key in ("treasury", "seededTotal"):
        with pytest.raises(ValueError, match="must be integers"):
            Ledger.restore(ledger.policy, ledger.config, block, {**snapshot, key: str(snapshot[key])})
    # a count the digest multiplies its leaf by: True would count as 1
    sender = next(iter(snapshot["nonces"]))
    for count in (True, 0, 1.0):
        nonces = {**snapshot["nonces"], sender: count}
        with pytest.raises(ValueError, match="nonce count"):
            Ledger.restore(ledger.policy, ledger.config, block, {**snapshot, "nonces": nonces})


def test_a_restore_checks_and_builds_no_context_again(monkeypatch):
    """A restore hashes each record leaf as read, so the contexts the digest
    proves are taken over: none is checked or built by the constructor."""
    from provledger import ledger as ledger_mod
    from provledger import records as records_mod

    ledger, steps = seeded_schedule("fee", 2)
    block, snapshot, _ = steps[-1]
    assert any(item["context"] for item in snapshot["records"])
    calls = {"check": 0, "init": 0}

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    check = counting("check", records_mod.check_context_entries)
    monkeypatch.setattr(records_mod, "check_context_entries", check)
    monkeypatch.setattr(ledger_mod, "check_context_entries", check)
    monkeypatch.setattr(Context, "__init__", counting("init", Context.__init__))
    restored = Ledger.restore(ledger.policy, ledger.config, block, snapshot)
    assert calls == {"check": 0, "init": 0}
    assert restored.state_snapshot() == snapshot
    # the counters count: a context made by its constructor is checked
    Context({"agent": "a"})
    assert calls == {"check": 1, "init": 1}


def test_a_restored_record_holds_its_inputs_own_ids():
    """As a created record does (``test_a_record_holds_its_inputs_own_ids``),
    a restored one holds its inputs' own id objects, not the equal ints the
    snapshot decodes to."""
    ledger = quick_ledger(capacity=400)
    ledger.submit_payload(ALICE, {"op": "requestToken", "payment": 0})
    ledger.produce_block()
    for n in range(300):
        ledger.submit_payload(ALICE, create_payload(agent=f"r{n}"))
    ledger.submit_payload(ALICE, create_payload(inputs=[300, 258, 1], agent="joined"))
    ledger.produce_block()
    snapshot = orjson.loads(orjson.dumps(ledger.state_snapshot()))
    restored = Ledger.restore(ledger.policy, ledger.config, ledger.head, snapshot)
    store = restored.machine.provenance.records
    input_ids = store.get_record(301).input_ids
    assert input_ids == (300, 258, 1)
    assert all(held is store.get_record(held).id for held in input_ids)
    assert store.get_record(300).id is not snapshot["records"][299]["id"]


def held_bytes(load) -> int:
    """Bytes the ledger ``load()`` returns holds, counted by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ledger = load()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ledger.machine.provenance.records.record_count() > 0
    return held


def test_a_restored_ledger_holds_no_more_than_a_replayed_one(tmp_path):
    ledger = quick_ledger(capacity=50)
    ledger.submit_payload(ALICE, {"op": "requestToken", "payment": 0})
    ledger.produce_block()
    for n in range(600):
        inputs = [n] if n % 3 else []
        ledger.submit_payload(ALICE, create_payload(inputs=inputs, agent=f"agent-{n % 7}"))
        if n % 50 == 49:
            ledger.produce_block()
    ledger.produce_block()
    directory = tmp_path / "ledger"
    ledger.persist(directory)
    load_ledger(directory)  # writes the checkpoint
    replayed = held_bytes(lambda: load_ledger(directory, checkpoint=False))
    restored = held_bytes(lambda: load_ledger(directory))
    assert restored <= replayed * 1.05, (restored, replayed)


# --- checkpointed loads -----------------------------------------------------------

def count_parsed_lines(monkeypatch) -> list:
    parsed = []
    real = Block.__dict__["from_wire"].__func__

    def counted(cls, *args, **kwargs):
        parsed.append(1)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Block, "from_wire", classmethod(counted))
    return parsed


def test_a_load_writes_a_checkpoint_and_the_next_replays_only_later_blocks(
    tmp_path, monkeypatch
):
    directory = tmp_path / "ledger"
    ledger = quick_ledger()
    ledger.persist(directory)
    assert load_ledger(directory).head == ledger.head
    # nothing replayed: no checkpoint, at genesis or anywhere
    assert not (directory / CHECKPOINT_FILE).exists()
    for client in (ALICE, BOB, CAROL):  # tokens 1, 2 and 3
        ledger.submit_payload(client, {"op": "requestToken", "payment": 0})
        ledger.produce_block()
    for n in range(3):
        ledger.submit_payload(ALICE, create_payload(agent=f"a{n}"))
        ledger.produce_block()
    ledger.persist(directory)
    parsed = count_parsed_lines(monkeypatch)
    assert load_ledger(directory).state_snapshot() == ledger.state_snapshot()
    assert len(parsed) == 6
    checkpoint = json.loads((directory / CHECKPOINT_FILE).read_bytes())
    log = (directory / BLOCKS_FILE).read_bytes()
    # created as the log is, so whoever may read the log may read the checkpoint
    assert (directory / CHECKPOINT_FILE).stat().st_mode == (directory / BLOCKS_FILE).stat().st_mode
    assert checkpoint["height"] == 6
    assert checkpoint["blockHash"] == ledger.head.block_hash
    assert log[checkpoint["offset"] :] == ledger.head.wire_line().encode() + b"\n"
    assert checkpoint["state"] == ledger.state_snapshot()

    # 6 records and tokens held: a tail of fewer transactions writes no new checkpoint
    parsed.clear()
    for n in range(5):
        ledger.submit_payload(BOB, create_payload(token_id=2, agent=f"b{n}"))
        ledger.produce_block()
        ledger.persist(directory)
        loaded = load_ledger(directory)
        assert loaded.state_snapshot() == ledger.state_snapshot()
        assert loaded.head == ledger.head
        # the checkpoint's own line, then the tail after it
        assert len(parsed) == 1 + n + 1
        assert json.loads((directory / CHECKPOINT_FILE).read_bytes())["height"] == 6
        parsed.clear()
    # the sixth transaction of the tail moves the checkpoint to the head
    ledger.submit_payload(BOB, create_payload(token_id=2, agent="b5"))
    ledger.produce_block()
    ledger.persist(directory)
    assert load_ledger(directory).machine.provenance.records.record_count() == 9
    assert json.loads((directory / CHECKPOINT_FILE).read_bytes())["height"] == ledger.height
    assert verify_chain(directory).ok


def test_a_checkpointed_load_persists_like_a_replayed_one(tmp_path):
    """A write through a restored ledger appends the bytes a replayed one
    would, also after a final line that lost its newline."""
    directory = tmp_path / "ledger"
    varied_chain(directory)
    log = directory / BLOCKS_FILE
    load_ledger(directory)
    log.write_bytes(log.read_bytes().removesuffix(b"\n"))
    copy = tmp_path / "copy"
    shutil.copytree(directory, copy)
    os.remove(copy / CHECKPOINT_FILE)
    for target in (directory, copy):
        ledger = load_ledger(target)
        ledger.submit_payload(CAROL, {"op": "requestToken", "payment": 0})
        ledger.produce_block()
        ledger.persist(target)
    assert log.read_bytes() == (copy / BLOCKS_FILE).read_bytes()
    assert verify_chain(directory).ok


def test_a_state_orjson_cannot_write_loads_without_a_checkpoint(tmp_path):
    """Two initial balances credited make ``seededTotal`` pass 64 bits, which
    the state digest allows and orjson cannot write: the load still
    succeeds, and leaves no checkpoint and no temporary file."""
    directory = tmp_path / "ledger"
    ledger = quick_ledger(policy=fee_policy(price=1, initial_balance=2**64 - 1))
    for client in (ALICE, BOB):
        ledger.submit_payload(client, {"op": "requestToken", "payment": 1})
    ledger.produce_block()
    ledger.persist(directory)
    assert ledger.machine.seeded_total > 2**64
    assert load_ledger(directory).state_snapshot() == ledger.state_snapshot()
    assert sorted(path.name for path in directory.iterdir()) == [
        BLOCKS_FILE, "config.json", "policy.json"
    ]


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit, OSError])
def test_an_interrupted_write_leaves_no_temporary_file(tmp_path, monkeypatch, interrupt):
    """Whatever stops the write before ``os.replace`` finishes, its temporary
    file is removed; an interruption still reaches the caller, a failure
    does not."""
    directory = tmp_path / "ledger"
    varied_chain(directory)

    def stopped(*args):
        raise interrupt("stopped")

    monkeypatch.setattr(os, "replace", stopped)
    if interrupt is OSError:
        assert load_ledger(directory).height > 0
    else:
        with pytest.raises(interrupt):
            load_ledger(directory)
    assert sorted(path.name for path in directory.iterdir()) == [
        BLOCKS_FILE, "config.json", "policy.json"
    ]

def test_verify_never_opens_the_checkpoint(tmp_path):
    """``verify_chain`` replays from genesis: no file named
    ``checkpoint.json``, or a temporary file beside it, is ever opened."""
    directory = tmp_path / "ledger"
    varied_chain(directory)
    load_ledger(directory)
    assert (directory / CHECKPOINT_FILE).exists()
    opened = []
    armed = [True]

    def audit(event, args):
        if armed[0] and event in ("open", "os.rename", "os.replace", "os.remove"):
            opened.append(os.fsdecode(args[0]) if isinstance(args[0], (str, bytes)) else args[0])

    sys.addaudithook(audit)  # hooks cannot be removed, only disarmed
    try:
        assert verify_chain(directory).ok
        result = CliRunner().invoke(main, ["verify", str(directory)])
    finally:
        armed[0] = False
    assert result.output == '{"ok":true}\n'
    names = {Path(path).name for path in opened if isinstance(path, str)}
    assert BLOCKS_FILE in names
    assert not [name for name in names if name.startswith(CHECKPOINT_FILE)], names


# --- bad checkpoints --------------------------------------------------------------

def edit_state(edit):
    def row(checkpoint: dict) -> bytes:
        edit(checkpoint["state"])
        return json.dumps(checkpoint).encode()

    return row


def swap(items: list, i: int, j: int) -> None:
    items[i], items[j] = items[j], items[i]


def edit_field(name, value):
    def row(checkpoint: dict) -> bytes:
        checkpoint[name] = value(checkpoint[name])
        return json.dumps(checkpoint).encode()

    return row


BAD_CHECKPOINTS = {
    "height": edit_field("height", lambda height: height - 1),
    "height past the head": edit_field("height", lambda height: height + 1),
    "block hash": edit_field("blockHash", lambda _: "0" * 64),
    "offset inside the line": edit_field("offset", lambda offset: offset + 1),
    # the test writes in the start of the line before the head's
    "offset of the line before": edit_field("offset", lambda offset: "previous line"),
    "offset past the end": edit_field("offset", lambda offset: offset * 10),
    "offset zero": edit_field("offset", lambda offset: 0),
    "offset negative": edit_field("offset", lambda offset: -offset),
    "offset not a number": edit_field("offset", str),
    "a context": edit_state(lambda state: state["records"][2]["context"].update(time="6am")),
    "a status": edit_state(lambda state: state["records"][2].update(status="invalidated")),
    "a scalar": edit_state(lambda state: state.update(treasury=1)),
    # the digest writes a scalar as its text, which a string of its digits has too
    "a scalar as text": edit_state(lambda state: state.update(treasury=str(state["treasury"]))),
    "a record added": edit_state(
        lambda state: state["records"].append({**state["records"][-1], "id": 11, "index": 10})
    ),
    "a record dropped": edit_state(lambda state: state["records"].pop()),
    "a nonce": edit_state(lambda state: state["nonces"].update({ALICE.hex: 1})),
    # the leaf sum holds no order: each item's position is checked on its own
    "records permuted": edit_state(lambda state: swap(state["records"], 3, 4)),
    "tokens permuted": edit_state(lambda state: swap(state["tokens"], 0, 1)),
    "a record naming another position's id": edit_state(
        lambda state: state["records"][2].update(id=2)
    ),
    # nor a key order, which the canonical form sorts
    "a context out of order": edit_state(
        lambda state: state["records"][2].update(
            context=dict(reversed(state["records"][2]["context"].items()))
        )
    ),
    "an extra key in a record": edit_state(lambda state: state["records"][2].update(extra="x")),
    # nor a count's type: true multiplies its leaf as a count of 1 does
    "a nonce count of true": edit_state(
        lambda state: state["nonces"].update(
            {next(key for key, count in state["nonces"].items() if count == 1): True}
        )
    ),
    # nor an address's form: ClientId.from_hex refuses it while building
    "a token owner that is a list": edit_state(
        lambda state: state["tokens"][0].update(owner=[state["tokens"][0]["owner"]])
    ),
    "an approved address in upper case": edit_state(
        lambda state: state["tokens"][0]["approved"].append(
            "0x" + state["tokens"][1]["owner"][2:].upper()
        )
    ),
    "a nonce key that is not an address": edit_state(
        lambda state: state["nonces"].update(
            {"not an address": state["nonces"].pop(next(iter(state["nonces"])))}
        )
    ),
    "truncated JSON": lambda checkpoint: json.dumps(checkpoint).encode()[:-40],
    "not an object": lambda checkpoint: json.dumps([checkpoint]).encode(),
    "empty": lambda checkpoint: b"",
}
# rows whose file still binds: the state it holds is the head's all the same
BINDING = {
    "a derived scalar": edit_state(lambda state: state.update(nextProvId=99)),
    "a temporary file left by a killed process": lambda checkpoint: json.dumps(checkpoint).encode(),
}
READS = (
    ["prov", "get", "--id", "3"],
    ["query", "lineage", "--id", "3"],
    ["query", "traces", "--token", "1"],
    ["query", "graph", "--id", "8", "--depth", "2"],
)


@pytest.fixture(scope="module")
def cold_chain(tmp_path_factory):
    """The cold-chain walkthrough's directory, what its reads print after a
    full replay, its state, and the checkpoint a load writes at its head."""
    directory = tmp_path_factory.mktemp("cold") / "ledger"
    runner = CliRunner()
    for args in (
        ["init", "--policy", str(FIXTURES / "vaccine_policy.json"),
         "--config", str(FIXTURES / "sim_config.json"), "--out", str(directory)],
        ["scenario", "run", str(FIXTURES / "vaccine_cold_chain.json"), "--dir", str(directory)],
    ):
        assert runner.invoke(main, args).exit_code == 0
    assert not (directory / CHECKPOINT_FILE).exists()
    outputs, checkpoint = [], None
    for args in READS:
        outputs.append(runner.invoke(main, [*args, "--dir", str(directory)]).output)
        checkpoint = checkpoint or (directory / CHECKPOINT_FILE).read_bytes()
        os.remove(directory / CHECKPOINT_FILE)
    state = load_ledger(directory, checkpoint=False).state_snapshot()
    return directory, outputs, state, checkpoint


def test_a_checkpoint_an_earlier_build_wrote_still_binds(tmp_path, monkeypatch):
    """``fixtures/cold_chain_checkpoint.json`` is the file the CLI wrote
    after the cold-chain walkthrough's first read, before a restore read
    each leaf kind in one walk; the key order inside its ``state`` is that
    build's. It still binds: a load parses the head's line alone, leaves
    the file byte for byte as it was, and holds the full-replay state. A
    change of the checkpoint's format, such as a record leaf without
    ``index``, makes it fail to bind, and must replace this file on purpose."""
    directory = tmp_path / "ledger"
    runner = CliRunner()
    for args in (
        ["init", "--policy", str(FIXTURES / "vaccine_policy.json"),
         "--config", str(FIXTURES / "sim_config.json"), "--out", str(directory)],
        ["scenario", "run", str(FIXTURES / "vaccine_cold_chain.json"), "--dir", str(directory)],
    ):
        assert runner.invoke(main, args).exit_code == 0
    log = (directory / BLOCKS_FILE).read_bytes()
    assert hashlib.sha256(log).hexdigest() == COLD_CHAIN_LOG_SHA256
    fixture = (FIXTURES / "cold_chain_checkpoint.json").read_bytes()
    (directory / CHECKPOINT_FILE).write_bytes(fixture)
    read = []
    real = ledger_module._read_block

    def counted(*args):
        read.append(args[1])
        return real(*args)

    monkeypatch.setattr(ledger_module, "_read_block", counted)
    loaded = load_ledger(directory)
    head = len(log.splitlines()) - 1
    assert read == [head]
    assert (directory / CHECKPOINT_FILE).read_bytes() == fixture
    assert loaded.head.height == head
    assert loaded.state_snapshot() == load_ledger(directory, checkpoint=False).state_snapshot()


@pytest.mark.parametrize("name", sorted({**BAD_CHECKPOINTS, **BINDING, "a directory": None}))
def test_a_bad_checkpoint_falls_back_to_a_full_replay(cold_chain, tmp_path, monkeypatch, name):
    source, outputs, state, good = cold_chain
    directory = tmp_path / "ledger"
    shutil.copytree(source, directory)
    path = directory / CHECKPOINT_FILE
    checkpoint = json.loads(good)
    lines = (directory / BLOCKS_FILE).read_bytes().splitlines(keepends=True)

    def place() -> None:
        """Put the row's file in place, as it was before any load rewrote it."""
        if name == "a directory":
            path.mkdir(exist_ok=True)
            return
        row = {**BAD_CHECKPOINTS, **BINDING}[name]
        data = row(json.loads(good))
        if name == "offset of the line before":
            before = checkpoint["offset"] - len(lines[-2])
            data = data.replace(b'"previous line"', str(before).encode())
        path.write_bytes(data)
        if name.startswith("a temporary file"):
            (directory / f"{CHECKPOINT_FILE}.k1ll3d.tmp").write_bytes(good[: len(good) // 2])

    parsed = count_parsed_lines(monkeypatch)
    place()
    loaded = load_ledger(directory)
    assert loaded.state_snapshot() == state
    # in the same order too: dicts compare equal whatever their key order
    assert json.dumps(loaded.state_snapshot()) == json.dumps(state)
    # a bound file leaves one line to parse, its own; else every line after
    # genesis is replayed, after the file's line if it was parsed
    assert len(parsed) in ((1,) if name in BINDING else (len(lines) - 1, len(lines)))
    runner = CliRunner()
    for args, output in zip(READS, outputs):
        place()
        assert runner.invoke(main, [*args, "--dir", str(directory)]).output == output
    place()
    with_file = runner.invoke(main, ["verify", str(directory)]).output
    if name == "a directory":
        # the load could not replace it, and left no temporary file behind
        assert path.is_dir()
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            [BLOCKS_FILE, CHECKPOINT_FILE, "config.json", "policy.json"]
        )
        path.rmdir()
    else:
        os.remove(path)
    if name.startswith("a temporary file"):
        # nothing removes another process's temporary file
        assert (directory / f"{CHECKPOINT_FILE}.k1ll3d.tmp").exists()
    assert runner.invoke(main, ["verify", str(directory)]).output == with_file == '{"ok":true}\n'


def test_a_head_line_rewritten_with_its_checkpoint_is_caught_by_verify_not_by_reads(
    cold_chain, tmp_path
):
    """A read takes the bound line's state digest as given: it does not
    re-execute that block nor check its parent link. A rewrite of the last
    line, sealed over a made-up state, together with a checkpoint holding
    that state, is served by every read, even a context outside the schema
    and a treasury no transaction made; only ``verify`` replays the line."""
    source, outputs, state, good = cold_chain
    directory = tmp_path / "ledger"
    shutil.copytree(source, directory)
    head = load_ledger(directory, checkpoint=False).head
    checkpoint = json.loads(good)
    forged_state = checkpoint["state"]
    forged_state["records"][2]["context"] = {"forged": "yes"}
    forged_state["treasury"] = 1
    forged = Block.seal(head.height, head.parent_hash, head.timestamp, head.transactions,
                        head.results, snapshot_digest(forged_state))
    log = directory / BLOCKS_FILE
    text = log.read_bytes()
    log.write_bytes(text[: checkpoint["offset"]] + forged.wire_line().encode() + b"\n")
    (directory / CHECKPOINT_FILE).write_bytes(
        json.dumps({**checkpoint, "blockHash": forged.block_hash, "state": forged_state}).encode()
    )
    assert load_ledger(directory).state_snapshot()["records"][2]["context"] == {"forged": "yes"}
    runner = CliRunner()
    printed = runner.invoke(main, ["prov", "get", "--id", "3", "--dir", str(directory)]).output
    assert json.loads(printed)["context"] == {"forged": "yes"}
    verified = json.loads(runner.invoke(main, ["verify", str(directory)]).output)
    assert verified["ok"] is False
    assert verified["firstCorruptHeight"] == head.height
    # the same without the file: a load replays the line and refuses it
    os.remove(directory / CHECKPOINT_FILE)
    with pytest.raises(CorruptLogError) as raised:
        load_ledger(directory)
    assert raised.value.height == head.height

# --- corruption with a checkpoint present ---------------------------------------------

def load_outcome(directory: Path, checkpoint: bool):
    try:
        loaded = load_ledger(directory, checkpoint=checkpoint)
    except CorruptLogError as exc:
        return ("CorruptLog", exc.height, str(exc))
    return ("ok", loaded.head.block_hash, loaded.state_digest())


@pytest.mark.parametrize("checkpoint_height", [1, 2, 3])
def test_line_edit_fuzz_with_a_checkpoint(tmp_path, checkpoint_height):
    """The edits of ``test_line_edit_fuzz_matches_the_naive_oracle``, made
    with a checkpoint at height h present. After h a load reports what a
    load without the file reports, height and reason alike. At or before h,
    ``verify_chain`` reports what it reports without the file; a load may
    miss such an edit only when it keeps every line's length."""
    directory = tmp_path / "ledger"
    path = varied_chain(directory)
    original = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(original[: checkpoint_height + 1]))
    load_ledger(directory)
    checkpoint = (directory / CHECKPOINT_FILE).read_bytes()
    assert json.loads(checkpoint)["height"] == checkpoint_height
    rng = random.Random(2026 + checkpoint_height)
    after = before = missed = 0
    for _ in range(FUZZ_CASES // 2):
        # half the edits on each side of the checkpoint's line
        if rng.random() < 0.5:
            height = rng.randrange(checkpoint_height + 1, len(original))
        else:
            height = rng.randrange(checkpoint_height + 1)
        edited = fuzzed_line(rng, original[height].removesuffix(b"\n")) + b"\n"
        path.write_bytes(b"".join(original[:height] + [edited] + original[height + 1 :]))
        (directory / CHECKPOINT_FILE).write_bytes(checkpoint)
        with_file = load_outcome(directory, checkpoint=True)
        if height > checkpoint_height:
            after += 1
            assert with_file == load_outcome(directory, checkpoint=False), (height, edited)
            continue
        before += 1
        (directory / CHECKPOINT_FILE).write_bytes(checkpoint)
        verdict = verify_chain(directory)
        os.remove(directory / CHECKPOINT_FILE)
        assert verify_chain(directory) == verdict, (height, edited)
        if with_file[0] == "ok" and not verdict.ok:
            missed += 1
            assert len(edited) == len(original[height]), (height, edited)
            assert verdict.first_corrupt_height <= checkpoint_height
    assert after > FUZZ_CASES // 5 and before > FUZZ_CASES // 5, (after, before)
    assert missed < before
