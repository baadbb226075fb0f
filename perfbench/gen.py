"""Seeded input generator and expected-state model for the benchmark.

Nothing here imports the package under test. The generator emits plain
transaction specs (sender alias, nonce, payload, fee, submission time) with
the status and value the ledger must report for each, and keeps a small model
of the record DAG from which the query oracles compute expected answers. So a
bug in the program cannot hide in its own expectations, and the same seed
always yields byte-identical specs (see ``spec_digest``).

Within one block every transaction has a distinct fee, so execution order is
fee-descending whatever the tie-break rule is, and the model can replay the
block exactly. Backlog blocks instead carry only operations whose outcome
does not depend on order.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import random

OK = "ok"
GRAPH_DEPTH = 8


@functools.lru_cache(maxsize=None)
def client_hex(alias: str) -> str:
    """Address the program derives from an alias: SHA-256 of its UTF-8 bytes."""
    return "0x" + hashlib.sha256(alias.encode("utf-8")).hexdigest()


def spec_digest(value) -> str:
    """Stable digest of generated specs, for byte-stability checks."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- expected-state model ----------------------------------------------------

class Model:
    """The provenance state machine as the README specifies it, over plain data.

    Clients are hex addresses. Checks run in the documented fixed order:
    existence, authorization, input validity.
    """

    def __init__(self):
        self.owner: dict[int, str] = {}
        self.approved: dict[int, list[str]] = {}
        self.records: dict[int, dict] = {}
        self.by_token: dict[int, list[int]] = {}
        self.next_token = 1
        self.next_prov = 1

    def _authorized(self, sender: str, token: int) -> bool:
        return sender == self.owner[token] or sender in self.approved[token]

    def apply(self, sender: str, payload: dict) -> tuple[str, dict | None]:
        op = payload["op"]
        if op == "requestToken":
            token = self.next_token
            self.next_token += 1
            self.owner[token] = sender
            self.approved[token] = []
            self.by_token[token] = []
            return OK, {"tokenId": token}
        if op == "createProvenance":
            token = payload["tokenId"]
            if token not in self.owner:
                return "TokenNotFound", None
            if not self._authorized(sender, token):
                return "NotAuthorized", None
            inputs = payload["inputs"]
            if len(set(inputs)) != len(inputs):
                return "InvalidInput", None
            for input_id in inputs:
                record = self.records.get(input_id)
                if record is None or record["status"] != "valid":
                    return "InvalidInput", None
            prov = self.next_prov
            self.next_prov += 1
            self.records[prov] = {
                "id": prov,
                "tokenId": token,
                "inputProvenanceIds": list(inputs),
                "context": dict(payload["context"]),
                "index": len(self.records),
                "status": "valid",
            }
            self.by_token[token].append(prov)
            return OK, {"provId": prov}
        if op in ("updateContext", "invalidate"):
            record = self.records.get(payload["provId"])
            if record is None:
                return "RecordNotFound", None
            if not self._authorized(sender, record["tokenId"]):
                return "NotAuthorized", None
            if record["status"] != "valid":
                return "RecordInvalidated", None
            if op == "updateContext":
                record["context"] = dict(payload["context"])
            else:
                record["status"] = "invalidated"
            return OK, {}
        if op == "approve":
            token = payload["tokenId"]
            if token not in self.owner:
                return "TokenNotFound", None
            if sender != self.owner[token]:
                return "NotAuthorized", None
            if payload["operator"] not in self.approved[token]:
                self.approved[token].append(payload["operator"])
            return OK, {}
        if op == "transfer":
            token = payload["tokenId"]
            if token not in self.owner:
                return "TokenNotFound", None
            if self.owner[token] != payload["from"]:
                return "NotAuthorized", None
            if not self._authorized(sender, token):
                return "NotAuthorized", None
            self.owner[token] = payload["to"]
            self.approved[token] = []
            return OK, {}
        raise ValueError(f"model has no operation {op!r}")

    def head(self, token: int) -> int | None:
        """Latest record of a token if it is still valid."""
        ids = self.by_token[token]
        if ids and self.records[ids[-1]]["status"] == "valid":
            return ids[-1]
        return None

    # -- query oracles (naive walks over the plain records) -----------------

    def _same_token_inputs(self, prov: int) -> list[int]:
        record = self.records[prov]
        return [
            i for i in record["inputProvenanceIds"]
            if self.records[i]["tokenId"] == record["tokenId"]
        ]

    def lineage(self, prov: int) -> list[int]:
        chain = [prov]
        while True:
            same = self._same_token_inputs(chain[-1])
            if len(same) != 1:
                if same:
                    raise ValueError(f"generator built an ambiguous lineage at {prov}")
                return chain[::-1]
            chain.append(same[0])

    def graph(self, prov: int, depth: int) -> tuple[list[int], list[list[int]]]:
        nodes, edges, layer = {prov}, set(), [prov]
        for _ in range(depth):
            nxt = []
            for rid in layer:
                for input_id in self.records[rid]["inputProvenanceIds"]:
                    edges.add((rid, input_id))
                    if input_id not in nodes:
                        nodes.add(input_id)
                        nxt.append(input_id)
            layer = nxt
        return sorted(nodes), [list(e) for e in sorted(edges)]

    def traces(self, token: int) -> list[list[int]]:
        chains: list[list[int]] = []
        tail: dict[int, int] = {}
        for prov in self.by_token[token]:
            same = self._same_token_inputs(prov)
            if len(same) == 1 and same[0] in tail:
                index = tail.pop(same[0])
                chains[index].append(prov)
            else:
                index = len(chains)
                chains.append([prov])
            tail[prov] = index
        return chains

    def expect_query(self, kind: str, arg: int):
        """Expected in-memory query answer in the benchmark's comparison form."""
        if kind == "lineage":
            return self.lineage(arg)
        if kind == "graph":
            nodes, edges = self.graph(arg, GRAPH_DEPTH)
            return [nodes, edges]
        return [[chain[-1], chain] for chain in self.traces(arg)]

    def expect_cli(self, kind: str, arg: int):
        """Expected JSON printed by the matching CLI read command."""
        if kind == "lineage":
            return {"lineage": self.lineage(arg)}
        if kind == "graph":
            nodes, edges = self.graph(arg, GRAPH_DEPTH)
            return {"nodes": [self.records[n] for n in nodes], "edges": edges}
        if kind == "traces":
            return {"traces": [{"head": c[-1], "records": c} for c in self.traces(arg)]}
        return self.records[arg]


# --- block building ------------------------------------------------------------

class Gen:
    """Makes seeded blocks of transaction specs and applies them to a model.

    ``height`` is the height of the last block the specs fill; block ``h`` is
    sealed at ``h * interval`` because the benchmark runs without jitter.
    """

    def __init__(self, seed, capacity: int, interval: int):
        self.rng = random.Random(seed)
        self.capacity = capacity
        self.interval = interval
        self.model = Model()
        self.nonces: dict[str, int] = {}
        self.height = 0
        self._answers: dict[tuple[str, int], object] = {}

    def static_answer(self, kind: str, arg: int):
        """Cached expected query answer, for workloads whose DAG no longer changes."""
        key = (kind, arg)
        if key not in self._answers:
            self._answers[key] = self.model.expect_query(kind, arg)
        return self._answers[key]

    def tx(self, alias: str, payload: dict, fee: int, submitted_at: int) -> dict:
        nonce = self.nonces.get(alias, 0)
        self.nonces[alias] = nonce + 1
        return {
            "sender": alias,
            "nonce": nonce,
            "payload": payload,
            "fee": fee,
            "submittedAt": submitted_at,
        }

    def block(self, ops: list[tuple[str, dict]]) -> list[dict]:
        """One block's arrivals, all included in the next block, with expectations."""
        senders = [alias for alias, _ in ops]
        if len(set(senders)) != len(senders) or len(ops) > self.capacity:
            raise ValueError("a generated block needs distinct senders within capacity")
        start = self.height * self.interval
        fees = self.rng.sample(range(1, 1000), len(ops))
        txs = [
            self.tx(alias, payload, fee, start + self.rng.randint(1, self.interval))
            for (alias, payload), fee in zip(ops, fees)
        ]
        for tx in sorted(txs, key=lambda t: -t["fee"]):
            tx["expect"], tx["value"] = self.model.apply(client_hex(tx["sender"]), tx["payload"])
        self.height += 1
        return txs

    def context(self, alias: str) -> dict:
        return {
            "agent": alias,
            "time": str(self.height * self.interval),
            "value": f"{self.rng.random():.4f}",
        }

    def create(self, alias: str, token: int, inputs: list[int]) -> tuple[str, dict]:
        return alias, {
            "op": "createProvenance",
            "tokenId": token,
            "inputs": inputs,
            "context": self.context(alias),
        }

    def mint_blocks(self, aliases: list[str]) -> list[list[dict]]:
        return [
            self.block([(a, {"op": "requestToken", "payment": 0}) for a in aliases[i : i + self.capacity]])
            for i in range(0, len(aliases), self.capacity)
        ]

    def token_of(self, alias: str) -> int:
        hex_id = client_hex(alias)
        return next(t for t, owner in self.model.owner.items() if owner == hex_id)


def reader_ops(model: Model, height: int, owners: dict[int, str], seed: int, cycle: int,
               reads: int, writes: int, verifies: int) -> list[dict]:
    """CLI commands for one cycle against a fixed on-disk ledger.

    Reads cycle through lineage, graph, traces and get. Each write extends a
    token's latest valid record on a fresh copy of the directory, so the
    reader directory itself never changes. Writes and verifies alternate,
    spread evenly between the reads.
    """
    rng = random.Random(f"{seed}/reader/{cycle}")
    prov_ids = sorted(model.records)
    tokens = sorted(t for t in owners if model.by_token[t])
    writable = [t for t in tokens if model.head(t) is not None]
    kinds = ["lineage", "graph", "traces", "get"]
    ops = []
    for i in range(reads):
        kind = kinds[i % len(kinds)]
        if kind == "traces":
            arg = rng.choice(tokens)
            args = ["query", "traces", "--token", str(arg)]
        else:
            arg = rng.choice(prov_ids)
            args = {
                "lineage": ["query", "lineage", "--id", str(arg)],
                "graph": ["query", "graph", "--id", str(arg), "--depth", str(GRAPH_DEPTH)],
                "get": ["prov", "get", "--id", str(arg)],
            }[kind]
        ops.append({"kind": "read", "args": args, "expect": model.expect_cli(kind, arg)})
    others = []
    for i in range(max(writes, verifies)):
        if i < writes:
            token = rng.choice(writable)
            context = {"agent": owners[token], "time": str(height), "value": f"{rng.random():.4f}"}
            others.append({
                "kind": "write",
                "args": ["prov", "create", "--as", owners[token], "--token", str(token),
                         "--inputs", str(model.head(token)), "--context", json.dumps(context)],
                "expect": {"blockHeight": height + 1, "result": OK, "provId": model.next_prov},
            })
        if i < verifies:
            others.append({"kind": "verify", "args": ["verify"], "expect": {"ok": True}})
    every = max(1, reads // len(others))
    for n, op in enumerate(others):
        ops.insert((n + 1) * every + n, op)
    return ops


def _owner_aliases(model: Model, aliases: list[str]) -> dict[int, str]:
    by_hex = {client_hex(a): a for a in aliases}
    return {t: by_hex[h] for t, h in model.owner.items()}


# --- ingest ------------------------------------------------------------------------

INGEST_DEVICES = 40
INGEST_STREAM_BLOCKS = 260
INGEST_READER_HEIGHT = 30
INGEST_LINEAGE_PER_BLOCK = 3
_INGEST_MIX = (
    ("extend", 68), ("derive", 10), ("update", 6), ("invalidate", 3),
    ("approve", 3), ("transfer", 2), ("intruder", 4), ("stale", 4),
)


def _ingest_op(gen: Gen, kind: str, token: int, sender: str, invalidated: list[int]):
    model, rng = gen.model, gen.rng
    head = model.head(token)
    if kind == "extend":
        return gen.create(sender, token, [head] if head else [])
    if kind == "derive":
        others = [t for t in model.by_token if t != token and model.head(t)]
        if not others:
            return None
        return gen.create(sender, token, ([head] if head else []) + [model.head(rng.choice(others))])
    valid = [p for p in model.by_token[token][-12:] if model.records[p]["status"] == "valid"]
    if kind == "update" and valid:
        return sender, {"op": "updateContext", "provId": rng.choice(valid),
                        "context": gen.context(sender)}
    if kind == "invalidate" and len(valid) > 1:
        return sender, {"op": "invalidate", "provId": rng.choice(valid[:-1])}
    if kind == "approve":
        return sender, {"op": "approve", "tokenId": token,
                        "operator": client_hex(f"gw-{token % 4}")}
    if kind == "transfer":
        to = rng.choice([f"cust-{k}" for k in range(6)] + [f"dev-{token - 1:03d}"])
        return sender, {"op": "transfer", "tokenId": token,
                        "from": model.owner[token], "to": client_hex(to)}
    if kind == "stale" and invalidated:
        return gen.create(sender, token, [rng.choice(invalidated)])
    return None


def ingest(seed, capacity: int, interval: int) -> dict:
    """IoT write stream from an empty store: ``capacity`` arrivals per block.

    Devices mint one token each, then mostly extend their own chain, with
    some cross-token derivations, updates, invalidations, approvals and
    transfers, and a few writes that must be rejected (intruders, and
    invalidated inputs). After each block the benchmark queries what the
    block wrote.
    """
    gen = Gen(seed, capacity, interval)
    devices = [f"dev-{i:03d}" for i in range(INGEST_DEVICES)]
    senders = devices + [f"cust-{k}" for k in range(6)] + [f"gw-{k}" for k in range(4)]
    alias_of = {client_hex(a): a for a in senders}
    blocks = gen.mint_blocks(devices)
    queries: list[list] = [[] for _ in blocks]
    reader = None
    kinds, weights = zip(*_INGEST_MIX)
    for step in range(INGEST_STREAM_BLOCKS):
        if len(blocks) == INGEST_READER_HEIGHT:
            reader = (copy.deepcopy(gen.model), _owner_aliases(gen.model, senders))
        invalidated = [p for p, r in gen.model.records.items() if r["status"] != "valid"]
        ops, used = [], set()
        while len(ops) < capacity:
            kind = gen.rng.choices(kinds, weights)[0]
            token = gen.rng.randrange(1, INGEST_DEVICES + 1)
            sender = alias_of[gen.model.owner[token]]
            approved = gen.model.approved[token]
            if kind == "extend" and approved and gen.rng.random() < 0.3:
                sender = alias_of[gen.rng.choice(approved)]
            if kind == "intruder":
                sender, kind = f"intruder-{gen.rng.randrange(4)}", "extend"
            if sender in used:
                continue
            op = _ingest_op(gen, kind, token, sender, invalidated)
            if op is not None:
                ops.append(op)
                used.add(sender)
        txs = gen.block(ops)
        blocks.append(txs)
        created = [tx["value"]["provId"] for tx in txs
                   if tx["expect"] == OK and tx["payload"]["op"] == "createProvenance"]
        block_queries = []
        for prov in sorted(created)[-INGEST_LINEAGE_PER_BLOCK:]:
            block_queries.append(["lineage", prov, gen.model.expect_query("lineage", prov)])
        if created and step % 2 == 0:
            newest = max(created)
            token = gen.model.records[newest]["tokenId"]
            block_queries.append(["graph", newest, gen.model.expect_query("graph", newest)])
            block_queries.append(["traces", token, gen.model.expect_query("traces", token)])
        queries.append(block_queries)
    return {
        "blocks": blocks,
        "queries": queries,
        "reader_height": INGEST_READER_HEIGHT,
        "reader": reader,
        "final": gen.model,
    }


# --- backlog ------------------------------------------------------------------------

BACKLOG_SENDERS = 40
BACKLOG_POOL_PER_SENDER = 5
BACKLOG_DEPTH = 8000
BACKLOG_FUTURE_SHARE = 0.03
# Query rounds after each steady block; enough that the query tail is a
# percentile of thousands of calls, not of a few dozen.
BACKLOG_QUERY_ROUNDS = 8


class Backlog:
    """Standing deep mempool over a small fixed record pool.

    The pool is one token per sender with a short chain of records. Each
    cycle's traffic, from its own seed, queues ``BACKLOG_DEPTH``
    transactions with random fees and per-sender nonce sequences, a few
    stamped in the simulated future, and then gives each of ``blocks``
    steady blocks exactly ``capacity`` arrivals. The operations (context
    updates on own records, approvals, and intruder updates that must fail)
    have the same outcome in any order, so every status is known up front.
    """

    def __init__(self, seed, capacity: int, interval: int, blocks: int):
        self.seed = seed
        self.blocks = blocks
        self.gen = gen = Gen(seed, capacity, interval)
        self.senders = [f"acct-{i:02d}" for i in range(BACKLOG_SENDERS)]
        self.setup_blocks = gen.mint_blocks(self.senders)
        for _ in range(BACKLOG_POOL_PER_SENDER):
            for i in range(0, BACKLOG_SENDERS, capacity):
                ops = []
                for alias in self.senders[i : i + capacity]:
                    token = gen.token_of(alias)
                    head = gen.model.head(token)
                    ops.append(gen.create(alias, token, [head] if head else []))
                self.setup_blocks.append(gen.block(ops))
        self.reader = (gen.model, _owner_aliases(gen.model, self.senders))
        self.token = {a: gen.token_of(a) for a in self.senders}
        self.pool = {a: gen.model.by_token[self.token[a]] for a in self.senders}
        self.tips = [ids[-1] for ids in self.pool.values()]

    def traffic(self, cycle: int) -> dict:
        """Fill, steady arrivals and per-block queries for one cycle."""
        pool_gen = self.gen
        gen = Gen(f"{self.seed}/traffic/{cycle}", pool_gen.capacity, pool_gen.interval)
        gen.model, gen.nonces, gen.height = pool_gen.model, dict(pool_gen.nonces), pool_gen.height
        now = gen.height * gen.interval
        fill = [self._arrival(gen, gen.rng.randint(1, now)) for _ in range(BACKLOG_DEPTH)]
        steady, queries = [], []
        for _ in range(self.blocks):
            start = gen.height * gen.interval
            gen.height += 1
            steady.append([self._arrival(gen, start + gen.rng.randint(1, gen.interval))
                           for _ in range(gen.capacity)])
            queries.append(self._queries(gen.rng))
        return {"fill": fill, "steady": steady, "queries": queries}

    def _arrival(self, gen: Gen, stamp: int) -> dict:
        rng = gen.rng
        alias = rng.choice(self.senders)
        if rng.random() < BACKLOG_FUTURE_SHARE:
            stamp += rng.randint(1, 20) * gen.interval
        roll = rng.random()
        if roll < 0.85:
            payload = {"op": "updateContext", "provId": rng.choice(self.pool[alias]),
                       "context": gen.context(alias)}
            expect, value = OK, {}
        elif roll < 0.95:
            payload = {"op": "approve", "tokenId": self.token[alias],
                       "operator": client_hex(f"op-{rng.randrange(3)}")}
            expect, value = OK, {}
        else:
            victim = rng.choice([s for s in self.senders if s != alias])
            payload = {"op": "updateContext", "provId": rng.choice(self.pool[victim]),
                       "context": gen.context(alias)}
            expect, value = "NotAuthorized", None
        tx = gen.tx(alias, payload, rng.randint(1, 1000), stamp)
        tx["expect"], tx["value"] = expect, value
        return tx

    def _queries(self, rng: random.Random) -> list[list]:
        """``BACKLOG_QUERY_ROUNDS`` rounds of three lineages, one graph and one
        traces query from chain tips, so each kind walks a whole pool chain
        and costs the same every time."""
        gen = self.gen
        args = []
        for _ in range(BACKLOG_QUERY_ROUNDS):
            picks = rng.sample(self.tips, 4)
            args += [("lineage", prov) for prov in picks[:3]]
            args += [("graph", picks[3]), ("traces", gen.model.records[picks[3]]["tokenId"])]
        return [[kind, arg, gen.static_answer(kind, arg)] for kind, arg in args]


# --- audit ---------------------------------------------------------------------------

AUDIT_OWNERS = 10
AUDIT_BLOCKS = 99
AUDIT_TRACE_LENGTH = 50
AUDIT_FAN_IN_EVERY = 5
AUDIT_WARM_KINDS = (("lineage", 4), ("graph", 3), ("traces", 3))


class Audit:
    """An existing on-disk chain with deep same-token lineage and fan-in.

    Each owner writes to its own token every block. The DAG's shape is the
    same for every seed, so that query and replay costs are too: every
    ``AUDIT_TRACE_LENGTH``-th record of a token starts a parallel trace,
    every ``AUDIT_FAN_IN_EVERY``-th also takes the heads of two other
    tokens (chosen by the seed) as inputs, and the rest extend the chain.
    A seeded few writes update or invalidate an older record instead. Later
    writes (``warm``) only update contexts and approve, so the DAG the
    queries walk stays fixed.
    """

    def __init__(self, seed, capacity: int, interval: int):
        self.seed = seed
        self.gen = gen = Gen(seed, capacity, interval)
        self.owners = [f"own-{i}" for i in range(AUDIT_OWNERS)]
        self.blocks = gen.mint_blocks(self.owners)
        model, rng = gen.model, gen.rng
        for _ in range(AUDIT_BLOCKS):
            ops = []
            for alias in self.owners:
                token = gen.token_of(alias)
                head = model.head(token)
                count = len(model.by_token[token])
                valid = [p for p in model.by_token[token][:-1] if model.records[p]["status"] == "valid"]
                others = [t for t in model.by_token if t != token and model.head(t)]
                roll = rng.random()
                if roll < 0.03 and valid:
                    ops.append((alias, {"op": "updateContext", "provId": rng.choice(valid),
                                        "context": gen.context(alias)}))
                elif roll < 0.04 and valid:
                    ops.append((alias, {"op": "invalidate", "provId": rng.choice(valid)}))
                elif count % AUDIT_TRACE_LENGTH == 0 or head is None:
                    ops.append(gen.create(alias, token, []))
                elif count % AUDIT_FAN_IN_EVERY == 0 and len(others) >= 2:
                    ops.append(gen.create(alias, token, [head] + [model.head(t) for t in rng.sample(others, 2)]))
                else:
                    ops.append(gen.create(alias, token, [head]))
            self.blocks.append(gen.block(ops))
        self.reader = (copy.deepcopy(model), _owner_aliases(model, self.owners))
        self.prov_ids = sorted(model.records)

    def warm(self, cycle: int, blocks: int, queries_per_block: int) -> tuple[list, list]:
        """One cycle's writes on the reloaded chain, and the queries after each block.

        Each block has context updates by eight owners, one approval and one
        intruder update. Every cycle starts again from the chain as written.
        """
        base = self.gen
        gen = Gen(f"{self.seed}/warm/{cycle}", base.capacity, base.interval)
        gen.model, gen.nonces, gen.height = copy.deepcopy(base.model), dict(base.nonces), base.height
        model, rng = gen.model, gen.rng
        kinds, weights = zip(*AUDIT_WARM_KINDS)
        warm_blocks, queries = [], []
        for _ in range(blocks):
            owners = rng.sample(self.owners, 9)
            ops = []
            for alias in owners[:8]:
                token = gen.token_of(alias)
                valid = [p for p in model.by_token[token] if model.records[p]["status"] == "valid"]
                ops.append((alias, {"op": "updateContext", "provId": rng.choice(valid),
                                    "context": gen.context(alias)}))
            ops.append((owners[8], {"op": "approve", "tokenId": gen.token_of(owners[8]),
                                    "operator": client_hex(f"gw-{rng.randrange(3)}")}))
            intruder = f"intruder-{rng.randrange(4)}"
            ops.append((intruder, {"op": "updateContext", "provId": rng.choice(self.prov_ids),
                                   "context": gen.context(intruder)}))
            warm_blocks.append(gen.block(ops))
            block_queries = []
            for kind in rng.choices(kinds, weights, k=queries_per_block):
                arg = rng.randrange(1, model.next_token) if kind == "traces" else rng.choice(self.prov_ids)
                block_queries.append([kind, arg, base.static_answer(kind, arg)])
            queries.append(block_queries)
        return warm_blocks, queries
