"""Drives provledger through one workload, times it, and checks every output.

A run is set-up followed by whole cycles until the time budget is spent.
Every operation is one of four kinds, each timed on its own with
``perf_counter``:

* a block step: submit the block's arrivals, ``produce_block``, ``persist``;
* an in-memory query (``lineage``, ``derivation_graph``, ``traces``);
* a CLI command run in-process through ``provledger.cli.main``;
* ``verify``, also through the CLI.

Every operation's result is compared with what the generator expects, and a
mismatch or an unexpected exception counts the operation as failed. The
program is only ever called through its public API, and always through module
or class attributes, so the tracer can wrap the same names.

Host speed on a shared machine drifts by up to 2x over seconds, with no steal
time and with process time tracking wall time, so the drift cannot be told
apart from the program's own cost inside one sample. A ``Meter`` therefore
times a fixed reference computation every ``REF_EVERY_S`` beside the samples,
and right before and after every block step, and every reported time is the
sample's wall time scaled by ``REF_NOMINAL_S`` / (mean of the two reference
timings around it): host time on a machine where the reference takes
``REF_NOMINAL_S``. The unscaled values are printed too.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import io
import json
import shutil
import statistics
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from provledger import cli, query
from provledger import ledger as ledger_mod
from provledger.bench import run_benchmark
from provledger.errors import LedgerError
from provledger.policy import policy_from_dict
from provledger.tokens import ClientId

import gen

BACKLOG_CYCLE_BLOCKS = 100
AUDIT_WARM_BLOCKS = 80
AUDIT_WARM_QUERIES_PER_BLOCK = 40
# CLI commands per cycle: (reads, writes, verifies)
INGEST_CLI = (6, 2, 2)
BACKLOG_CLI = (6, 2, 2)
AUDIT_CLI = (6, 2, 2)
REF_EVERY_S = 0.05
REF_NOMINAL_S = 0.00125
REF_NEIGHBOURS = 2

_REF_ROWS = [
    {
        "id": i,
        "inputs": [i - 1, i - 2],
        "context": {"agent": f"dev-{i % 40}", "time": str(i * 15000), "value": f"{i * 7919 % 1000}"},
        "status": "valid",
    }
    for i in range(2, 200)
]


def reference_cost() -> float:
    """Wall time of a fixed mix like the program's: dict building, lookups,
    canonical JSON and SHA-256. The collector is held off so that it times
    the host, not the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        rows = [{**row, "index": n} for n, row in enumerate(_REF_ROWS)]
        by_id = {row["id"]: row for row in rows}
        walked = sum(len(by_id.get(i, row)["inputs"]) for row in rows for i in row["inputs"])
        text = json.dumps([rows, walked], sort_keys=True, separators=(",", ":"))
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        json.loads(text)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Reference timings across a phase, used to scale its samples."""

    def __init__(self):
        self.at: list[float] = []
        self.cost: list[float] = []
        self._due = 0.0

    def tick(self, force: bool = False) -> None:
        now = perf_counter()
        if force or now >= self._due:
            self.at.append(now)
            self.cost.append(reference_cost())
            self._due = perf_counter() + REF_EVERY_S

    def scale(self, when: float) -> float:
        """``REF_NOMINAL_S`` over the median of the ``REF_NEIGHBOURS``
        reference times nearest ``when``."""
        i = bisect.bisect(self.at, when)
        near = self.cost[max(0, i - REF_NEIGHBOURS // 2) : i + REF_NEIGHBOURS // 2]
        return REF_NOMINAL_S / statistics.median(near)

    def scaled(self, samples: list[tuple[float, float]]) -> list[float]:
        return [elapsed * self.scale(when) for when, elapsed in samples]


class Env:
    """Policy and sim config from the repository fixtures, plus a work directory."""

    def __init__(self, root: Path, work: Path):
        self.policy = json.loads((root / "fixtures" / "vaccine_policy.json").read_text())
        self.config = json.loads((root / "fixtures" / "sim_config.json").read_text())
        sim = ledger_mod.SimConfig.from_dict(self.config)
        if sim.jitter:
            raise ValueError("the generator needs fixed block intervals (jitter off)")
        self.sim = sim
        self.capacity = sim.block_capacity
        self.interval = sim.block_interval_ms
        self.work = work
        self._dirs = 0

    def new_dir(self, label: str) -> Path:
        self._dirs += 1
        return self.work / f"{label}-{self._dirs}"

    def new_ledger(self, label: str):
        directory = self.new_dir(label)
        return directory, ledger_mod.init_ledger_dir(self.policy, self.config, directory)


class Samples:
    """Timings, counters and failures gathered while a phase runs.

    Timings are (start, wall seconds) pairs; ``meter`` scales them."""

    def __init__(self):
        self.meter = Meter()
        self.block_s: list[tuple[float, float]] = []
        self.block_tx: list[int] = []
        self.block_store: list[int] = []
        self.depth: list[int] = []
        self.query_s: list[tuple[float, float]] = []
        self.graph_nodes: list[int] = []
        self.cli: dict[str, list[tuple[float, float]]] = {"read": [], "write": [], "verify": []}
        self.persist_bytes = 0
        self.persist_tx = 0
        self.tally: Counter = Counter()
        self.expected_tally: Counter = Counter()
        self.attempted = 0
        self.failures: list[str] = []


class NullTracer:
    """Stands in for the tracer in untraced phases."""

    def span(self, name: str):
        return contextlib.nullcontext()


def build_block(specs: list[dict], expect: dict) -> list:
    """Transactions for one block; records each one's expected (status, value)."""
    txs = []
    for spec in specs:
        tx = ledger_mod.Transaction.build(
            ClientId.from_alias(spec["sender"]), spec["nonce"], spec["payload"],
            spec["fee"], spec["submittedAt"],
        )
        expect[tx.hash] = (spec["expect"], spec["value"])
        txs.append(tx)
    return txs


def unexpected(outcomes, expect: dict) -> list[str]:
    """Outcomes whose status or value differs from the generator's."""
    wrong = []
    for outcome in outcomes:
        status, value = expect.get(outcome.tx.hash, (None, None))
        if outcome.status != status or (outcome.value if outcome.ok else None) != value:
            wrong.append(f"{outcome.tx.payload['op']}: {outcome.status} {outcome.value}, "
                         f"expected {status} {value}")
    return wrong


def _log_size(directory: Path) -> int:
    return (directory / ledger_mod.BLOCKS_FILE).stat().st_size


def run_block(led, txs, directory: Path, expect: dict, s: Samples, exact: int) -> None:
    """One timed block step; ``exact`` is the number of transactions it must seal.

    The reference is timed right before and right after the step: the tail
    of block times follows host speed from one step to the next."""
    s.meter.tick(force=True)
    s.attempted += len(txs) + 1
    s.depth.append(led.pending_count() + len(txs))
    store = led.machine.provenance.records.record_count()
    before = _log_size(directory)
    try:
        start = perf_counter()
        for tx in txs:
            led.submit(tx)
        block, outcomes = led.produce_block()
        led.persist(directory)
        elapsed = perf_counter() - start
        s.meter.tick(force=True)
    except LedgerError as exc:
        s.failures.append(f"block step at height {led.height + 1} raised {exc.code}: {exc}")
        return
    s.block_s.append((start, elapsed))
    s.block_tx.append(len(block.transactions))
    s.block_store.append(store)
    s.persist_bytes += _log_size(directory) - before
    s.persist_tx += len(block.transactions)
    for outcome in outcomes:
        s.tally[outcome.status] += 1
        s.expected_tally[expect.get(outcome.tx.hash, (None,))[0]] += 1
    wrong = unexpected(outcomes, expect)
    if wrong or len(outcomes) != exact:
        s.failures.append(f"block {block.height}: {len(outcomes)} sealed of {exact}; {wrong[:3]}")


def apply_block(led, txs, expect: dict) -> list[str]:
    """Untimed block for set-up; returns a description of each unexpected outcome."""
    for tx in txs:
        led.submit(tx)
    _, outcomes = led.produce_block()
    problems = [] if len(outcomes) == len(txs) else [f"{len(outcomes)} of {len(txs)} sealed"]
    return problems + unexpected(outcomes, expect)


def run_query(led, item: list, s: Samples) -> None:
    kind, arg, want = item
    layer = led.machine.provenance
    s.meter.tick()
    s.attempted += 1
    try:
        start = perf_counter()
        if kind == "lineage":
            result = query.lineage(layer, arg)
        elif kind == "graph":
            result = query.derivation_graph(layer, arg, gen.GRAPH_DEPTH)
        else:
            result = query.traces(layer, arg)
        elapsed = perf_counter() - start
    except LedgerError as exc:
        s.failures.append(f"{kind} {arg} raised {exc.code}: {exc}")
        return
    s.query_s.append((start, elapsed))
    if kind == "graph":
        s.graph_nodes.append(len(result.nodes))
        result = [[record.id for record in result.nodes], [list(edge) for edge in result.edges]]
    elif kind == "traces":
        result = [[trace.head, list(trace.records)] for trace in result]
    if result != want:
        s.failures.append(f"{kind} {arg} returned {result!r:.200}")


def run_cli(op: dict, directory: Path, s: Samples, tracer) -> None:
    """One in-process CLI command, timed from argument parsing to printed output."""
    kind = op["kind"]
    argv = op["args"] + ([str(directory)] if kind == "verify" else ["--dir", str(directory)])
    out, err = io.StringIO(), io.StringIO()
    s.meter.tick()
    s.attempted += 1
    code = 0
    with tracer.span("cli." + kind):
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(argv, prog_name="provledger", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        elapsed = perf_counter() - start
    s.cli[kind].append((start, elapsed))
    try:
        printed = json.loads(out.getvalue())
    except ValueError:
        printed = None
    if kind == "write" and isinstance(printed, dict):
        printed = {key: printed.get(key) for key in op["expect"]}
    if code != 0 or printed != op["expect"]:
        s.failures.append(f"{' '.join(op['args'][:2])} exit {code}: {out.getvalue()[:200]} {err.getvalue()[:200]}")


def run_reader_ops(ops: list[dict], reader_dir: Path, env: Env, s: Samples, tracer) -> None:
    """Reads and verify on the fixed reader directory; each write on a fresh copy."""
    for op in ops:
        if op["kind"] != "write":
            run_cli(op, reader_dir, s, tracer)
            continue
        copy_dir = env.new_dir("write")
        shutil.copytree(reader_dir, copy_dir)
        run_cli(op, copy_dir, s, tracer)
        shutil.rmtree(copy_dir)


def fingerprint(led) -> tuple[str, str]:
    return led.blocks[-1].block_hash, led.digests[-1]


def check_verified(directory: Path, label: str, s: Samples) -> None:
    s.attempted += 1
    result = ledger_mod.verify_chain(directory)
    if not result.ok:
        s.failures.append(f"verify_chain on the {label} directory: {result.as_dict()}")


def check_simulated_ceiling(env: Env, s: Samples) -> None:
    """The simulated throughput stays fixed by the config: capacity / interval."""
    s.attempted += 1
    report = run_benchmark(env.sim, tx_count=150, window_ms=60_000, fee=2)
    want = Fraction(env.capacity * 1000, env.interval)
    if Fraction(report.tps).limit_denominator(1000) != want:
        s.failures.append(f"simulated tps {report.tps}, expected {float(want)}")


# --- workloads ---------------------------------------------------------------------

class Ingest:
    """Each cycle ingests its own seeded stream into a fresh ledger directory.

    The reader commands run on a copy of that directory taken at
    ``reader_height``, so their cost does not grow with the run."""

    name = "ingest"

    def __init__(self, seed: int, env: Env):
        self.seed, self.env = seed, env

    def _stream(self, cycle: int) -> None:
        env = self.env
        self.spec = gen.ingest(f"{self.seed}/ingest/{cycle}", env.capacity, env.interval)
        self.expect: dict = {}
        self.blocks = [build_block(b, self.expect) for b in self.spec["blocks"]]

    def setup(self):
        """Generate and sign the first stream, and check its opening blocks."""
        self._stream(0)
        self.dirs: list[Path] = []
        led = ledger_mod.Ledger(policy_from_dict(self.env.policy), self.env.sim)
        problems = []
        for txs in self.blocks[: self.spec["reader_height"]]:
            problems += apply_block(led, txs, self.expect)
        return fingerprint(led), problems

    def cycle(self, index: int, s: Samples, tracer):
        env, spec = self.env, self.spec
        for old in self.dirs:
            shutil.rmtree(old)
        directory, led = env.new_ledger("ingest")
        reader_dir = env.new_dir("reader")
        self.dirs = [directory, reader_dir]
        for height, (txs, queries) in enumerate(zip(self.blocks, spec["queries"]), start=1):
            run_block(led, txs, directory, self.expect, s, exact=len(txs))
            for item in queries:
                run_query(led, item, s)
            if height == spec["reader_height"]:
                shutil.copytree(directory, reader_dir)
        model, owners = spec["reader"]
        ops = gen.reader_ops(model, spec["reader_height"], owners, self.seed, index, *INGEST_CLI)
        run_reader_ops(ops, reader_dir, env, s, tracer)
        self.last_dir, self.last, self.final_model = directory, led, spec["final"]
        self._stream(index + 1)
        return fingerprint(led)

    def final_check(self, s: Samples) -> None:
        check_verified(self.last_dir, "ingest", s)
        s.attempted += 1
        model = self.final_model
        stored = self.last.machine.provenance.records.snapshot()
        owners = {t: self.last.machine.tokens.owner_of(t).hex for t in model.owner}
        if stored != [model.records[i] for i in sorted(model.records)] or owners != model.owner:
            s.failures.append("final ingest state differs from the generator's model")


class Backlog:
    """Each cycle reloads the pool, fills the deep mempool with that cycle's
    traffic, and runs its steady blocks."""

    name = "backlog"

    def __init__(self, seed: int, env: Env):
        self.seed, self.env = seed, env

    def _traffic(self, cycle: int) -> None:
        traffic = self.spec.traffic(cycle)
        self.expect: dict = {}
        self.fill = build_block(traffic["fill"], self.expect)
        self.steady = [build_block(specs, self.expect) for specs in traffic["steady"]]
        self.queries = traffic["queries"]

    def setup(self):
        env = self.env
        self.spec = spec = gen.Backlog(self.seed, env.capacity, env.interval, BACKLOG_CYCLE_BLOCKS)
        expect: dict = {}
        self.reader_dir, led = env.new_ledger("reader")
        problems = []
        for specs in spec.setup_blocks:
            problems += apply_block(led, build_block(specs, expect), expect)
        led.persist(self.reader_dir)
        self.reader_height = led.height
        self._traffic(0)
        self.dir = None
        return fingerprint(led), problems

    def cycle(self, index: int, s: Samples, tracer):
        if self.dir is not None:
            shutil.rmtree(self.dir)
        self.dir = self.env.new_dir("backlog")
        shutil.copytree(self.reader_dir, self.dir)
        self.led = led = ledger_mod.load_ledger(self.dir)
        for tx in self.fill:
            led.submit(tx)
        for txs, queries in zip(self.steady, self.queries):
            run_block(led, txs, self.dir, self.expect, s, exact=self.env.capacity)
            for item in queries:
                run_query(led, item, s)
        model, owners = self.spec.reader
        ops = gen.reader_ops(model, self.reader_height, owners, self.seed, index, *BACKLOG_CLI)
        run_reader_ops(ops, self.reader_dir, self.env, s, tracer)
        self._traffic(index + 1)
        return fingerprint(led)

    def final_check(self, s: Samples) -> None:
        check_verified(self.dir, "backlog", s)
        s.attempted += 1
        if self.led.pending_count() != gen.BACKLOG_DEPTH:
            s.failures.append(f"backlog depth drifted to {self.led.pending_count()}")


class Audit:
    """CLI reads and writes on a fixed chain, beside a warm in-memory ledger
    that each cycle reloads, so memory and block cost do not grow with the run."""

    name = "audit"

    def __init__(self, seed: int, env: Env):
        self.seed, self.env = seed, env

    def setup(self):
        env = self.env
        self.spec = spec = gen.Audit(self.seed, env.capacity, env.interval)
        expect: dict = {}
        self.reader_dir, led = env.new_ledger("reader")
        problems = []
        for specs in spec.blocks:
            problems += apply_block(led, build_block(specs, expect), expect)
        led.persist(self.reader_dir)
        self.reader_height = led.height
        if fingerprint(ledger_mod.load_ledger(self.reader_dir)) != fingerprint(led):
            problems.append("reloaded chain differs from the chain that was written")
        self.warm_dir = None
        return fingerprint(led), problems

    def cycle(self, index: int, s: Samples, tracer):
        if self.warm_dir is not None:
            shutil.rmtree(self.warm_dir)
        self.warm_dir = self.env.new_dir("warm")
        shutil.copytree(self.reader_dir, self.warm_dir)
        self.warm = ledger_mod.load_ledger(self.warm_dir)
        blocks, queries = self.spec.warm(index, AUDIT_WARM_BLOCKS, AUDIT_WARM_QUERIES_PER_BLOCK)
        expect: dict = {}
        for specs, block_queries in zip(blocks, queries):
            run_block(self.warm, build_block(specs, expect), self.warm_dir, expect, s,
                      exact=len(specs))
            for item in block_queries:
                run_query(self.warm, item, s)
        model, owners = self.spec.reader
        ops = gen.reader_ops(model, self.reader_height, owners, self.seed, index, *AUDIT_CLI)
        run_reader_ops(ops, self.reader_dir, self.env, s, tracer)
        return fingerprint(self.warm)

    def final_check(self, s: Samples) -> None:
        check_verified(self.reader_dir, "audit", s)
        check_verified(self.warm_dir, "audit warm", s)


WORKLOADS = {cls.name: cls for cls in (Ingest, Backlog, Audit)}


def timed_phase(workload, seconds: float, s: Samples, tracer) -> list:
    """Whole cycles until ``seconds`` have passed; returns each cycle's fingerprint.

    A full collection before each cycle starts every cycle from the same
    collector state."""
    prints = []
    s.meter.tick(force=True)
    start = perf_counter()
    while True:
        gc.collect()
        prints.append(workload.cycle(len(prints), s, tracer))
        if perf_counter() - start >= seconds:
            s.meter.tick(force=True)
            return prints


def timed_setups(workload, repeats: int) -> tuple[list[float], list[float], list]:
    """Run set-up ``repeats`` times: (scaled seconds, raw seconds, set-up results)."""
    meter, timings, results = Meter(), [], []
    for _ in range(repeats):
        gc.collect()
        meter.tick(force=True)
        start = perf_counter()
        results.append(workload.setup())
        timings.append((start, perf_counter() - start))
        meter.tick(force=True)
    return meter.scaled(timings), [elapsed for _, elapsed in timings], results


# --- metrics ----------------------------------------------------------------------

def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def end_to_end(s: Samples, setup_s: list[float], peak_rss_mb: float, scaled: bool = True) -> dict:
    """End-to-end metrics; ``scaled=False`` gives the unscaled wall times."""
    times = s.meter.scaled if scaled else (lambda pairs: [elapsed for _, elapsed in pairs])
    block, query_s = times(s.block_s), times(s.query_s)
    cli_s = {kind: times(pairs) for kind, pairs in s.cli.items()}
    return {
        "setup_s": statistics.median(setup_s),
        "tx_per_s": sum(s.block_tx) / sum(block),
        "block_ms_p50": statistics.median(block) * 1e3,
        "block_ms_p95": percentile(block, 95) * 1e3,
        "cli_read_ms_p50": statistics.median(cli_s["read"]) * 1e3,
        "cli_write_ms_p50": statistics.median(cli_s["write"]) * 1e3,
        "verify_s": statistics.median(cli_s["verify"]),
        "query_us_p50": statistics.median(query_s) * 1e6,
        "query_us_p99": percentile(query_s, 99) * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }


UNITS = {
    "setup_s": "s",
    "tx_per_s": "tx/s",
    "block_ms_p50": "ms",
    "block_ms_p95": "ms",
    "cli_read_ms_p50": "ms",
    "cli_write_ms_p50": "ms",
    "verify_s": "s",
    "query_us_p50": "us",
    "query_us_p99": "us",
    "peak_rss_mb": "MB",
}


def store_bands(s: Samples) -> dict[str, float]:
    """Block-step p50 by store size when the block ran: [0.5k,1k), [1k,2k), [2k,4k)."""
    block = s.meter.scaled(s.block_s)
    bands = {}
    for label, low, high in (("1k", 500, 1000), ("2k", 1000, 2000), ("4k", 2000, 4000)):
        inside = [t for t, n in zip(block, s.block_store) if low <= n < high]
        if inside:
            bands[label] = statistics.median(inside) * 1e3
    return bands


def block_growth(s: Samples) -> float:
    """p50 block step over the larger-store half of blocks / over the smaller half."""
    block = s.meter.scaled(s.block_s)
    order = sorted(range(len(block)), key=lambda i: s.block_store[i])
    half = len(order) // 2
    small = statistics.median(block[i] for i in order[:half])
    large = statistics.median(block[i] for i in order[half:])
    return large / small


def summary_lines(name: str, s: Samples, metrics: dict, raw: dict) -> list[str]:
    lines = [f"{name} {key} {value:.6g} {UNITS[key]} (unscaled {raw[key]:.6g})"
             for key, value in metrics.items()]
    ratio = len(s.failures) / s.attempted if s.attempted else 0.0
    lines.append(f"{name} failed_ratio {ratio:.6g} ({len(s.failures)}/{s.attempted})")
    lines.append(f"{name} blocks {len(s.block_s)} queries {len(s.query_s)} "
                 f"cli {sum(len(v) for v in s.cli.values())} "
                 f"host speed {REF_NOMINAL_S / statistics.median(s.meter.cost):.3f}")
    lines.append(f"{name} tally {dict(sorted(s.tally.items()))} "
                 f"expected {dict(sorted(s.expected_tally.items()))}")
    for label, value in store_bands(s).items():
        lines.append(f"{name} block_ms_p50_at_{label} {value:.6g} ms")
    return lines + [f"{name} FAILED {message}" for message in s.failures[:20]]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
