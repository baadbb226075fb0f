"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` replaces each layer's entry points, at the class or
module attribute their callers resolve, with a wrapper that records a span
(name, start, end, parent, whether it raised). Spans stay in memory; the
originals are put back on exit. ``RecordStore.get_record`` is only counted,
per enclosing span, because queries call it hundreds of times.

A span's self time is its duration minus its direct children, which nest
inside it because one thread runs everything. Durations are scaled by the
phase's host-speed meter, like the end-to-end times (see ``engine``).
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from statistics import median
from time import perf_counter_ns

from provledger import cli, ledger, policy, provenance, query, records, tokens

from engine import block_growth

LOOKUP = None  # marks a target that is counted, not spanned


def _targets():
    L = ledger
    return [
        (L.Ledger, "submit", "ledger.submit"),
        (L.Ledger, "produce_block", "ledger.produce_block"),
        (L.Ledger, "_execute", "ledger.execute"),
        (L.Ledger, "state_digest", "ledger.commit"),
        (L.Ledger, "persist", "ledger.persist"),
        (L.Block, "seal", "ledger.seal"),
        (L.Block, "from_wire", "ledger.parse"),
        (L, "load_ledger", "ledger.load"),
        (cli, "load_ledger", "ledger.load"),
        (L, "verify_chain", "ledger.verify"),
        (cli, "verify_chain", "ledger.verify"),
        (policy.PolicyLayer, "create_provenance_checked", "policy.create"),
        (policy.PolicyLayer, "gate_update", "policy.update"),
        (policy.PolicyLayer, "gate_invalidate", "policy.invalidate"),
        (policy.PolicyLayer, "request_token", "policy.request_token"),
        (provenance.ProvenanceLayer, "create_provenance", "provenance.create"),
        (provenance.ProvenanceLayer, "validate_create", "provenance.validate"),
        (records.RecordStore, "snapshot", "records.snapshot"),
        (records.RecordStore, "get_record", LOOKUP),
        (tokens.TokenRegistry, "mint", "tokens.exec"),
        (tokens.TokenRegistry, "transfer", "tokens.exec"),
        (tokens.TokenRegistry, "approve", "tokens.exec"),
        (tokens.TokenRegistry, "snapshot", "tokens.snapshot"),
        (query, "lineage", "query.lineage"),
        (query, "derivation_graph", "query.graph"),
        (query, "traces", "query.traces"),
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.errors: list[bool] = []
        self.lookups: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.errors.append(False)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        except BaseException:
            self.errors[index] = True
            raise
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[index] = True
                raise
            finally:
                self._close(index)

        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = self._stack
            self.lookups[self.names[stack[-1]] if stack else ""] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                fn = original.__func__ if isinstance(original, classmethod) else original
                wrapped = self._count(fn) if name is LOOKUP else self._wrap(name, fn)
                setattr(owner, attr, classmethod(wrapped) if isinstance(original, classmethod) else wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# --- per-layer metrics --------------------------------------------------------------

class _Spans:
    """Index over a finished trace; durations in scaled nanoseconds."""

    def __init__(self, tracer: Tracer, meter):
        self.t = tracer
        n = len(tracer.names)
        self.dur = [(tracer.ends[i] - tracer.starts[i]) * meter.scale(tracer.starts[i] * 1e-9)
                    for i in range(n)]
        self.child_sum = [0] * n
        for i, parent in enumerate(tracer.parents):
            if parent >= 0:
                self.child_sum[parent] += self.dur[i]
        self.by_name: dict[str, list[int]] = {}
        for i, name in enumerate(tracer.names):
            self.by_name.setdefault(name, []).append(i)

    def of(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def nearest(self, names: set[str]) -> list[int]:
        """Index of each span's nearest ancestor with one of ``names``, or -1."""
        out = [-1] * len(self.dur)
        t = self.t
        for i, parent in enumerate(t.parents):
            if parent >= 0:
                out[i] = parent if t.names[parent] in names else out[parent]
        return out

    def per_ancestor(self, name: str, ancestor: str) -> list[int]:
        """Total ``name`` time inside each ``ancestor`` span."""
        near = self.nearest({ancestor})
        totals = {i: 0 for i in self.of(ancestor)}
        for i in self.of(name):
            if near[i] >= 0:
                totals[near[i]] += self.dur[i]
        return list(totals.values())


def layer_metrics(tracer: Tracer, s, plain: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced phase. ``s`` holds that phase's samples;
    ``plain`` and ``traced`` are its end-to-end metrics without and with tracing."""
    sp = _Spans(tracer, s.meter)
    dur, ms, us = sp.dur, 1e-6, 1e-3
    in_block = sp.nearest({"ledger.produce_block"})
    blocks = sp.of("ledger.produce_block")
    commits = [dur[i] for i in sp.of("ledger.commit") if in_block[i] >= 0]
    in_cli = sp.nearest({"cli.read", "cli.write"})
    cli_spans = sp.of("cli.read") + sp.of("cli.write")
    policy_spans = [i for n in ("create", "update", "invalidate", "request_token")
                    for i in sp.of("policy." + n)]
    in_create = sp.nearest({"policy.create"})
    created = [i for i in sp.of("policy.create") if not tracer.errors[i]]
    validations = [i for i in sp.of("provenance.validate")
                   if in_create[i] >= 0 and not tracer.errors[in_create[i]]]
    query_spans = [i for n in ("lineage", "graph", "traces") for i in sp.of("query." + n)]
    in_write = sp.nearest({"cli.write"})
    ratios = [traced[k] / plain[k] for k in
              ("block_ms_p50", "cli_read_ms_p50", "cli_write_ms_p50", "verify_s", "query_us_p50")]
    ratios.append(plain["tx_per_s"] / traced["tx_per_s"])
    return {
        "ledger.commit_ms_p50": median(commits) * ms,
        "ledger.commit_share": sum(commits) / sum(dur[i] for i in blocks),
        "ledger.select_ms_p50": median(dur[i] - sp.child_sum[i] for i in blocks) * ms,
        "ledger.submit_us_p50": median(dur[i] for i in sp.of("ledger.submit")) * us,
        "ledger.seal_us_p50": median(dur[i] for i in sp.of("ledger.seal") if in_block[i] >= 0) * us,
        "ledger.persist_ms_p50": median(dur[i] for i in sp.of("ledger.persist")) * ms,
        "ledger.persist_bytes_per_tx": s.persist_bytes / s.persist_tx,
        "ledger.load_ms": median(dur[i] for i in sp.of("ledger.load")) * ms,
        "ledger.parse_ms": median(sp.per_ancestor("ledger.parse", "ledger.load")) * ms,
        "ledger.replay_commit_ms": median(sp.per_ancestor("ledger.commit", "ledger.load")) * ms,
        "ledger.verify_ms": median(dur[i] for i in sp.of("ledger.verify")) * ms,
        "ledger.mempool_depth_p50": median(s.depth),
        "ledger.block_growth": block_growth(s),
        "policy.create_us_p50": median(dur[i] for i in sp.of("policy.create")) * us,
        "policy.update_us_p50": median(dur[i] for i in sp.of("policy.update")) * us,
        "policy.request_token_us_p50": median(dur[i] for i in sp.of("policy.request_token")) * us,
        "policy.rejected_ratio": sum(tracer.errors[i] for i in policy_spans) / len(policy_spans),
        "provenance.create_us_p50": median(dur[i] for i in sp.of("provenance.create")) * us,
        "provenance.validate_calls_per_create": len(validations) / len(created),
        "records.snapshot_ms_p50": median(dur[i] for i in sp.of("records.snapshot")) * ms,
        "records.lookups_per_query": sum(
            tracer.lookups[f"query.{n}"] for n in ("lineage", "graph", "traces")) / len(query_spans),
        "tokens.exec_us_p50": median(dur[i] for i in sp.of("tokens.exec")) * us,
        "tokens.snapshot_ms_p50": median(dur[i] for i in sp.of("tokens.snapshot")) * ms,
        "query.lineage_us_p50": median(dur[i] for i in sp.of("query.lineage")) * us,
        "query.graph_us_p50": median(dur[i] for i in sp.of("query.graph")) * us,
        "query.traces_us_p50": median(dur[i] for i in sp.of("query.traces")) * us,
        "query.nodes_per_graph": sum(s.graph_nodes) / len(s.graph_nodes),
        "cli.load_share": sum(dur[i] for i in sp.of("ledger.load") if in_cli[i] >= 0)
        / sum(dur[i] for i in cli_spans),
        "cli.persist_ms_p50": median(dur[i] for i in sp.of("ledger.persist") if in_write[i] >= 0) * ms,
        "trace.overhead": median(ratios),
    }


def select_share(tracer: Tracer, meter) -> float:
    """Self time of ``produce_block`` as a share of its whole time."""
    sp = _Spans(tracer, meter)
    blocks = sp.of("ledger.produce_block")
    return sum(sp.dur[i] - sp.child_sum[i] for i in blocks) / sum(sp.dur[i] for i in blocks)


UNITS = {
    "ledger.commit_ms_p50": "ms",
    "ledger.commit_share": "ratio",
    "ledger.select_ms_p50": "ms",
    "ledger.submit_us_p50": "us",
    "ledger.seal_us_p50": "us",
    "ledger.persist_ms_p50": "ms",
    "ledger.persist_bytes_per_tx": "B/tx",
    "ledger.load_ms": "ms",
    "ledger.parse_ms": "ms",
    "ledger.replay_commit_ms": "ms",
    "ledger.verify_ms": "ms",
    "ledger.mempool_depth_p50": "count",
    "ledger.block_growth": "ratio",
    "policy.create_us_p50": "us",
    "policy.update_us_p50": "us",
    "policy.request_token_us_p50": "us",
    "policy.rejected_ratio": "ratio",
    "provenance.create_us_p50": "us",
    "provenance.validate_calls_per_create": "count",
    "records.snapshot_ms_p50": "ms",
    "records.lookups_per_query": "count",
    "tokens.exec_us_p50": "us",
    "tokens.snapshot_ms_p50": "ms",
    "query.lineage_us_p50": "us",
    "query.graph_us_p50": "us",
    "query.traces_us_p50": "us",
    "query.nodes_per_graph": "count",
    "cli.load_share": "ratio",
    "cli.persist_ms_p50": "ms",
    "trace.overhead": "ratio",
}
