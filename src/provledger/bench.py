"""Throughput/latency benchmark over the simulated ledger.

Reproduces the evaluation methodology at desk scale: submit a fixed number
of record-creation transactions spread uniformly over a time window, let the
clock run until the mempool drains, then report transactions per second over
the window plus per-transaction confirmation latencies. Fully deterministic
for a given config.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from .canonical import UINT64_MAX
from .errors import ConfigInvalidError
from .ledger import Ledger, SimConfig
from .policy import AssignmentStrategy, ContextSchema, ExposureFlags, UseCasePolicy
from .tokens import ClientId

_BENCH_POLICY = UseCasePolicy(
    schema=ContextSchema(name="benchmark", required=frozenset({"agent", "seq"})),
    exposure=ExposureFlags(allow_update=False, allow_invalidate=False),
    assignment=AssignmentStrategy("open"),
)
_BENCH_CLIENT_ALIAS = "bench-loadgen"
# the ledger of a run is never persisted, so it holds every block of the window
MAX_WINDOW_INTERVALS = 100_000


@dataclass(frozen=True)
class BenchmarkReport:
    """Throughput measured over the submission window; latency per confirmed tx.

    ``confirmed`` counts transactions confirmed inside the window (what tps
    is computed from); ``confirmed_total`` additionally counts the drain
    phase after the window closed.
    """

    submitted: int
    confirmed: int
    confirmed_total: int
    window_ms: int
    tps: float
    latencies_ms: tuple[int, ...]
    mean_latency_ms: float | None
    median_latency_ms: float | None
    p95_latency_ms: float | None

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "confirmed": self.confirmed,
            "confirmedTotal": self.confirmed_total,
            "windowMs": self.window_ms,
            "tps": self.tps,
            "latenciesMs": list(self.latencies_ms),
            "meanLatencyMs": self.mean_latency_ms,
            "medianLatencyMs": self.median_latency_ms,
            "p95LatencyMs": self.p95_latency_ms,
        }


def percentile_95(values: list[int]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    rank = max(1, -(-95 * len(ordered) // 100))  # ceil without floats
    return float(ordered[rank - 1])


def run_benchmark(config: SimConfig, tx_count: int, window_ms: int, fee: int) -> BenchmarkReport:
    """Drive a fresh in-memory ledger under uniform load and measure it.

    A setup block mints the benchmark token before the window opens, so the
    window itself contains only record-creation traffic. One loop submits
    each transaction when it falls due and counts each block's outcomes as
    it is sealed, until the mempool drains: after the last submission each
    block seals at least one transaction, so no block limit is needed. The
    run's ledger holds every block, hence ``MAX_WINDOW_INTERVALS``.
    """
    if type(tx_count) is not int or tx_count < 1:
        raise ConfigInvalidError("tx count must be an integer >= 1")
    if type(window_ms) is not int or not 1 <= window_ms <= UINT64_MAX:
        raise ConfigInvalidError("window must be an integer from 1 to 2**64 - 1 ms")
    if type(fee) is not int or not 0 <= fee <= UINT64_MAX:
        raise ConfigInvalidError("fee must be an unsigned 64-bit integer")
    if window_ms > MAX_WINDOW_INTERVALS * config.block_interval_ms:
        raise ConfigInvalidError(f"window must span at most {MAX_WINDOW_INTERVALS} block intervals")

    ledger = Ledger(_BENCH_POLICY, config)
    client = ClientId.from_alias(_BENCH_CLIENT_ALIAS)

    ledger.submit_payload(client, {"op": "requestToken", "payment": 0}, fee=fee, submitted_at=0)
    _, outcomes = ledger.produce_block()
    token_id = outcomes[0].value["tokenId"]

    window_start = ledger.now
    window_end = window_start + window_ms
    latencies: list[int] = []
    confirmed_total = 0
    submitted = 0
    while submitted < tx_count or ledger.pending_count():
        boundary = ledger.next_block_timestamp()
        while submitted < tx_count:
            at = window_start + (submitted * window_ms) // tx_count
            if at > boundary:
                break
            payload = {
                "op": "createProvenance",
                "tokenId": token_id,
                "inputs": [],
                "context": {"agent": "loadgen", "seq": str(submitted)},
            }
            ledger.submit_payload(client, payload, fee=fee, submitted_at=at)
            submitted += 1
        block, outcomes = ledger.produce_block()
        confirmed_total += len(outcomes)
        if block.timestamp <= window_end:
            latencies.extend(block.timestamp - outcome.tx.submitted_at for outcome in outcomes)

    return BenchmarkReport(
        submitted=tx_count,
        confirmed=len(latencies),
        confirmed_total=confirmed_total,
        window_ms=window_ms,
        tps=len(latencies) / (window_ms / 1000.0),
        latencies_ms=tuple(latencies),
        mean_latency_ms=statistics.mean(latencies) if latencies else None,
        median_latency_ms=statistics.median(latencies) if latencies else None,
        p95_latency_ms=percentile_95(latencies) if latencies else None,
    )
