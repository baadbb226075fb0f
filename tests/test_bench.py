"""Benchmark harness: throughput ceiling, latency, fee insensitivity."""

from __future__ import annotations

import pytest

from provledger import ClientId, SimConfig, run_benchmark
from provledger.bench import MAX_WINDOW_INTERVALS
from provledger.errors import ConfigInvalidError
from oracles import schedule_confirmations
from support import quick_ledger

HEADLINE = SimConfig(block_interval_ms=15_000, block_capacity=10, rng_seed=1)


def oracle_run(config: SimConfig, tx_count: int, window_ms: int):
    """Discrete-event reference for a single-fee benchmark run."""
    t0 = config.block_interval_ms  # setup block timestamp
    submit_times = [t0 + (i * window_ms) // tx_count for i in range(tx_count)]
    confirms = schedule_confirmations(
        submit_times,
        first_boundary=t0 + config.block_interval_ms,
        interval=config.block_interval_ms,
        capacity=config.block_capacity,
    )
    window_end = t0 + window_ms
    latencies = [
        confirm - submit
        for submit, confirm in zip(submit_times, confirms)
        if confirm <= window_end
    ]
    return latencies


def test_headline_throughput_matches_closed_form_and_oracle():
    """Capacity 10 every 15 s for 60 s: exactly 4 full blocks fit the window,
    so 40 of 150 submissions confirm and tps is 40/60."""
    report = run_benchmark(HEADLINE, tx_count=150, window_ms=60_000, fee=2)
    assert report.submitted == 150
    assert report.confirmed == 40
    assert report.tps == pytest.approx(40 / 60, abs=1e-9)
    oracle_latencies = oracle_run(HEADLINE, 150, 60_000)
    assert list(report.latencies_ms) == oracle_latencies
    assert report.confirmed_total == 150


def test_low_load_confirms_next_block():
    """Below capacity every tx lands in the next block; latency equals the
    residual time to that boundary."""
    config = SimConfig(block_interval_ms=15_000, block_capacity=100, rng_seed=1)
    report = run_benchmark(config, tx_count=10, window_ms=60_000, fee=1)
    oracle_latencies = oracle_run(config, 10, 60_000)
    assert report.confirmed == 10
    assert list(report.latencies_ms) == oracle_latencies
    assert max(report.latencies_ms) <= config.block_interval_ms
    assert report.mean_latency_ms == pytest.approx(
        sum(oracle_latencies) / len(oracle_latencies)
    )


def test_fee_sweep_leaves_throughput_unchanged():
    reports = [
        run_benchmark(HEADLINE, tx_count=150, window_ms=60_000, fee=fee)
        for fee in (1, 2, 5, 10, 20)
    ]
    tps_values = {report.tps for report in reports}
    assert len(tps_values) == 1
    confirmed = {report.confirmed for report in reports}
    assert confirmed == {40}


def test_throughput_never_exceeds_capacity_over_interval():
    for capacity, interval in ((3, 500), (10, 15_000), (1, 1000)):
        config = SimConfig(block_interval_ms=interval, block_capacity=capacity, rng_seed=0)
        report = run_benchmark(config, tx_count=60, window_ms=10 * interval, fee=1)
        assert report.tps <= capacity / (interval / 1000.0) + 1e-9
        assert report.confirmed <= report.submitted


def test_report_shape_and_percentile():
    report = run_benchmark(HEADLINE, tx_count=20, window_ms=30_000, fee=1)
    data = report.as_dict()
    assert set(data) == {
        "submitted",
        "confirmed",
        "confirmedTotal",
        "windowMs",
        "tps",
        "latenciesMs",
        "meanLatencyMs",
        "medianLatencyMs",
        "p95LatencyMs",
    }
    assert data["confirmed"] == len(data["latenciesMs"])
    if data["latenciesMs"]:
        assert data["p95LatencyMs"] in [float(v) for v in data["latenciesMs"]]


def test_benchmark_is_deterministic():
    first = run_benchmark(HEADLINE, tx_count=50, window_ms=20_000, fee=3)
    second = run_benchmark(HEADLINE, tx_count=50, window_ms=20_000, fee=3)
    assert first == second


def test_benchmark_validates_load():
    with pytest.raises(ConfigInvalidError):
        run_benchmark(HEADLINE, tx_count=0, window_ms=1000, fee=1)
    with pytest.raises(ConfigInvalidError):
        run_benchmark(HEADLINE, tx_count=10, window_ms=0, fee=1)
    with pytest.raises(ConfigInvalidError):
        run_benchmark(HEADLINE, tx_count=10, window_ms=1000, fee=-1)
    # every integer a transaction or the clock holds fits in 64 bits
    with pytest.raises(ConfigInvalidError, match=r"^fee must be an unsigned 64-bit integer$"):
        run_benchmark(HEADLINE, tx_count=10, window_ms=1000, fee=2**64)
    with pytest.raises(ConfigInvalidError, match=r"^window must be an integer from 1 to 2\*\*64 - 1 ms$"):
        run_benchmark(HEADLINE, tx_count=10, window_ms=2**64, fee=1)
    # the run's ledger holds every block, so the window is bounded in intervals
    too_long = (MAX_WINDOW_INTERVALS + 1) * HEADLINE.block_interval_ms
    message = f"^window must span at most {MAX_WINDOW_INTERVALS} block intervals$"
    with pytest.raises(ConfigInvalidError, match=message):
        run_benchmark(HEADLINE, tx_count=10, window_ms=too_long, fee=1)


@pytest.mark.parametrize("seed", [0, 5, 7, 19])
def test_jittered_run_drains(seed):
    """Jittered intervals add up to a random walk over the window, so no
    block count fixed in advance bounds the drain; every transaction is
    still confirmed."""
    config = SimConfig(block_interval_ms=1000, block_capacity=2000, rng_seed=seed, jitter=True)
    report = run_benchmark(config, tx_count=2000, window_ms=2_000_000, fee=1)
    assert report.confirmed_total == report.submitted == 2000


def test_latency_ordering_under_contention():
    """Two fee classes from two senders under contention: the pricier class
    confirms within one interval, the cheaper one waits longer."""
    ledger = quick_ledger(interval=1000, capacity=2)
    rich = ClientId.from_alias("rich")
    poor = ClientId.from_alias("poor")
    for client in (rich, poor):
        ledger.submit_payload(client, {"op": "requestToken", "payment": 0}, fee=50)
    ledger.produce_block()
    t0 = ledger.now
    submit_times = {}
    # rich alone fits capacity (2 per interval); rich+poor together exceed it
    for i in range(12):
        at = t0 + i * 500
        for client, fee, token in ((rich, 20, 1), (poor, 1, 2)):
            tx = ledger.submit_payload(
                client,
                {
                    "op": "createProvenance",
                    "tokenId": token,
                    "inputs": [],
                    "context": {"agent": f"{fee}-{i}"},
                },
                fee=fee,
                submitted_at=at,
            )
            submit_times[tx.hash] = (fee, at)
    confirmed = {}
    while ledger.pending_count():
        block, outcomes = ledger.produce_block()
        for outcome in outcomes:
            confirmed[outcome.tx.hash] = block.timestamp
    by_fee = {20: [], 1: []}
    for tx_hash, (fee, at) in submit_times.items():
        by_fee[fee].append(confirmed[tx_hash] - at)
    mean_rich = sum(by_fee[20]) / len(by_fee[20])
    mean_poor = sum(by_fee[1]) / len(by_fee[1])
    assert mean_rich <= 1000
    assert mean_rich < mean_poor
