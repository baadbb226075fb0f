"""Checks of the benchmark itself: stable inputs, a tracer that perturbs
nothing, metric names that match BENCHMARK.json, and a refusal to run
outside a checkout.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import engine
import gen
import tracing

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# spec_digest of the generator's output for seed 7; a change here changes
# every workload's inputs, so it must be deliberate.
GOLDEN = {
    "ingest": "05344e00447e539faa57236fe14a43e0e7f2764ececbbe549ff09ba197efda50",
    "backlog": "0c71a3e1969a0abf85833e6f0da888dcb635ea4edd62e5a94972288ce32a9107",
    "audit": "55ab7159c3d613c8816a9a97963626a08f80e0bde3198f36fbedc65df9089afb",
}


def generated(name: str) -> str:
    if name == "ingest":
        spec = gen.ingest("7/ingest/0", 10, 15000)
        return gen.spec_digest([spec["blocks"], spec["queries"]])
    if name == "backlog":
        backlog = gen.Backlog(7, 10, 15000, 5)
        return gen.spec_digest([backlog.setup_blocks, backlog.traffic(0)])
    audit = gen.Audit(7, 10, 15000)
    return gen.spec_digest([audit.blocks, audit.warm(0, 3, 20)])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generator_output_is_byte_stable(name):
    assert generated(name) == generated(name) == GOLDEN[name]


def one_cycle(name: str, work: Path, tracer=None):
    """Set up a workload and run one cycle; returns (fingerprint, samples)."""
    env = engine.Env(ROOT, work)
    workload = engine.WORKLOADS[name](5, env)
    _, problems = workload.setup()
    assert problems == []
    samples = engine.Samples()
    if tracer is None:
        fingerprint = workload.cycle(0, samples, engine.NullTracer())
    else:
        with tracer.installed():
            fingerprint = workload.cycle(0, samples, tracer)
    workload.final_check(samples)
    assert samples.failures == []
    return fingerprint, samples


@pytest.mark.parametrize("name", sorted(engine.WORKLOADS))
def test_tracing_perturbs_nothing_and_yields_every_metric(name, tmp_path):
    original = engine.ledger_mod.Ledger.__dict__["produce_block"]
    plain_print, plain = one_cycle(name, tmp_path / "plain")
    tracer = tracing.Tracer()
    traced_print, traced = one_cycle(name, tmp_path / "traced", tracer)
    assert traced_print == plain_print
    assert engine.ledger_mod.Ledger.__dict__["produce_block"] is original

    plain_metrics = engine.end_to_end(plain, [1.0], 1.0)
    traced_metrics = engine.end_to_end(traced, [1.0], 1.0)
    assert set(plain_metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value in plain_metrics.values())
    layers = tracing.layer_metrics(tracer, traced, plain_metrics, traced_metrics)
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert layers["provenance.validate_calls_per_create"] > 0


def test_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert declared == {**engine.UNITS, **tracing.UNITS}


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
