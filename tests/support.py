"""Shared builders for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

from provledger import (
    AssignmentStrategy,
    ClientId,
    ContextSchema,
    ExposureFlags,
    Ledger,
    PolicyLayer,
    SimConfig,
    UseCasePolicy,
    load_ledger,
)
from provledger.ledger import BLOCKS_FILE

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ALICE = ClientId.from_alias("alice")
BOB = ClientId.from_alias("bob")
CAROL = ClientId.from_alias("carol")
MALLORY = ClientId.from_alias("mallory")


def open_policy(
    required=("agent",),
    optional=("time", "value", "temperature", "location", "unit"),
    allow_update=True,
    allow_invalidate=True,
) -> UseCasePolicy:
    return UseCasePolicy(
        schema=ContextSchema(
            name="test", required=frozenset(required), optional=frozenset(optional)
        ),
        exposure=ExposureFlags(allow_update=allow_update, allow_invalidate=allow_invalidate),
        assignment=AssignmentStrategy("open"),
    )


def fee_policy(price=5, initial_balance=20) -> UseCasePolicy:
    base = open_policy()
    return UseCasePolicy(
        schema=base.schema,
        exposure=base.exposure,
        assignment=AssignmentStrategy("fee", price=price, initial_balance=initial_balance),
    )


def whitelist_policy(admin: ClientId, members=()) -> UseCasePolicy:
    base = open_policy()
    return UseCasePolicy(
        schema=base.schema,
        exposure=base.exposure,
        assignment=AssignmentStrategy("whitelist", admin=admin, members=frozenset(members)),
    )


def layer(policy: UseCasePolicy | None = None) -> PolicyLayer:
    return PolicyLayer.build(policy or open_policy())


def quick_config(interval=1000, capacity=10, seed=0, jitter=False) -> SimConfig:
    return SimConfig(
        block_interval_ms=interval, block_capacity=capacity, rng_seed=seed, jitter=jitter
    )


def quick_ledger(policy=None, **config_kwargs) -> Ledger:
    return Ledger(policy or open_policy(), quick_config(**config_kwargs))


def assert_log_matches(ledger: Ledger, directory: Path, produced: list) -> Ledger:
    """``produced`` holds the genesis and every block ``produce_block``
    returned. Their state digests and block hashes must equal the log's
    lines, height by height, and the log must replay to the ledger's head and
    state. Returns the reloaded ledger."""
    lines = [json.loads(line) for line in (directory / BLOCKS_FILE).read_bytes().splitlines()]
    assert [line["stateDigest"] for line in lines] == [block.state_digest for block in produced]
    assert [line["blockHash"] for line in lines] == [block.block_hash for block in produced]
    loaded = load_ledger(directory)
    assert loaded.head == ledger.head
    assert loaded.state_snapshot() == ledger.state_snapshot()
    return loaded
