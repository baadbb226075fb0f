"""Scenario scripts: replayable step lists with per-step expectations.

A script is a JSON file of steps {as, op, expect, fee?}. Client references
(the sender and any address-valued payload fields) may be human-readable
aliases; they resolve to deterministic addresses, so the same script always
produces the same chain on a fresh ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigInvalidError, LedgerError
from .ledger import Ledger, read_json_file, resolve_payload
from .policy import resolve_client


@dataclass(frozen=True)
class ScenarioStep:
    alias: str
    payload: dict
    expect: str
    fee: int = 1


@dataclass(frozen=True)
class StepOutcome:
    index: int
    alias: str
    tx_hash: str
    block_height: int
    status: str
    expect: str
    value: dict | None
    message: str | None

    @property
    def matched(self) -> bool:
        return self.status == self.expect

    def as_dict(self) -> dict:
        data = {
            "step": self.index,
            "as": self.alias,
            "txHash": self.tx_hash,
            "blockHeight": self.block_height,
            "result": self.status,
            "expect": self.expect,
            "matched": self.matched,
        }
        if self.value:
            data.update(self.value)
        return data


def load_scenario(path: str | Path) -> list[ScenarioStep]:
    data = read_json_file(path, "scenario")
    if not isinstance(data, dict) or not isinstance(data.get("steps"), list):
        raise ConfigInvalidError("scenario must be an object with a steps list")
    steps = []
    for position, raw in enumerate(data["steps"]):
        if not isinstance(raw, dict):
            raise ConfigInvalidError(f"step {position} must be an object")
        unknown = set(raw) - {"as", "op", "expect", "fee"}
        if unknown:
            raise ConfigInvalidError(f"step {position} has unknown fields {sorted(unknown)}")
        alias = raw.get("as")
        payload = raw.get("op")
        expect = raw.get("expect", "ok")
        fee = raw.get("fee", 1)
        if type(alias) is not str or not alias:
            raise ConfigInvalidError(f"step {position} requires a client in 'as'")
        if not isinstance(payload, dict) or "op" not in payload:
            raise ConfigInvalidError(f"step {position} requires an op payload")
        if type(expect) is not str or not expect:
            raise ConfigInvalidError(f"step {position} has a bad expectation")
        if type(fee) is not int or fee < 0:
            raise ConfigInvalidError(f"step {position} has a bad fee")
        steps.append(ScenarioStep(alias=alias, payload=payload, expect=expect, fee=fee))
    return steps


def run_scenario(ledger: Ledger, steps: list[ScenarioStep]) -> list[StepOutcome]:
    """Execute steps in order; stops after the first expectation mismatch.

    Blocks are produced until each step's transaction is sealed, and the
    step reports the block that sealed it: one block, unless pending
    transactions with higher fees fill it.

    Submission-time rejections (bad nonce, malformed payload, a transfer of
    a missing token) never reach a block; they are reported with the current
    height so a step may expect them too.
    """
    outcomes: list[StepOutcome] = []
    for index, step in enumerate(steps):
        try:
            sender = resolve_client(step.alias, "step client")
            payload = resolve_payload(ledger.machine, step.payload)
            tx = ledger.submit_payload(sender, payload, fee=step.fee)
        except LedgerError as exc:
            outcome = StepOutcome(
                index, step.alias, "", ledger.height, exc.code, step.expect, None, str(exc)
            )
        else:
            executed = None
            while executed is None:  # pending higher fees may fill the next blocks
                block, block_outcomes = ledger.produce_block()
                executed = next((o for o in block_outcomes if o.tx.hash == tx.hash), None)
            outcome = StepOutcome(
                index, step.alias, tx.hash, block.height, executed.status, step.expect,
                executed.value, executed.message,
            )
        outcomes.append(outcome)
        if not outcome.matched:
            break
    return outcomes
