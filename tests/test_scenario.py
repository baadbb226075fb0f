"""Scenario scripts: the cold-chain fixture and replay determinism."""

from __future__ import annotations

import json
import re

import pytest

from provledger import (
    Ledger,
    ScenarioStep,
    SimConfig,
    lineage,
    load_scenario,
    policy_from_dict,
    run_scenario,
    traces,
)
from provledger.errors import ConfigInvalidError
from provledger.ledger import BLOCKS_FILE
from support import FIXTURES, quick_ledger


def fixture_ledger() -> Ledger:
    policy = policy_from_dict(json.loads((FIXTURES / "vaccine_policy.json").read_text()))
    config = SimConfig.from_dict(json.loads((FIXTURES / "sim_config.json").read_text()))
    return Ledger(policy, config)


def test_cold_chain_fixture_plays_through():
    ledger = fixture_ledger()
    steps = load_scenario(FIXTURES / "vaccine_cold_chain.json")
    outcomes = run_scenario(ledger, steps)
    assert len(outcomes) == len(steps)
    assert all(outcome.matched for outcome in outcomes)
    # the narrative: vaccine lineage 1-2-3, derived average 7, conversion 8,
    # and two parallel aircraft traces on token 7
    layer = ledger.machine.provenance
    assert lineage(layer, 3) == [1, 2, 3]
    assert [list(trace.records) for trace in traces(layer, 7)] == [[9], [10]]
    assert layer.records.get_record(7).input_ids == (4, 5, 6)
    assert layer.records.get_record(8).input_ids == (7,)


def test_mismatch_stops_early(tmp_path):
    ledger = fixture_ledger()
    steps = load_scenario(FIXTURES / "vaccine_cold_chain.json")
    # make the second step expect the wrong outcome
    broken = [steps[0], steps[1].__class__(**{**steps[1].__dict__, "expect": "TokenNotFound"})]
    outcomes = run_scenario(ledger, broken + steps[2:])
    assert len(outcomes) == 2
    assert outcomes[0].matched and not outcomes[1].matched


def test_expected_failures_keep_running():
    ledger = fixture_ledger()
    steps = load_scenario(FIXTURES / "vaccine_cold_chain.json")
    final = run_scenario(ledger, steps)[-1]
    assert final.status == "NotAuthorized"
    assert final.matched


def test_same_scenario_same_seed_identical_logs(tmp_path):
    steps = load_scenario(FIXTURES / "vaccine_cold_chain.json")

    def build(target):
        ledger = fixture_ledger()
        run_scenario(ledger, steps)
        ledger.persist(target)
        return (target / BLOCKS_FILE).read_bytes()

    assert build(tmp_path / "one") == build(tmp_path / "two")


def test_scenario_file_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]", encoding="utf-8")
    with pytest.raises(ConfigInvalidError):
        load_scenario(bad)
    bad.write_text(json.dumps({"steps": [{"op": {"op": "requestToken"}}]}), encoding="utf-8")
    with pytest.raises(ConfigInvalidError):
        load_scenario(bad)
    bad.write_text(json.dumps({"steps": [{"as": "x", "op": {"op": "requestToken"},
                                          "mystery": 1}]}), encoding="utf-8")
    with pytest.raises(ConfigInvalidError):
        load_scenario(bad)
    request = {"op": "requestToken"}
    for step, message in (
        ("requestToken", "step 0 must be an object"),
        ({"as": "x"}, "step 0 requires an op payload"),
        ({"as": "x", "op": request, "expect": ""}, "step 0 has a bad expectation"),
        ({"as": "x", "op": request, "fee": -1}, "step 0 has a bad fee"),
    ):
        bad.write_text(json.dumps({"steps": [step]}), encoding="utf-8")
        with pytest.raises(ConfigInvalidError, match=f"^{re.escape(message)}$"):
            load_scenario(bad)


def test_transfer_step_fills_owner(tmp_path):
    ledger = fixture_ledger()
    script = {
        "steps": [
            {"as": "alice", "op": {"op": "requestToken"}, "expect": "ok"},
            {"as": "alice", "op": {"op": "transfer", "tokenId": 1, "to": "bob"}, "expect": "ok"},
            {"as": "alice", "op": {"op": "transfer", "tokenId": 1, "to": "carol"},
             "expect": "NotAuthorized"},
        ]
    }
    path = tmp_path / "transfer.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    outcomes = run_scenario(ledger, load_scenario(path))
    assert [o.status for o in outcomes] == ["ok", "ok", "NotAuthorized"]
    from provledger import ClientId

    assert ledger.machine.tokens.owner_of(1) == ClientId.from_alias("bob")


def test_transfer_step_of_missing_token(tmp_path):
    """Defaulting 'from' needs the token, so the step is rejected before
    submission, like the CLI command, and the script keeps running."""
    ledger = fixture_ledger()
    script = {
        "steps": [
            {"as": "alice", "op": {"op": "transfer", "tokenId": 4, "to": "bob"},
             "expect": "TokenNotFound"},
            {"as": "alice", "op": {"op": "requestToken"}, "expect": "ok"},
        ]
    }
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    outcomes = run_scenario(ledger, load_scenario(path))
    assert [o.status for o in outcomes] == ["TokenNotFound", "ok"]
    assert outcomes[0].block_height == 0 and outcomes[0].tx_hash == ""
    assert ledger.height == 1


def test_step_client_may_be_hex_address(tmp_path):
    """'as' resolves like --as and payload client fields: a 0x-hex address
    names that client, not the alias spelled by the same string."""
    from provledger import ClientId

    alice = ClientId.from_alias("alice")
    ledger = fixture_ledger()
    script = {"steps": [{"as": alice.hex, "op": {"op": "requestToken"}, "expect": "ok"}]}
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    outcomes = run_scenario(ledger, load_scenario(path))
    assert [o.status for o in outcomes] == ["ok"]
    assert ledger.machine.tokens.owner_of(1) == alice


def test_step_waits_out_pending_higher_fees():
    """A pending transaction with a higher fee fills the first block after
    the step, so the step is sealed in the second and reports that block."""
    from provledger import ClientId

    ledger = quick_ledger(capacity=1)
    pending = ledger.submit_payload(
        ClientId.from_alias("bob"), {"op": "requestToken", "payment": 0}, fee=50
    )
    step = ScenarioStep(alias="alice", payload={"op": "requestToken"}, expect="ok", fee=1)
    outcomes = run_scenario(ledger, [step])
    assert [(o.status, o.block_height) for o in outcomes] == [("ok", 2)]
    assert outcomes[0].value == {"tokenId": 2}
    assert ledger.blocks[1].transactions[0].hash == pending.hash
    assert ledger.height == 2 and ledger.pending_count() == 0
