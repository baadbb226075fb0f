"""The parts of the program the benchmark in ``perfbench/`` reads.

The benchmark wraps class and module attributes by name and fingerprints a
ledger by its last block, so a rename here would break it without failing
any other test. This module only imports ``perfbench/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import engine  # noqa: E402
import tracing  # noqa: E402
from provledger import load_ledger  # noqa: E402
from support import ALICE, quick_ledger  # noqa: E402


def test_every_traced_target_is_an_own_attribute():
    """``Tracer.installed`` reads each target from its owner's ``__dict__``."""
    targets = tracing._targets()
    assert targets
    missing = [(owner, attr) for owner, attr, _ in targets if attr not in vars(owner)]
    assert missing == []


def test_fingerprint_agrees_with_a_reload(tmp_path):
    directory = tmp_path / "ledger"
    ledger = quick_ledger()
    ledger.submit_payload(ALICE, {"op": "requestToken", "payment": 0})
    ledger.produce_block()
    ledger.persist(directory)
    loaded = load_ledger(directory)
    assert engine.fingerprint(loaded) == engine.fingerprint(ledger)

    create = {"op": "createProvenance", "tokenId": 1, "inputs": [], "context": {"agent": "a"}}
    tx = ledger.build_transaction(ALICE, create)
    for each in (ledger, loaded):
        each.submit(tx)
        each.produce_block()
    assert engine.fingerprint(loaded) == engine.fingerprint(ledger)
    ledger.persist(directory)
    assert engine.fingerprint(load_ledger(directory)) == engine.fingerprint(ledger)
