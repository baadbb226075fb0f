"""Command-line front end. All output is JSON on stdout; failures print
{"error", "message"} on stderr and exit nonzero.

The ledger directory is given with --dir or the PROVLEDGER_DIR environment
variable. Mutating commands submit one transaction, mine one block
(auto-mine), persist, and print {txHash, blockHeight, blockHash, result, ...}.
They hold an exclusive advisory lock on the ledger directory from loading
the ledger until it is persisted, so concurrent writers take turns.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import json
import os
import re
import sys
from pathlib import Path

import click

from . import query as queries
from .bench import run_benchmark
from .canonical import canonical_json
from .errors import ConfigInvalidError, IoFailureError, LedgerError
from .ledger import (
    CONFIG_FILE,
    SimConfig,
    init_ledger_dir,
    load_ledger,
    read_json_file,
    resolve_payload,
    unique_keys,
    verify_chain,
)
from .policy import resolve_client
from .scenario import load_scenario, run_scenario

_dir_option = click.option(
    "--dir",
    "directory",
    envvar="PROVLEDGER_DIR",
    required=True,
    type=click.Path(),
    help="Ledger directory (defaults to $PROVLEDGER_DIR).",
)

_fee_option = click.option("--fee", default=1, show_default=True, help="Transaction fee.")

# ASCII decimal ids ([0-9], not \d, which also matches other scripts' digits)
_ID_LIST = re.compile(r" *[0-9]+ *(?:, *[0-9]+ *)*")


def _emit(data) -> None:
    click.echo(canonical_json(data))


def _fail(code: str, message: str) -> None:
    click.echo(canonical_json({"error": code, "message": message}), err=True)
    sys.exit(1)


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except LedgerError as exc:
            _fail(exc.code, str(exc))

    return wrapper


def _parse_inputs(text: str) -> list[int]:
    """Comma-separated ASCII decimal ids, each with optional surrounding
    spaces; the empty string is no inputs."""
    if not text:
        return []
    if not _ID_LIST.fullmatch(text):
        raise ConfigInvalidError(f"bad inputs {text!r}: expected comma-separated decimal ids")
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:  # an id over the interpreter's int-to-text digit limit
        raise ConfigInvalidError(f"bad inputs: {exc}") from exc


def _parse_context(text: str) -> object:
    """The JSON value of a ``--context`` argument."""
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # nesting too deep raises RecursionError
        raise ConfigInvalidError(f"bad context: {exc}") from exc


@contextlib.contextmanager
def _writer_lock(directory: str):
    """Hold an exclusive ``flock`` on the ledger directory itself; without
    it two writers that load the same head append two blocks at one height."""
    try:
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except OSError as exc:
        raise IoFailureError(f"cannot open ledger directory: {exc}") from exc
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def _mutate(directory: str, alias: str, payload: dict, fee: int) -> None:
    """Resolve, submit, auto-mine one block, persist, report the receipt."""
    with _writer_lock(directory):
        ledger = load_ledger(directory)
        sender = resolve_client(alias, "client reference")
        tx = ledger.submit_payload(sender, resolve_payload(ledger.machine, payload), fee=fee)
        block, outcomes = ledger.produce_block()
        ledger.persist(directory)
    executed = next(o for o in outcomes if o.tx.hash == tx.hash)
    receipt = {
        "txHash": tx.hash,
        "blockHeight": block.height,
        "blockHash": block.block_hash,
        "result": executed.status,
    }
    if executed.value:
        receipt.update(executed.value)
    _emit(receipt)
    if not executed.ok:
        _fail(executed.status, executed.message or executed.status)


@click.group()
def main():
    """Blockchain-style data provenance ledger for IoT data points."""


@main.command()
@click.option("--policy", "policy_path", required=True, type=click.Path(), help="Policy JSON file.")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Sim config JSON file.")
@click.option("--out", "directory", required=True, type=click.Path(), help="Target ledger directory.")
@_handle_errors
def init(policy_path: str, config_path: str, directory: str):
    """Create a genesis ledger from a policy and a simulation config."""
    policy_data = read_json_file(policy_path, "policy file")
    config_data = read_json_file(config_path, "config file")
    ledger = init_ledger_dir(policy_data, config_data, directory)
    _emit({"ok": True, "dir": str(directory), "stateDigest": ledger.head.state_digest})


@main.group()
def token():
    """Token ownership operations."""


@token.command("request")
@click.option("--as", "alias", required=True, help="Requesting client (alias or 0x address).")
@click.option("--pay", default=0, show_default=True, help="Payment offered for the token.")
@_fee_option
@_dir_option
@_handle_errors
def token_request(alias: str, pay: int, fee: int, directory: str):
    """Request a fresh token under the active assignment strategy."""
    _mutate(directory, alias, {"op": "requestToken", "payment": pay}, fee)


@token.command("transfer")
@click.option("--as", "alias", required=True, help="Caller (owner or approved).")
@click.option("--id", "token_id", required=True, type=int, help="Token to transfer.")
@click.option("--to", "to_client", required=True, help="New owner (alias or 0x address).")
@_fee_option
@_dir_option
@_handle_errors
def token_transfer(alias: str, token_id: int, to_client: str, fee: int, directory: str):
    """Transfer token ownership from its current owner."""
    _mutate(directory, alias, {"op": "transfer", "tokenId": token_id, "to": to_client}, fee)


@main.group()
def prov():
    """Provenance record operations."""


@prov.command("create")
@click.option("--as", "alias", required=True)
@click.option("--token", "token_id", required=True, type=int)
@click.option("--inputs", default="", help="Comma-separated input record ids.")
@click.option("--context", "context_json", required=True, help="Context as a JSON object.")
@_fee_option
@_dir_option
@_handle_errors
def prov_create(alias: str, token_id: int, inputs: str, context_json: str, fee: int, directory: str):
    """Create a provenance record for a token."""
    payload = {
        "op": "createProvenance",
        "tokenId": token_id,
        "inputs": _parse_inputs(inputs),
        "context": _parse_context(context_json),
    }
    _mutate(directory, alias, payload, fee)


@prov.command("get")
@click.option("--id", "prov_id", required=True, type=int)
@_dir_option
@_handle_errors
def prov_get(prov_id: int, directory: str):
    """Print a stored record."""
    ledger = load_ledger(directory)
    record = ledger.machine.provenance.records.get_record(prov_id)
    _emit(record.as_dict())


@prov.command("update")
@click.option("--as", "alias", required=True)
@click.option("--id", "prov_id", required=True, type=int)
@click.option("--context", "context_json", required=True, help="Replacement context JSON.")
@_fee_option
@_dir_option
@_handle_errors
def prov_update(alias: str, prov_id: int, context_json: str, fee: int, directory: str):
    """Replace a record's context (if the policy exposes update)."""
    context = _parse_context(context_json)
    _mutate(directory, alias, {"op": "updateContext", "provId": prov_id, "context": context}, fee)


@prov.command("invalidate")
@click.option("--as", "alias", required=True)
@click.option("--id", "prov_id", required=True, type=int)
@_fee_option
@_dir_option
@_handle_errors
def prov_invalidate(alias: str, prov_id: int, fee: int, directory: str):
    """Invalidate a record (if the policy exposes invalidate)."""
    _mutate(directory, alias, {"op": "invalidate", "provId": prov_id}, fee)


@main.group("query")
def query_group():
    """Lineage and derivation queries."""


@query_group.command("lineage")
@click.option("--id", "prov_id", required=True, type=int)
@_dir_option
@_handle_errors
def query_lineage(prov_id: int, directory: str):
    """Linear same-token history of a record, oldest first."""
    ledger = load_ledger(directory)
    _emit({"lineage": queries.lineage(ledger.machine.provenance, prov_id)})


@query_group.command("graph")
@click.option("--id", "prov_id", required=True, type=int)
@click.option("--depth", required=True, type=int, help="Maximum input-edge hops.")
@click.option("--dot", "as_dot", is_flag=True, help="Emit Graphviz DOT instead of JSON.")
@_dir_option
@_handle_errors
def query_graph(prov_id: int, depth: int, as_dot: bool, directory: str):
    """Derivation graph of a record up to a depth bound."""
    if depth < 0:
        raise ConfigInvalidError(f"--depth must be non-negative, got {depth}")
    ledger = load_ledger(directory)
    graph = queries.derivation_graph(ledger.machine.provenance, prov_id, depth)
    if as_dot:
        click.echo(graph.to_dot())
    else:
        _emit(graph.as_dict())


@query_group.command("traces")
@click.option("--token", "token_id", required=True, type=int)
@_dir_option
@_handle_errors
def query_traces(token_id: int, directory: str):
    """Parallel provenance chains of a token."""
    ledger = load_ledger(directory)
    found = queries.traces(ledger.machine.provenance, token_id)
    _emit({"traces": [trace.as_dict() for trace in found]})


@main.group()
def scenario():
    """Scenario script execution."""


@scenario.command("run")
@click.argument("script", type=click.Path())
@_dir_option
@_handle_errors
def scenario_run(script: str, directory: str):
    """Replay a scenario script; exits nonzero on the first mismatch."""
    with _writer_lock(directory):
        ledger = load_ledger(directory)
        steps = load_scenario(script)
        outcomes = run_scenario(ledger, steps)
        ledger.persist(directory)
    for outcome in outcomes:
        _emit(outcome.as_dict())
    if outcomes and not outcomes[-1].matched:
        last = outcomes[-1]
        _fail(
            "ScenarioMismatch",
            f"step {last.index} expected {last.expect}, got {last.status}",
        )


@main.command()
@click.option("--tx", "tx_count", required=True, type=int, help="Transactions to submit.")
@click.option("--window-ms", required=True, type=int, help="Submission window in simulated ms.")
@click.option("--fee", required=True, type=int, help="Fee attached to every transaction.")
@_dir_option
@_handle_errors
def bench(tx_count: int, window_ms: int, fee: int, directory: str):
    """Run the throughput benchmark using the ledger's sim config."""
    config = SimConfig.from_dict(read_json_file(Path(directory) / CONFIG_FILE, "config file"))
    report = run_benchmark(config, tx_count=tx_count, window_ms=window_ms, fee=fee)
    _emit(report.as_dict())


@main.command()
@click.argument("directory", type=click.Path())
@_handle_errors
def verify(directory: str):
    """Verify hash chain, parent links, and replayed state digests."""
    result = verify_chain(directory)
    _emit(result.as_dict())
    if not result.ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
