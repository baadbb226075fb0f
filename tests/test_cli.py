"""CLI surface: JSON output, exit codes, ledger directory handling."""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import provledger
from provledger.cli import main
from support import FIXTURES


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def ledger_dir(tmp_path, runner):
    directory = tmp_path / "ledger"
    result = runner.invoke(
        main,
        [
            "init",
            "--policy",
            str(FIXTURES / "vaccine_policy.json"),
            "--config",
            str(FIXTURES / "sim_config.json"),
            "--out",
            str(directory),
        ],
    )
    assert result.exit_code == 0, result.output
    return directory


def out_json(result):
    return json.loads(result.output.strip().splitlines()[-1])


def test_init_writes_genesis(runner, ledger_dir):
    assert (ledger_dir / "blocks.jsonl").exists()
    assert (ledger_dir / "policy.json").exists()
    assert (ledger_dir / "config.json").exists()
    result = runner.invoke(main, ["verify", str(ledger_dir)])
    assert result.exit_code == 0
    assert out_json(result) == {"ok": True}


def test_init_refuses_existing_ledger(runner, ledger_dir):
    result = runner.invoke(
        main,
        [
            "init",
            "--policy",
            str(FIXTURES / "vaccine_policy.json"),
            "--config",
            str(FIXTURES / "sim_config.json"),
            "--out",
            str(ledger_dir),
        ],
    )
    assert result.exit_code == 1
    assert json.loads(result.stderr.strip())["error"] == "IoFailure"


def test_token_and_prov_flow(runner, ledger_dir):
    d = str(ledger_dir)
    result = runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    assert result.exit_code == 0, result.output
    receipt = out_json(result)
    head = json.loads((ledger_dir / "blocks.jsonl").read_text().splitlines()[-1])
    assert receipt == {
        "txHash": head["transactions"][0]["hash"],
        "blockHeight": 1,
        "blockHash": head["blockHash"],
        "result": "ok",
        "tokenId": 1,
    }

    result = runner.invoke(
        main,
        ["prov", "create", "--as", "alice", "--token", "1", "--context",
         '{"agent": "operator1", "time": "5am"}', "--dir", d],
    )
    assert result.exit_code == 0, result.output
    assert out_json(result)["provId"] == 1

    result = runner.invoke(
        main,
        ["prov", "create", "--as", "alice", "--token", "1", "--inputs", "1",
         "--context", '{"agent": "rfid1", "time": "5am"}', "--dir", d],
    )
    assert out_json(result)["provId"] == 2

    result = runner.invoke(main, ["prov", "get", "--id", "2", "--dir", d])
    record = out_json(result)
    assert record["inputProvenanceIds"] == [1]
    assert record["status"] == "valid"

    result = runner.invoke(main, ["query", "lineage", "--id", "2", "--dir", d])
    assert out_json(result) == {"lineage": [1, 2]}

    result = runner.invoke(main, ["query", "traces", "--token", "1", "--dir", d])
    assert out_json(result) == {"traces": [{"head": 2, "records": [1, 2]}]}

    result = runner.invoke(
        main, ["query", "graph", "--id", "2", "--depth", "1", "--dir", d]
    )
    graph = out_json(result)
    assert len(graph["nodes"]) == 2 and graph["edges"] == [[2, 1]]

    result = runner.invoke(
        main, ["query", "graph", "--id", "2", "--depth", "1", "--dot", "--dir", d]
    )
    assert result.output.startswith("digraph provenance {")


def test_error_exit_codes_and_stderr(runner, ledger_dir):
    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    result = runner.invoke(
        main,
        ["prov", "create", "--as", "bob", "--token", "1", "--context",
         '{"agent": "x", "time": "1am"}', "--dir", d],
    )
    assert result.exit_code == 1
    error = json.loads(result.stderr.strip())
    assert error["error"] == "NotAuthorized"
    # the failed attempt is still on-chain: the receipt precedes the error
    receipt = json.loads(result.output.strip().splitlines()[0])
    assert receipt["result"] == "NotAuthorized"

    result = runner.invoke(main, ["prov", "get", "--id", "99", "--dir", d])
    assert result.exit_code == 1
    assert json.loads(result.stderr.strip())["error"] == "RecordNotFound"


def test_token_transfer(runner, ledger_dir):
    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    result = runner.invoke(
        main, ["token", "transfer", "--as", "alice", "--id", "1", "--to", "bob", "--dir", d]
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main, ["token", "transfer", "--as", "alice", "--id", "1", "--to", "carol", "--dir", d]
    )
    assert result.exit_code == 1
    assert json.loads(result.stderr.strip())["error"] == "NotAuthorized"


def test_token_transfer_replays_once_and_rejects_missing_token(runner, ledger_dir, monkeypatch):
    from provledger import cli

    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    loads = []
    real_load = cli.load_ledger

    def counting(directory):
        loads.append(directory)
        return real_load(directory)

    monkeypatch.setattr(cli, "load_ledger", counting)
    result = runner.invoke(
        main, ["token", "transfer", "--as", "alice", "--id", "1", "--to", "bob", "--dir", d]
    )
    assert result.exit_code == 0, result.output
    assert len(loads) == 1
    log = (ledger_dir / "blocks.jsonl").read_bytes()
    result = runner.invoke(
        main, ["token", "transfer", "--as", "bob", "--id", "7", "--to", "carol", "--dir", d]
    )
    assert result.exit_code == 1
    assert json.loads(result.stderr.strip())["error"] == "TokenNotFound"
    assert (ledger_dir / "blocks.jsonl").read_bytes() == log


def test_mutating_command_waits_for_the_directory_lock(runner, ledger_dir):
    """A writer holds an exclusive flock on the ledger directory from load to
    persist, so a second one starts only from the first one's head."""
    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    src = str(Path(provledger.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    command = [sys.executable, "-m", "provledger.cli", "prov", "create", "--as", "alice",
               "--token", "1", "--context", '{"agent": "a", "time": "1am"}', "--dir", d]
    fd = os.open(d, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        writer = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            with pytest.raises(subprocess.TimeoutExpired):
                writer.wait(timeout=1.5)
        except BaseException:
            writer.kill()
            writer.wait()
            raise
    finally:
        os.close(fd)
    out, err = writer.communicate(timeout=60)
    assert writer.returncode == 0, err
    assert json.loads(out)["blockHeight"] == 2


def test_update_and_invalidate(runner, ledger_dir):
    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    runner.invoke(
        main,
        ["prov", "create", "--as", "alice", "--token", "1", "--context",
         '{"agent": "a", "time": "1am"}', "--dir", d],
    )
    result = runner.invoke(
        main,
        ["prov", "update", "--as", "alice", "--id", "1", "--context",
         '{"agent": "b", "time": "2am"}', "--dir", d],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["prov", "invalidate", "--as", "alice", "--id", "1", "--dir", d])
    assert result.exit_code == 0
    result = runner.invoke(main, ["prov", "get", "--id", "1", "--dir", d])
    assert out_json(result)["status"] == "invalidated"


def test_scenario_run_and_queries(runner, ledger_dir):
    d = str(ledger_dir)
    result = runner.invoke(
        main, ["scenario", "run", str(FIXTURES / "vaccine_cold_chain.json"), "--dir", d]
    )
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in result.output.strip().splitlines()]
    assert all(line["matched"] for line in lines)

    result = runner.invoke(main, ["query", "lineage", "--id", "3", "--dir", d])
    assert out_json(result) == {"lineage": [1, 2, 3]}
    result = runner.invoke(main, ["verify", str(d)])
    assert out_json(result) == {"ok": True}


def test_scenario_mismatch_exits_nonzero(runner, ledger_dir, tmp_path):
    script = tmp_path / "bad.json"
    script.write_text(
        json.dumps(
            {"steps": [{"as": "alice", "op": {"op": "requestToken"}, "expect": "TokenNotFound"}]}
        ),
        encoding="utf-8",
    )
    result = runner.invoke(main, ["scenario", "run", str(script), "--dir", str(ledger_dir)])
    assert result.exit_code == 1
    assert json.loads(result.stderr.strip())["error"] == "ScenarioMismatch"


def test_bench_outputs_report(runner, ledger_dir):
    result = runner.invoke(
        main,
        ["bench", "--tx", "150", "--window-ms", "60000", "--fee", "2", "--dir", str(ledger_dir)],
    )
    assert result.exit_code == 0, result.output
    report = out_json(result)
    assert report["confirmed"] == 40
    assert abs(report["tps"] - 40 / 60) < 1e-9


def test_verify_detects_corruption(runner, ledger_dir):
    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    path = ledger_dir / "blocks.jsonl"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    result = runner.invoke(main, ["verify", d])
    assert result.exit_code == 1
    verdict = out_json(result)
    assert verdict["ok"] is False
    assert "firstCorruptHeight" in verdict
    assert isinstance(verdict["reason"], str) and verdict["reason"]


# an object of each kind of JSON input with a repeated key, whose last value
# would otherwise win: an open ledger, or a stored context {"agent": "b"}
REPEATED_KEY = {
    "policy": (
        '{"schema": {"name": "s", "required": ["agent"]},'
        ' "assignment": {"type": "fee", "price": 5}, "assignment": {"type": "open"}}',
        "policy file is not valid UTF-8 JSON: duplicate key 'assignment'",
    ),
    "config": (
        '{"blockIntervalMs": 15000, "blockCapacity": 10, "blockCapacity": 1}',
        "config file is not valid UTF-8 JSON: duplicate key 'blockCapacity'",
    ),
    "scenario": (
        '{"steps": [{"as": "alice", "op": {"op": "requestToken", "op": "transfer"}}]}',
        "scenario is not valid UTF-8 JSON: duplicate key 'op'",
    ),
    "context": ('{"agent": "a", "agent": "b", "time": "1am"}', "bad context: duplicate key 'agent'"),
}


@pytest.mark.parametrize(
    "name, text",
    [
        ("policy.json", '{"schema": 5}'),
        ("config.json", "not json"),
        ("policy.json", b"\xff\xfe{}"),
        ("config.json", b"\xff\xfe{}"),
    ],
)
def test_verify_reports_unparseable_policy_or_config(runner, ledger_dir, name, text):
    (ledger_dir / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    result = runner.invoke(main, ["verify", str(ledger_dir)])
    assert result.exit_code == 1
    verdict = out_json(result)
    assert verdict["ok"] is False
    assert verdict["firstCorruptHeight"] == 0
    assert isinstance(verdict["reason"], str) and verdict["reason"]


def test_write_after_a_lost_final_newline_ends_the_line_first(runner, ledger_dir):
    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    log = ledger_dir / "blocks.jsonl"
    log.write_bytes(log.read_bytes().removesuffix(b"\n"))
    assert out_json(runner.invoke(main, ["verify", d])) == {"ok": True}
    result = runner.invoke(main, ["token", "request", "--as", "bob", "--dir", d])
    assert result.exit_code == 0, result.output
    assert out_json(result)["blockHeight"] == 2
    assert out_json(runner.invoke(main, ["verify", d])) == {"ok": True}
    data = log.read_bytes()
    assert data.endswith(b"\n")
    lines = data.splitlines()
    assert [json.loads(line)["height"] for line in lines] == [0, 1, 2]


def test_dir_from_environment(runner, ledger_dir):
    result = runner.invoke(
        main,
        ["token", "request", "--as", "alice"],
        env={"PROVLEDGER_DIR": str(ledger_dir)},
    )
    assert result.exit_code == 0, result.output
    assert out_json(result)["tokenId"] == 1


def assert_config_invalid(result):
    """Exit 1 through the JSON error path, not an uncaught exception."""
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert json.loads(result.stderr.strip())["error"] == "ConfigInvalid"


def test_init_rejects_non_utf8_policy(runner, tmp_path):
    policy = tmp_path / "policy.json"
    policy.write_bytes(b"\xff\xfe{}")
    result = runner.invoke(
        main,
        [
            "init",
            "--policy",
            str(policy),
            "--config",
            str(FIXTURES / "sim_config.json"),
            "--out",
            str(tmp_path / "ledger"),
        ],
    )
    assert_config_invalid(result)
    assert not (tmp_path / "ledger").exists()


@pytest.mark.parametrize(
    "file, field, message",
    [
        (
            "config",
            {"blockIntervalMs": 2**64},
            "block interval must be an integer from 1 to 2**64 - 1 ms",
        ),
        (
            "policy",
            {"assignment": {"type": "fee", "price": 2**64}},
            "price must be an unsigned 64-bit integer",
        ),
        (
            "policy",
            {"assignment": {"type": "fee", "price": 1, "initialBalance": 2**64}},
            "initial balance must be an unsigned 64-bit integer",
        ),
    ],
    ids=["blockIntervalMs", "price", "initialBalance"],
)
def test_init_rejects_a_config_value_over_64_bits(runner, tmp_path, file, field, message):
    paths = {"policy": FIXTURES / "vaccine_policy.json", "config": FIXTURES / "sim_config.json"}
    data = json.loads(paths[file].read_text(encoding="utf-8"))
    data.update(field)
    paths[file] = tmp_path / f"{file}.json"
    paths[file].write_text(json.dumps(data), encoding="utf-8")
    args = ["init", "--policy", str(paths["policy"]), "--config", str(paths["config"])]
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "ledger")])
    assert_config_invalid(result)
    assert json.loads(result.stderr)["message"] == message
    assert not (tmp_path / "ledger").exists()


def test_a_fee_over_64_bits_is_a_malformed_payload(runner, ledger_dir):
    d = str(ledger_dir)
    log = (ledger_dir / "blocks.jsonl").read_bytes()
    result = runner.invoke(
        main, ["token", "request", "--as", "alice", "--fee", str(2**70), "--dir", d]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    error = json.loads(result.stderr.strip())
    assert error == {
        "error": "MalformedPayload", "message": "fee must be an unsigned 64-bit integer"
    }
    assert (ledger_dir / "blocks.jsonl").read_bytes() == log


def test_init_rejects_a_lone_surrogate_in_the_policy(runner, tmp_path):
    policy = tmp_path / "policy.json"
    policy.write_text('{"schema": {"name": "\\ud800", "required": ["agent"]}}')
    result = runner.invoke(
        main,
        [
            "init",
            "--policy",
            str(policy),
            "--config",
            str(FIXTURES / "sim_config.json"),
            "--out",
            str(tmp_path / "ledger"),
        ],
    )
    assert_config_invalid(result)
    assert not (tmp_path / "ledger").exists()


def test_create_rejects_a_lone_surrogate_in_the_context(runner, ledger_dir):
    """An argument byte that is not UTF-8, such as 0xff, reaches the command
    as a lone surrogate, which no hashed text can hold: the payload is refused
    and nothing is logged."""
    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    log = (ledger_dir / "blocks.jsonl").read_bytes()
    context = '{"agent": "\udcff", "time": "1"}'
    result = runner.invoke(
        main, ["prov", "create", "--as", "alice", "--token", "1", "--context", context, "--dir", d]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert json.loads(result.stderr.strip())["error"] == "MalformedPayload"
    assert (ledger_dir / "blocks.jsonl").read_bytes() == log


def test_scenario_run_rejects_non_utf8_script(runner, ledger_dir, tmp_path):
    script = tmp_path / "script.json"
    script.write_bytes(b"\xff\xfe{}")
    result = runner.invoke(main, ["scenario", "run", str(script), "--dir", str(ledger_dir)])
    assert_config_invalid(result)


# far beyond the recursion limit of any interpreter, so parsing always fails
TOO_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("reader", ["policy", "config", "scenario"])
def test_an_input_file_nested_too_deep_is_config_invalid(runner, tmp_path, reader):
    deep = tmp_path / "deep.json"
    deep.write_text(TOO_DEEP)
    policy, config = str(FIXTURES / "vaccine_policy.json"), str(FIXTURES / "sim_config.json")
    out = tmp_path / "ledger"
    if reader == "scenario":
        runner.invoke(main, ["init", "--policy", policy, "--config", config, "--out", str(out)])
        log = (out / "blocks.jsonl").read_bytes()
        result = runner.invoke(main, ["scenario", "run", str(deep), "--dir", str(out)])
        assert (out / "blocks.jsonl").read_bytes() == log
    else:
        files = {"policy": policy, "config": config, reader: str(deep)}
        result = runner.invoke(
            main,
            ["init", "--policy", files["policy"], "--config", files["config"], "--out", str(out)],
        )
        assert not out.exists()
    assert_config_invalid(result)


@pytest.mark.parametrize("name", ["policy.json", "config.json"])
def test_a_policy_or_config_with_a_repeated_key_fails_load_and_verify(runner, ledger_dir, name):
    """A directory's own files are written canonical, so only a hand edit
    repeats a key: here the first one, with the value it has, which used to
    load as if the file were unedited."""
    path = ledger_dir / name
    text = path.read_text()
    key, value = next(iter(json.loads(text).items()))
    path.write_text("{" + json.dumps(key) + ":" + json.dumps(value) + "," + text[1:])
    reason = f"{name.split('.')[0]} file is not valid UTF-8 JSON: duplicate key {key!r}"
    result = runner.invoke(main, ["query", "traces", "--token", "1", "--dir", str(ledger_dir)])
    assert_config_invalid(result)
    assert json.loads(result.stderr)["message"] == reason
    result = runner.invoke(main, ["verify", str(ledger_dir)])
    assert result.exit_code == 1
    assert out_json(result) == {"ok": False, "firstCorruptHeight": 0, "reason": reason}


@pytest.mark.parametrize("reader", sorted(REPEATED_KEY))
def test_a_repeated_key_is_config_invalid(runner, tmp_path, reader):
    text, message = REPEATED_KEY[reader]
    policy, config = str(FIXTURES / "vaccine_policy.json"), str(FIXTURES / "sim_config.json")
    out = tmp_path / "ledger"
    if reader in ("policy", "config"):
        path = tmp_path / f"{reader}.json"
        path.write_text(text)
        files = {"policy": policy, "config": config, reader: str(path)}
        result = runner.invoke(
            main,
            ["init", "--policy", files["policy"], "--config", files["config"], "--out", str(out)],
        )
        assert not out.exists()
    else:
        runner.invoke(main, ["init", "--policy", policy, "--config", config, "--out", str(out)])
        runner.invoke(main, ["token", "request", "--as", "alice", "--dir", str(out)])
        log = (out / "blocks.jsonl").read_bytes()
        if reader == "scenario":
            script = tmp_path / "script.json"
            script.write_text(text)
            result = runner.invoke(main, ["scenario", "run", str(script), "--dir", str(out)])
        else:
            result = runner.invoke(
                main,
                ["prov", "create", "--as", "alice", "--token", "1", "--context", text,
                 "--dir", str(out)],
            )
        assert (out / "blocks.jsonl").read_bytes() == log
    assert_config_invalid(result)
    assert json.loads(result.stderr)["message"] == message


@pytest.mark.parametrize("name", ["policy.json", "config.json"])
def test_verify_reports_a_policy_or_config_nested_too_deep(runner, ledger_dir, name):
    (ledger_dir / name).write_text(TOO_DEEP)
    result = runner.invoke(main, ["verify", str(ledger_dir)])
    assert result.exit_code == 1
    verdict = out_json(result)
    assert (verdict["ok"], verdict["firstCorruptHeight"]) == (False, 0)
    assert verdict["reason"].startswith(f"{name.split('.')[0]} file is not valid UTF-8 JSON")


@pytest.mark.parametrize("command", ["create", "update"])
def test_a_context_nested_too_deep_is_config_invalid(runner, ledger_dir, command):
    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    runner.invoke(
        main,
        ["prov", "create", "--as", "alice", "--token", "1", "--context",
         '{"agent": "a", "time": "1am"}', "--dir", d],
    )
    log = (ledger_dir / "blocks.jsonl").read_bytes()
    target = ["--token", "1"] if command == "create" else ["--id", "1"]
    result = runner.invoke(
        main, ["prov", command, "--as", "alice", *target, "--context", "[" * 3000, "--dir", d]
    )
    assert_config_invalid(result)
    assert result.stdout == ""
    assert (ledger_dir / "blocks.jsonl").read_bytes() == log


def test_graph_rejects_negative_depth(runner, ledger_dir):
    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    runner.invoke(
        main,
        ["prov", "create", "--as", "alice", "--token", "1", "--context",
         '{"agent": "a", "time": "1am"}', "--dir", d],
    )
    result = runner.invoke(main, ["query", "graph", "--id", "1", "--depth", "-1", "--dir", d])
    assert_config_invalid(result)
    assert "depth" in json.loads(result.stderr.strip())["message"]


def create_with_inputs(runner, directory, inputs):
    return runner.invoke(
        main,
        ["prov", "create", "--as", "alice", "--token", "1", "--inputs", inputs,
         "--context", '{"agent": "a", "time": "1am"}', "--dir", directory],
    )


@pytest.mark.parametrize(
    "inputs", ["1_0", "+1", "-1", "١", "1,,2", "1,", ",1", "1 2", "1;2", "0x1", " ", "1.0"]
)
def test_create_rejects_inputs_that_are_not_decimal_ids(runner, ledger_dir, inputs):
    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    result = create_with_inputs(runner, d, inputs)
    assert_config_invalid(result)
    assert result.stdout == ""  # rejected before anything was submitted


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-to-text digit limit")
def test_create_rejects_an_input_id_over_the_digit_limit(runner, ledger_dir):
    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    log = (ledger_dir / "blocks.jsonl").read_bytes()
    result = create_with_inputs(runner, d, "9" * (sys.get_int_max_str_digits() + 1))
    assert_config_invalid(result)
    assert result.stdout == ""
    assert (ledger_dir / "blocks.jsonl").read_bytes() == log


@pytest.mark.parametrize("inputs, expected", [("", []), ("1", [1]), (" 1 , 2 ", [1, 2])])
def test_create_accepts_decimal_ids(runner, ledger_dir, inputs, expected):
    d = str(ledger_dir)
    runner.invoke(main, ["token", "request", "--as", "alice", "--dir", d])
    for agent in ("first", "second"):
        runner.invoke(
            main,
            ["prov", "create", "--as", "alice", "--token", "1", "--context",
             json.dumps({"agent": agent, "time": "1am"}), "--dir", d],
        )
    result = create_with_inputs(runner, d, inputs)
    assert result.exit_code == 0, result.output
    record = out_json(runner.invoke(main, ["prov", "get", "--id", "3", "--dir", d]))
    assert record["inputProvenanceIds"] == expected


# SHA-256 of blocks.jsonl after the cold-chain scenario on a fresh init. A
# change to any consensus rule (selection, the digest, the wire format)
# changes it; such a change must be stated in README and CHANGES.
COLD_CHAIN_LOG_SHA256 = "557a62b67b82be451a319a7c394dee7de423a8beefd5fef4ada14a3c6e834bf3"


def test_cold_chain_log_is_pinned(runner, ledger_dir):
    d = str(ledger_dir)
    result = runner.invoke(
        main, ["scenario", "run", str(FIXTURES / "vaccine_cold_chain.json"), "--dir", d]
    )
    assert result.exit_code == 0, result.output
    log = (ledger_dir / "blocks.jsonl").read_bytes()
    assert hashlib.sha256(log).hexdigest() == COLD_CHAIN_LOG_SHA256
    assert len(log.splitlines()) == 19  # genesis plus one block per step
    assert out_json(runner.invoke(main, ["verify", d])) == {"ok": True}
