"""Command-line harness: every subcommand, exit codes, artifacts, and
config-file handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccxtrust
from ccxtrust import cli, protocol


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# init / attest / independent
# ---------------------------------------------------------------------------

def test_init_writes_trace_and_summary(tmp_path, capsys):
    out = tmp_path / "init"
    assert run(["init", "--seed", "11", "--nodes", "2",
                "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "initialized 2 node(s)" in printed
    trace = protocol.ProtocolTrace.read(out / "trace.log")
    assert len(trace.events) > 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["nodes"] == 2
    assert summary["trace_digest"] == trace.digest().hex()
    assert set(summary["theorems"]) == {
        "cert-provenance", "token-provenance", "attest-order"}
    assert all(" pass " in line for line in summary["theorems"].values())


def test_attest_writes_token_and_passes_checks(tmp_path, capsys):
    out = tmp_path / "attest"
    assert run(["attest", "--seed", "11", "--direction", "tee-tpm",
                "--out", str(out)]) == 0
    token_text = (out / "token.txt").read_text().strip()
    assert token_text.count(".") >= 2  # one compact token per line
    summary = json.loads((out / "summary.json").read_text())
    assert summary["direction"] == "tee-tpm"
    assert "attested" in capsys.readouterr().out


def test_independent_issues_two_tokens(tmp_path, capsys):
    out = tmp_path / "indep"
    assert run(["independent", "--seed", "11", "--out", str(out)]) == 0
    tokens = [line for line in (out / "token.txt").read_text().splitlines()
              if line.strip()]
    assert len(tokens) == 2
    assert "2 tokens" in capsys.readouterr().out


def test_same_seed_same_digest(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(["init", "--seed", "21", "--out", str(out_a)])
    run(["init", "--seed", "21", "--out", str(out_b)])
    digest_a = json.loads((out_a / "summary.json").read_text())["trace_digest"]
    digest_b = json.loads((out_b / "summary.json").read_text())["trace_digest"]
    assert digest_a == digest_b


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["replay", "stale-token", "seed-rollback",
                                  "image-forge"])
def test_live_attacks_defended(tmp_path, name):
    assert run(["attack", "--name", name, "--seed", "31",
                "--out", str(tmp_path / name)]) == 0


@pytest.mark.parametrize("name", ["spoof-id", "token-pairing"])
def test_two_node_attacks_defended(tmp_path, name):
    assert run(["attack", "--name", name, "--seed", "31", "--nodes", "2",
                "--out", str(tmp_path / name)]) == 0


@pytest.mark.parametrize("name,theorem", [
    ("forged-cert", "cert-provenance"),
    ("forged-token", "token-provenance"),
    ("reordered-sign", "attest-order"),
    ("unvouched-identity", "cert-provenance"),
])
def test_fault_traces_trip_their_theorem(tmp_path, capsys, name, theorem):
    out = tmp_path / name
    assert run(["attack", "--name", name, "--seed", "31",
                "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"violated {theorem}" in printed
    assert (out / "trace.log").exists()


def test_unknown_attack_name_rejected(tmp_path):
    with pytest.raises(SystemExit):
        run(["attack", "--name", "nonsense", "--out", str(tmp_path)])


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_writes_json(tmp_path, capsys):
    out = tmp_path / "bench"
    assert run(["bench", "--seed", "41", "--nodes", "4",
                "--concurrency", "2", "--out", str(out)]) == 0
    bench = json.loads((out / "bench.json").read_text())
    assert bench["successes"] == 4
    assert bench["unique_token_serials"] == 4
    assert bench["theorem_violations"] == 0
    assert "enroll" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# check-trace
# ---------------------------------------------------------------------------

def test_check_trace_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "run"
    run(["attest", "--seed", "51", "--out", str(out)])
    assert run(["check-trace", str(out / "trace.log")]) == 0
    assert "cert-provenance pass" in capsys.readouterr().out

    fault = tmp_path / "fault"
    run(["attack", "--name", "forged-token", "--seed", "51",
         "--out", str(fault)])
    capsys.readouterr()
    assert run(["check-trace", str(fault / "trace.log")]) == 1
    printed = capsys.readouterr().out
    assert "token-provenance FAIL" in printed
    # the forged token's decrypt, the fault trace's last event, is named
    decrypt = protocol.ProtocolTrace.read(fault / "trace.log").events[-1]
    assert f"\n    {decrypt.line()}\n" in printed


def test_check_trace_undecodable_file_exits_1(tmp_path, capsys):
    path = tmp_path / "trace.log"
    path.write_text("x verifier send - - - - -\n", encoding="ascii")
    assert run(["check-trace", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "trace index" in captured.err


def test_module_entry_point_runs_once_without_warnings():
    # the package must not import ccxtrust.cli itself, or `python -m`
    # warns and executes the module a second time as __main__
    src = str(Path(ccxtrust.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ccxtrust.cli",
         "--help"], capture_output=True, text=True, env=env, check=False)
    assert result.returncode == 0, result.stderr
    assert "check-trace" in result.stdout


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def test_config_file_fills_defaults_flags_win(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("# cluster defaults\nseed = 99\nnodes = 3\n")
    out = tmp_path / "cfg"
    assert run(["init", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 99
    assert summary["nodes"] == 3

    out2 = tmp_path / "cfg2"
    assert run(["init", "--config", str(config), "--nodes", "1",
                "--out", str(out2)]) == 0
    summary2 = json.loads((out2 / "summary.json").read_text())
    assert summary2["seed"] == 99
    assert summary2["nodes"] == 1  # explicit flag beats the file


def test_config_non_integer_value_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("nodes = abc\n")
    with pytest.raises(SystemExit) as info:
        run(["init", "--config", str(config), "--out", str(tmp_path / "x")])
    assert info.value.code == 2
    assert "nodes" in capsys.readouterr().err
