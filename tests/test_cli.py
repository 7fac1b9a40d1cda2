"""Command-line harness: every subcommand, exit codes, artifacts, and
option files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccxtrust
from ccxtrust import cli, harness, verifier
from ccxtrust.errors import DecodeError
from ccxtrust.trace import ProtocolTrace, check_theorems


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
    trace = ProtocolTrace.read(out / "trace.log")
    assert len(trace.events) > 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["nodes"] == 2
    assert summary["trace_digest"] == trace.digest().hex()
    assert set(summary["theorems"]) == {
        "cert-provenance", "token-provenance", "attest-order"}
    assert all(" pass " in line for line in summary["theorems"].values())


def assert_tokens_validate(path, *, seed, count):
    """The file holds count compact tokens, one a line, each signed by the
    verifier of the seed's cluster and not yet expired."""
    cluster = harness.build_cluster(seed)
    lines = path.read_text().splitlines()
    assert len(lines) == count
    for line in lines:
        assert isinstance(verifier.validate_token(
            line, cluster.verifier_svc.key.public, cluster.clock.now()), dict)


def test_attest_writes_token_and_passes_checks(tmp_path, capsys):
    out = tmp_path / "attest"
    assert run(["attest", "--seed", "11", "--direction", "tee-tpm",
                "--out", str(out)]) == 0
    assert_tokens_validate(out / "token.txt", seed=11, count=1)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["direction"] == "tee-tpm"
    assert "attested" in capsys.readouterr().out


def test_independent_issues_two_tokens(tmp_path, capsys):
    out = tmp_path / "indep"
    assert run(["independent", "--seed", "11", "--out", str(out)]) == 0
    assert_tokens_validate(out / "token.txt", seed=11, count=2)
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


@pytest.mark.parametrize("argv", [
    ["init", "--nodes", "0"],
    ["attest", "--nodes", "-1"],
    ["attack", "--name", "replay", "--nodes", "0"],
    ["bench", "--nodes", "-3"],
    ["bench", "--concurrency", "0"],
], ids=["init", "attest", "attack", "bench-nodes", "bench-concurrency"])
def test_fleet_size_below_one_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as info:
        run([*argv, "--out", str(out)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "must be an integer of at least 1" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["init", "--seed", "-1"],
    ["attest", "--seed", "-5"],
    ["independent", "--seed", str(2 ** 128)],
    ["attack", "--name", "replay", "--seed", "-1"],
    ["bench", "--seed", str(2 ** 130)],
], ids=["init", "attest", "independent", "attack", "bench"])
def test_seed_outside_the_seed_bytes_is_a_usage_error(tmp_path, capsys,
                                                      argv):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as info:
        run([*argv, "--out", str(out)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "--seed: must be an integer from 0 to 2**128 - 1" in captured.err
    assert not out.exists()


def test_seed_range_ends_are_accepted(tmp_path):
    for seed in (0, 2 ** 128 - 1):
        out = tmp_path / str(seed)
        assert run(["init", "--seed", str(seed), "--nodes", "1",
                    "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == seed


def test_unknown_attack_name_rejected(tmp_path, capsys):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as info:
        run(["attack", "--name", "nonsense", "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ccxtrust attack ")
    assert "--name: invalid choice: 'nonsense'" in err
    assert all(repr(name) in err
               for name in (*harness.DRILLS, *harness.FAULT_TRACES))
    assert not out.exists()


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
    # the witness, the decrypt of the token nobody signed, is named
    trace = ProtocolTrace.read(fault / "trace.log")
    verdict = check_theorems(trace)["token-provenance"]
    (index,) = verdict.witness
    decrypt = trace.events[index]
    assert (decrypt.kind, decrypt.tag) == ("decrypt", "token-info")
    assert f"\n    {decrypt.line(index)}\n" in printed


def test_check_trace_undecodable_file_exits_1(tmp_path, capsys):
    path = tmp_path / "trace.log"
    path.write_text("x verifier send - - - - -\n", encoding="ascii")
    assert run(["check-trace", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "trace index" in captured.err


def test_check_trace_unknown_event_kind_exits_1(tmp_path, capsys):
    path = tmp_path / "trace.log"
    path.write_text("0 verifier forge - - - - -\n", encoding="ascii")
    assert run(["check-trace", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "unknown event kind 'forge'" in captured.err


@pytest.mark.parametrize("content, reason", [
    (None, "No such file"),
    (b"0 verifier send - - - - \xff\n", "ASCII"),
], ids=["missing", "non-ascii-byte"])
def test_check_trace_unreadable_file_exits_1(tmp_path, capsys, content, reason):
    path = tmp_path / "trace.log"
    if content is not None:
        path.write_bytes(content)
    assert run(["check-trace", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"check-trace: {path}: ")
    assert len(captured.err.splitlines()) == 1
    assert reason in captured.err


@pytest.mark.parametrize("option", [["--seed", "77"], ["--out", "X"]],
                         ids=["seed", "out"])
def test_check_trace_takes_no_seed_or_out(tmp_path, monkeypatch, capsys,
                                          option):
    monkeypatch.chdir(tmp_path)
    Path("trace.log").write_text("", encoding="ascii")
    with pytest.raises(SystemExit) as info:
        run(["check-trace", *option, "trace.log"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {option[0]}" in captured.err
    assert not Path("X").exists()


def test_trace_text_with_a_non_ascii_character_does_not_decode(tmp_path):
    path = tmp_path / "trace.log"
    path.write_text("0 verifier send - - - - caf\u00e9\n", encoding="utf-8")
    with pytest.raises(DecodeError, match="ASCII"):
        ProtocolTrace.read(path)


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
# option files
# ---------------------------------------------------------------------------

def test_config_file_fills_defaults_flags_win(tmp_path):
    config = tmp_path / "run.args"
    config.write_text("--seed=99\n--nodes=3\n")
    out = tmp_path / "cfg"
    assert run(["init", f"@{config}", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 99
    assert summary["nodes"] == 3

    out2 = tmp_path / "cfg2"
    assert run(["init", f"@{config}", "--nodes", "1",
                "--out", str(out2)]) == 0
    summary2 = json.loads((out2 / "summary.json").read_text())
    assert summary2["seed"] == 99
    assert summary2["nodes"] == 1  # a flag after the file beats it


def test_config_non_integer_value_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.args"
    config.write_text("--nodes=abc\n")
    with pytest.raises(SystemExit) as info:
        run(["init", f"@{config}", "--out", str(tmp_path / "x")])
    assert info.value.code == 2
    assert "--nodes" in capsys.readouterr().err


def test_option_file_value_outside_its_choices_is_a_usage_error(tmp_path,
                                                                 capsys):
    config = tmp_path / "bad.args"
    config.write_text("--direction=sideways\n")
    with pytest.raises(SystemExit) as info:
        run(["attest", f"@{config}", "--out", str(tmp_path / "x")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "--direction: invalid choice: 'sideways'" in err
