"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

wl = bench.import_workloads()
from ccxtrust import harness, protocol  # noqa: E402
from tracer import SpanRecorder  # noqa: E402

TINY = wl.Sizes(fleet=3, fleets=2, attest_nodes=2, attest_ops=8,
                attest_audit_every=4, hostile_nodes=3, hostile_cycles=2,
                hostile_audit_every=1,
                traced_attest_ops=4, traced_hostile_cycles=1,
                setup_min_reps=2, setup_min_seconds=0.0,
                audit_min_reps=1, warmup_ops=1)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# --seconds only caps a run; at TINY sizes every op runs well within it
SECONDS = 60.0
TINY_OPS = {"onboard": TINY.fleets * TINY.fleet, "attest": TINY.attest_ops,
            "hostile": TINY.hostile_cycles * 2 * len(wl.HOSTILE_KINDS)}


def _execute(workload, trace, seed=5):
    return bench.execute(wl, workload, seed, SECONDS, trace, TINY,
                         out_dir=None)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, lines = _execute(workload, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == TINY_OPS[workload]
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    for spec in SPEC["end_to_end"]:
        value = metrics[spec["name"]]
        assert value["unit"] == spec["unit"]
        assert math.isfinite(value["value"]) and value["value"] > 0
    if workload == "hostile":
        # every tenth op is a forged-session submission, accepted today
        assert result["failed"] * 10 == result["attempted"]
    else:
        assert result["failed"] == 0
    assert any(line.startswith("verdict cert-provenance pass") for line in lines)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result, _lines = _execute(workload, trace=True)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    for spec in SPEC["per_layer"]:
        value = metrics[spec["name"]]["value"]
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert math.isfinite(value) and value >= 0
    assert metrics["tracing_overhead"]["value"] > 0


def _traced_run(workload, seed=5):
    run = wl.Run(workload, seed, SECONDS, TINY)
    metrics = run.traced()
    return run, metrics


def test_attest_counts_per_op():
    run, metrics = _traced_run("attest")
    # one op: a composite attestation, then one token validation
    assert metrics["crypto.sign.calls"] == 3
    assert metrics["crypto.verify.calls"] == 3
    assert metrics["crypto.seal.calls"] == 7
    assert metrics["crypto.ec_derive.calls"] == 3
    assert metrics["verifier.verify_composite.sig_verifies"] == 2
    under_validate = run.spans.count_under("crypto.verify",
                                           "verifier.validate_token")
    assert under_validate and set(under_validate.values()) == {1}


def test_onboard_counts_per_enrolled_node():
    run, _metrics = _traced_run("onboard")
    expected = {"crypto.ec_derive": 61, "crypto.verify": 16,
                "crypto.ecdh": 20, "crypto.sign": 11, "tee.chain_verify": 3}
    for boundary, count in expected.items():
        per_node = run.spans.count_under(boundary, "harness.add_node")
        assert len(per_node) == TINY.fleet
        assert set(per_node.values()) == {count}, boundary


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    _run, first = _traced_run(workload, seed=5)
    _run, second = _traced_run(workload, seed=6)
    counts = [name for name in first
              if name.endswith((".calls", ".sig_verifies"))
              or name.startswith("verifier.outcome.")
              or name == "protocol.trace_events"]
    assert len(counts) == len(first) - len(wl.BOUNDARY_NAMES) - 1
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_hostile_outcomes_per_kind():
    run = wl.Run("hostile", 5, SECONDS, TINY)
    run.measure()
    cycles = TINY.hostile_cycles
    assert run.kind_outcomes == {
        "bad-sig:outer-signature-invalid": cycles,
        "relay:identity-mismatch": cycles,
        "rebind:nonce-mismatch": cycles,
        "replay:session-replay": cycles,
        "forged-session:ok": cycles,
    }


def test_onboard_digest_matches_plain_seed_code():
    cluster = harness.build_cluster(5, 0)
    tokens = []
    for index in range(TINY.fleet):
        actor = harness.add_node(cluster, index)
        tokens.append(protocol.run_attest_composite(
            actor, cluster.verifier_svc, cluster.channels, cluster.trace,
            policy_id=cluster.policy_id, direction=wl.DIRECTIONS[index % 2]))
        assert isinstance(cluster.verifier_svc.validate_token(tokens[-1]), dict)
    expected = cluster.trace.digest().hex()
    untraced = wl.Run("onboard", 5, SECONDS, TINY)
    untraced.measure()
    traced, _metrics = _traced_run("onboard")
    assert untraced.record["onboard_trace_digest"] == expected
    assert traced.record["onboard_trace_digest"] == expected
    first = untraced.record["onboard_first_token_digest"]
    assert first == traced.record["onboard_first_token_digest"]


def test_self_time_subtracts_child_cover():
    rec = SpanRecorder()
    root = rec.add("root", -1, 0, 100)
    a = rec.add("a", root, 10, 30)
    b = rec.add("b", root, 40, 70)
    rec.add("leaf", b, 45, 50)
    rec.add("leaf", a, 12, 14)
    assert rec.self_times() == [50, 18, 25, 5, 2]
    totals = rec.totals()
    assert totals["leaf"] == (2, 7)
    assert rec.count_under("leaf", "root") == {root: 2}


def test_self_time_counts_overlapping_children_once():
    rec = SpanRecorder()
    root = rec.add("root", -1, 0, 100)
    rec.add("c", root, 10, 60)
    rec.add("c", root, 50, 80)
    rec.add("c", root, 90, 120)      # clipped to the parent's end
    assert rec.self_times()[0] == 100 - 70 - 10


def test_uninstall_restores_every_boundary():
    import ccxtrust
    before = (ccxtrust.crypto.verify, ccxtrust.crypto.ec,
              ccxtrust.encoding.FieldWriter.put)
    rec = SpanRecorder()
    rec.install(ccxtrust)
    assert ccxtrust.crypto.verify is not before[0]
    rec.uninstall()
    assert (ccxtrust.crypto.verify, ccxtrust.crypto.ec,
            ccxtrust.encoding.FieldWriter.put) == before



def test_gauge_scales_by_the_median_probe(monkeypatch):
    probes = iter([100e-6, 300e-6, 200e-6, 400e-6])
    monkeypatch.setattr(wl, "probe", lambda: next(probes))
    gauge = wl.SpeedGauge()
    gauge.on = True
    result, elapsed, scale = gauge.time(str.upper, "x", probes=2)
    assert result == "X" and elapsed >= 0
    assert scale == pytest.approx(wl.REFERENCE_PROBE_S / 250e-6)
    assert gauge.probes == [200e-6, 400e-6]
    off = wl.SpeedGauge()
    off.start()
    assert off.scale() == 1.0


def test_probe_leaves_the_garbage_collector_alone():
    before = gc.get_count()
    for _ in range(50):
        wl.probe()
    assert gc.get_count() == before

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
