"""Cluster harness: scenario runs, experiments, the attack catalog, and
the concurrent benchmark at a small configuration."""

import pytest

from ccxtrust import harness, verifier
from ccxtrust.errors import InvalidSeed
from ccxtrust.trace import check_theorems


@pytest.fixture(scope="module")
def shared_cluster():
    """Read-mostly cluster for attack probes that leave state clean."""
    return harness.build_cluster(300, nodes=3)


# ---------------------------------------------------------------------------
# cluster construction
# ---------------------------------------------------------------------------

def test_build_cluster_shapes():
    cluster = harness.build_cluster(1, nodes=2)
    assert sorted(cluster.actors) == ["node0000", "node0001"]
    assert cluster.policy.policy_id == cluster.policy_id
    actor = cluster.actor(1)
    assert actor.node_id == "node0001"
    assert actor.tee_name == "node0001/tee"
    assert actor.tpm_name == "node0001/tpm"


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_seed_outside_the_seed_bytes_is_invalid(seed):
    # the range the CLI's --seed states, as a CcxError, not OverflowError
    with pytest.raises(InvalidSeed,
                       match=r"must be an integer from 0 to 2\*\*128 - 1"):
        harness.build_cluster(seed)


def test_revoke_covers_every_certificate_issued_to_the_node():
    cluster = harness.build_cluster(3, nodes=1)
    node_id = cluster.actor(0).node_id
    cluster.oca.revoke(node_id, "test")
    issued = {int(line.rsplit("serial=", 1)[1])
              for line in cluster.oca.record_log
              if f" {node_id} serial=" in line}
    # add_node registers the TEE once before initialization does it again,
    # so the node holds two VCEK certificates
    assert len(issued) == 4
    assert issued <= cluster.oca.revocation_list()[1]


def test_cluster_actors_share_one_policy():
    cluster = harness.build_cluster(2, nodes=2)
    a, b = cluster.actor(0), cluster.actor(1)
    assert a.tcb == b.tcb
    assert a.state.pcr.composite(a.pcr_selection) \
        == b.state.pcr.composite(b.pcr_selection)


def test_scenario_runs_and_checks(tmp_path):
    result = harness.run_scenario(42, nodes=2)
    # one composite token per node, each direction once
    assert [t.token_type for t in result.tokens] == ["tpm-tee", "tee-tpm"]
    verdicts = check_theorems(result.trace)
    assert all(v.ok for v in verdicts.values())
    assert len(result.trace_digest) == 64


def test_scenario_deterministic_per_seed():
    a = harness.run_scenario(9, nodes=1)
    b = harness.run_scenario(9, nodes=1)
    c = harness.run_scenario(10, nodes=1)
    assert a.trace_digest == b.trace_digest
    assert a.trace_digest != c.trace_digest
    assert a.trace.lines() == b.trace.lines()


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_message_count_experiment_small():
    result = harness.run_comparison_experiment(5, runs=20)
    assert result.runs == 20
    assert set(result.composite_counts) == {3}
    assert set(result.independent_counts) == {6}


def test_latency_experiment_small():
    result = harness.run_comparison_experiment(5, runs=12, resamples=40)
    assert result.runs == 12
    assert result.composite_mean > 0
    assert result.tee_only_mean > 0 and result.tpm_only_mean > 0
    assert 0.0 <= result.fraction_composite_cheaper <= 1.0


# ---------------------------------------------------------------------------
# attack catalog
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("direction", ["tpm-tee", "tee-tpm", "tee", "tpm"])
def test_honest_envelope_accepted_for_every_layout(direction):
    cluster = harness.build_cluster(301, nodes=1)
    request, envelope = harness._honest_envelope(cluster, cluster.actor(0),
                                                 direction)
    outcome, verified = cluster.verifier_svc.verify_composite(
        envelope, request, cluster.policy)
    assert outcome is verifier.CompositeOutcome.OK
    assert verified.token_type == direction


def test_attack_splice_matrix_small(shared_cluster):
    report = harness.attack_splice_matrix(shared_cluster, sessions_per_node=2)
    assert report.passed, report.summary()
    matched = len(shared_cluster.actors) * 2
    assert report.accepted == matched
    assert report.outcomes["ok"] == matched
    assert report.outcomes["nonce-mismatch"] > 0
    assert report.outcomes["identity-mismatch"] > 0


def test_attack_spoof_identity(shared_cluster):
    report = harness.attack_spoof_identity(shared_cluster)
    assert report.passed, report.summary()
    assert report.accepted == 0
    assert report.outcomes["identity-mismatch"] == report.attempted


def test_attack_replay(shared_cluster):
    report = harness.attack_replay(shared_cluster)
    assert report.passed, report.summary()
    assert report.outcomes["session-replay"] >= 1
    assert report.outcomes["nonce-mismatch"] >= 1


def test_attack_stale_token():
    cluster = harness.build_cluster(301, nodes=1)
    report = harness.attack_stale_token(cluster)
    assert report.passed, report.summary()
    assert report.outcomes["expired:expired"] >= 1
    assert report.outcomes["revoked:revoked-node"] >= 1


def test_attack_seed_rollback():
    cluster = harness.build_cluster(302, nodes=1)
    report = harness.attack_seed_rollback(cluster, blobs=10)
    assert report.passed, report.summary()
    assert report.accepted == 0
    assert report.outcomes["seed-version-mismatch"] == 10


def test_attack_image_forge():
    cluster = harness.build_cluster(303, nodes=1)
    report = harness.attack_image_forge(cluster)
    assert report.passed, report.summary()
    assert report.accepted == 0


def test_attack_token_pairing_gap(shared_cluster):
    report = harness.attack_token_pairing_gap(shared_cluster)
    # "passed" here means the demonstration worked: both independent
    # tokens validate even though they name different platforms
    assert report.passed, report.summary()
    assert report.accepted >= 1


def test_attacks_requiring_peers_refuse_single_node():
    cluster = harness.build_cluster(304, nodes=1)
    with pytest.raises(ValueError):
        harness.attack_spoof_identity(cluster)
    with pytest.raises(ValueError):
        harness.attack_token_pairing_gap(cluster)


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_bench_small_config():
    result = harness.run_bench(77, nodes=6, concurrency=3)
    assert result.successes == 6
    assert result.failures == []
    assert result.unique_nonces == 6
    assert result.unique_token_serials == 6
    assert set(result.phase_percentiles) == {"enroll", "attest", "validate",
                                             "end-to-end"}
    for p50, p90, p99 in result.phase_percentiles.values():
        assert 0 <= p50 <= p90 <= p99
    table = result.table()
    assert "enroll" in table and "attest" in table


def test_bench_reports_cpu_time_beside_wall_time():
    # process CPU time around the pool, every worker thread's summed
    result = harness.run_bench(79, nodes=4, concurrency=2)
    assert result.cpu_seconds > 0
    summary = result.summary()
    assert summary["cpu_ms_per_node"] == round(
        result.cpu_seconds * 1e3 / 4, 3) > 0
    rows = result.table().splitlines()
    wall = next(i for i, row in enumerate(rows) if row.split()[0] == "wall")
    assert rows[wall + 1] == (
        f"{'cpu':>12} {result.cpu_seconds:.3f}s "
        f"({result.cpu_seconds * 1e3 / 4:.3f} ms per node)")


def test_bench_of_an_empty_fleet_reports_zero_per_node():
    result = harness.run_bench(3, nodes=0)
    assert result.successes == 0 and result.cpu_ms_per_node == 0.0
    assert result.summary()["cpu_ms_per_node"] == 0.0
    assert "(0.000 ms per node)" in result.table()


def test_bench_of_one_node_reports_its_one_timing_per_phase():
    result = harness.run_bench(78, nodes=1, concurrency=1)
    assert result.successes == 1
    for p50, p90, p99 in result.phase_percentiles.values():
        assert 0 < p50 == p90 == p99
