"""Acceptance checks: the behavior contract for the whole package.

Each test exercises one end-to-end guarantee at a stated tolerance and
prints exactly one pass/FAIL line (visible with -s; the test name carries
the same verdict under -v). The checks are intentionally heavier than the
unit tests: fleet-scale runs, exhaustive splice matrices, thousand-trial
property loops, and cross-process determinism.
"""

import dataclasses
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from ccxtrust import crypto, harness, measurement, protocol, tee, tpm, verifier
from ccxtrust.errors import (AuthFailure, NameMismatch, PolicyFailure,
                             SeedVersionMismatch)
from ccxtrust.trace import ProtocolTrace, check_theorems


def _report(number: int, ok: bool, description: str, detail: str) -> None:
    status = "pass" if ok else "FAIL"
    print(f"criterion {number:2d} {status}: {description} [{detail}]",
          flush=True)
    assert ok, f"criterion {number} failed: {detail}"


def _randint(rng: crypto.DeterministicRng, bound: int) -> int:
    return int.from_bytes(rng.random_bytes(4), "big") % bound


# ---------------------------------------------------------------------------
# 1. message-count reduction
# ---------------------------------------------------------------------------

def test_criterion_01_message_count_reduction():
    result = harness.run_comparison_experiment(12, runs=1000)
    counts_ok = (set(result.composite_counts) == {3}
                 and result.composite_counts[3] == 1000
                 and set(result.independent_counts) == {6}
                 and result.independent_counts[6] == 1000)

    # one direct trace per direction, so the claim covers both embeddings
    cluster = harness.build_cluster(12, 1)
    actor = cluster.actor(0)
    per_direction = []
    for direction in ("tpm-tee", "tee-tpm"):
        trace = ProtocolTrace()
        protocol.run_attest_composite(
            actor, cluster.verifier_svc, cluster.channels, trace,
            policy_id=cluster.policy_id, direction=direction)
        per_direction.append(trace.verifier_visible_sends())
    baseline_trace = ProtocolTrace()
    protocol.run_attest_independent(
        actor, cluster.verifier_svc, cluster.channels, baseline_trace,
        policy_id=cluster.policy_id)

    ok = (counts_ok and per_direction == [3, 3]
          and baseline_trace.verifier_visible_sends() == 6
          and result.elapsed_seconds < 10.0)
    _report(1, ok,
            "composite attestation costs 3 verifier-visible messages, the "
            "two-token baseline costs 6, over 1000 runs in both directions",
            f"composite={dict(result.composite_counts)} "
            f"independent={dict(result.independent_counts)} "
            f"directions={per_direction}+[{baseline_trace.verifier_visible_sends()}] "
            f"elapsed={result.elapsed_seconds:.2f}s (<10s)")


# ---------------------------------------------------------------------------
# 2. relative latency
# ---------------------------------------------------------------------------

def test_criterion_02_composite_latency_beats_split_flows():
    result = harness.run_comparison_experiment(23, runs=120, resamples=400)
    ok = (result.runs >= 100
          and result.composite_mean < result.tee_only_mean + result.tpm_only_mean
          and result.fraction_composite_cheaper >= 0.95)
    _report(2, ok,
            "mean composite latency is below the sum of the single-"
            "technology flows in at least 95% of bootstrap resamples",
            f"runs={result.runs} "
            f"composite={result.composite_mean * 1e3:.2f}ms "
            f"tee+tpm={(result.tee_only_mean + result.tpm_only_mean) * 1e3:.2f}ms "
            f"fraction={result.fraction_composite_cheaper:.3f} (>=0.95)")


# ---------------------------------------------------------------------------
# 3. splice resistance
# ---------------------------------------------------------------------------

def test_criterion_03_exhaustive_splice_matrix():
    cluster = harness.build_cluster(34, nodes=20)
    start = time.perf_counter()
    report = harness.attack_splice_matrix(cluster, sessions_per_node=5)
    elapsed = time.perf_counter() - start
    matched = 20 * 5
    # corpus is every mismatched pairing plus one relay per node plus the
    # matched pairings themselves
    exhaustive = report.attempted == matched * (matched - 1) + 20 + matched
    ok = (report.passed and exhaustive
          and report.outcomes.get("ok", 0) == matched
          and report.accepted == matched
          and elapsed < 60.0)
    _report(3, ok,
            "every mismatched inner/outer pairing over 20 nodes x 5 "
            "sessions is rejected and every matched pairing is accepted",
            f"attempted={report.attempted} accepted={report.accepted} "
            f"(matched={matched}) outcomes={dict(report.outcomes)} "
            f"elapsed={elapsed:.2f}s (<60s)")


# ---------------------------------------------------------------------------
# 4. trust-property verdicts
# ---------------------------------------------------------------------------

def test_criterion_04_theorem_checks_and_fault_counterexamples():
    correct = 0
    details = []

    # the honest run with both single-technology legs of the baseline
    honest = harness.build_cluster(45, nodes=2)
    for index, direction in ((0, "tpm-tee"), (1, "tee-tpm")):
        protocol.run_attest_composite(
            honest.actor(index), honest.verifier_svc, honest.channels,
            honest.trace, policy_id=honest.policy_id, direction=direction)
    protocol.run_attest_independent(
        honest.actor(0), honest.verifier_svc, honest.channels, honest.trace,
        policy_id=honest.policy_id)
    honest_verdicts = check_theorems(honest.trace)
    for name, verdict in sorted(honest_verdicts.items()):
        correct += bool(verdict.ok)
        details.append(f"honest/{name}={'pass' if verdict.ok else 'FAIL'}")

    # each fault of the gallery is one edit of the honest events
    for fault, (_title, edit, expected) in harness.FAULT_TRACES.items():
        verdicts = check_theorems(ProtocolTrace(edit(honest.trace.events)))
        failing = sorted(n for n, v in verdicts.items() if not v.ok)
        has_witness = bool(verdicts[expected].witness) if failing == [expected] else False
        hit = failing == [expected] and has_witness
        correct += hit
        details.append(f"fault/{fault}={'hit' if hit else failing}")

    total = len(honest_verdicts) + len(harness.FAULT_TRACES)
    _report(4, correct == total,
            "honest traces satisfy all three trust properties and each "
            "fault trace produces exactly its matching counterexample",
            f"{correct}/{total} outcomes correct; " + " ".join(details))


# ---------------------------------------------------------------------------
# 5. seed rotation
# ---------------------------------------------------------------------------

def test_criterion_05_seed_rotation_invalidates_stale_blobs():
    rng = crypto.DeterministicRng(b"acceptance-seed-rotation")
    state = tpm.tpm_manufacture(rng.random_bytes(32))
    parents = {}
    for hierarchy in ("storage", "cc"):
        blob = tpm.create_primary(state, hierarchy)
        parents[hierarchy] = (blob, tpm.load_key(state, blob))

    stale = []
    for _ in range(500):
        hierarchy = ("storage", "cc")[_randint(rng, 2)]
        role = ("AIK", "signing")[_randint(rng, 2)]
        stale.append(tpm.create_signing_key(state, parents[hierarchy][1],
                                            role=role))
    stale.extend(blob for blob, _handle in parents.values())

    for hierarchy in ("storage", "cc"):
        tpm.rotate_seed(state, hierarchy)

    stale_rejected = 0
    for blob in stale:
        try:
            tpm.load_key(state, blob)
        except SeedVersionMismatch:
            stale_rejected += 1

    fresh_parents = {}
    for hierarchy in ("storage", "cc"):
        blob = tpm.create_primary(state, hierarchy)
        fresh_parents[hierarchy] = tpm.load_key(state, blob)
    fresh_loaded = 0
    for index in range(500):
        hierarchy = ("storage", "cc")[_randint(rng, 2)]
        blob = tpm.create_signing_key(state, fresh_parents[hierarchy])
        handle = tpm.load_key(state, blob)
        fresh_loaded += blob.seed_version == 2 and handle > 0
        tpm.flush_key(state, handle)

    ok = stale_rejected == len(stale) and fresh_loaded == 500
    _report(5, ok,
            "after seed rotation every stale blob fails to load and every "
            "current-version blob loads",
            f"stale rejected {stale_rejected}/{len(stale)}, "
            f"fresh loaded {fresh_loaded}/500")


# ---------------------------------------------------------------------------
# 6. credential activation
# ---------------------------------------------------------------------------

def test_criterion_06_credential_activation_matrix():
    rng = crypto.DeterministicRng(b"acceptance-credential")
    state = tpm.tpm_manufacture(rng.random_bytes(32))
    ek_priv = tpm.loaded_keypair(state, tpm.load_key(state, state.ek_blob))
    srk_handle = tpm.load_key(state, tpm.create_primary(state, "storage"))
    aik_name = tpm.create_signing_key(state, srk_handle, role="AIK").name

    other = tpm.tpm_manufacture(rng.random_bytes(32))
    wrong_ek = tpm.loaded_keypair(other, tpm.load_key(other, other.ek_blob))
    wrong_name = crypto.sha256(b"some other key name")

    honest = wrong_ek_wins = wrong_name_wins = 0
    for _ in range(1000):
        secret = crypto.Secret(rng.random_bytes(32))
        cred = tpm.make_credential(secret, aik_name, state.ek_blob.public, rng)
        honest += tpm.activate_credential(
            cred, aik_name, ek_priv).data == secret.data
        try:
            tpm.activate_credential(cred, aik_name, wrong_ek)
            wrong_ek_wins += 1
        except AuthFailure:
            pass
        try:
            tpm.activate_credential(cred, wrong_name, ek_priv)
            wrong_name_wins += 1
        except NameMismatch:
            pass

    ok = honest == 1000 and wrong_ek_wins == 0 and wrong_name_wins == 0
    _report(6, ok,
            "credential activation recovers the sealed secret in 100% of "
            "honest trials and never for wrong-EK or wrong-name adversaries",
            f"honest {honest}/1000, wrong-EK wins {wrong_ek_wins}, "
            f"wrong-name wins {wrong_name_wins} over 1000 trials")


# ---------------------------------------------------------------------------
# 7. measurement-chain integrity
# ---------------------------------------------------------------------------

def _random_epoch(rng: crypto.DeterministicRng):
    """One fresh platform booted through all three stages with randomized
    components, images, tcb, and workloads."""
    state = tpm.tpm_manufacture(rng.random_bytes(32))
    publisher = crypto.SigningKeyPair.generate(rng)
    epoch = measurement.MeasurementEpoch(state, publisher.public_bytes)

    components = [(f"host-{i}", rng.random_bytes(16 + _randint(rng, 48)))
                  for i in range(1 + _randint(rng, 4))]
    epoch.run_host_stage(components)

    manifests = []
    for i in range(1 + _randint(rng, 3)):
        content = rng.random_bytes(32 + _randint(rng, 96))
        manifests.append((measurement.sign_manifest(publisher, f"img-{i}",
                                                    content), content))
    tcb = tee.TeeTcb(rng.random_bytes(32), rng.random_bytes(32),
                     rng.random_bytes(32), rng.random_bytes(32))
    epoch.run_launch_stage(manifests, tcb)

    allow_list, workloads = {}, []
    for i in range(1 + _randint(rng, 3)):
        content = rng.random_bytes(24)
        allow_list[f"wl-{i}"] = crypto.sha256(content)
        workloads.append((f"wl-{i}", content))
    if _randint(rng, 2):
        workloads.append(("rogue", rng.random_bytes(24)))
    epoch.run_runtime_stage(workloads, allow_list)
    return state, epoch


def test_criterion_07_measurement_replay_tamper_and_sealing():
    rng = crypto.DeterministicRng(b"acceptance-measurement")
    replayed_ok = tampers_detected = 0
    epochs = 200
    for _ in range(epochs):
        state, epoch = _random_epoch(rng)
        replayed_ok += measurement.verify_log_against_bank(epoch.events, state)

        target = _randint(rng, len(epoch.events))
        position = _randint(rng, crypto.DIGEST_LEN)
        flip = 1 + _randint(rng, 255)
        original = epoch.events[target].digest
        doctored = (original[:position]
                    + bytes([original[position] ^ flip])
                    + original[position + 1:])
        tampered = list(epoch.events)
        tampered[target] = dataclasses.replace(tampered[target],
                                               digest=doctored)
        tampers_detected += not measurement.verify_log_against_bank(tampered,
                                                                    state)

    # a secret sealed to the launch-stage registers opens only on a
    # platform that booted identical manifests under the identical tcb
    base = crypto.DeterministicRng(b"acceptance-sealing")
    ep_seed = base.random_bytes(32)
    publisher = crypto.SigningKeyPair.generate(base)
    components = [("fw", b"firmware rom"), ("loader", b"stage one loader")]
    images = [("app", b"application image"), ("svc", b"sidecar image")]
    tcb = tee.TeeTcb(crypto.sha256(b"ovmf"), crypto.sha256(b"kernel"),
                     crypto.sha256(b"initrd"), crypto.sha256(b"cmdline"))

    def boot(image_set, booted_tcb):
        state = tpm.tpm_manufacture(ep_seed)
        epoch = measurement.MeasurementEpoch(state, publisher.public_bytes)
        epoch.run_host_stage(components)
        manifests = [(measurement.sign_manifest(publisher, name, content),
                      content) for name, content in image_set]
        epoch.run_launch_stage(manifests, booted_tcb)
        return state

    sealer = boot(images, tcb)
    secret = b"workload data key"
    blob = tpm.seal(sealer, secret, measurement.LAUNCH_PCRS)
    seal_checks = [tpm.unseal(sealer, blob) == secret]

    twin = boot(images, tcb)
    seal_checks.append(tpm.unseal(twin, blob) == secret)

    drifted = boot([("app", b"application image"),
                    ("svc", b"tampered sidecar")], tcb)
    try:
        tpm.unseal(drifted, blob)
        seal_checks.append(False)
    except PolicyFailure:
        seal_checks.append(True)

    other_tcb = boot(images, tee.TeeTcb(crypto.sha256(b"ovmf v2"),
                                        tcb.kernel, tcb.initrd, tcb.cmdline))
    try:
        tpm.unseal(other_tcb, blob)
        seal_checks.append(False)
    except PolicyFailure:
        seal_checks.append(True)

    ok = (replayed_ok == epochs and tampers_detected == epochs
          and all(seal_checks))
    _report(7, ok,
            "log replay reproduces the live registers for 200 random "
            "epochs, single-byte tampers are always caught, and a launch-"
            "sealed secret opens only under identical manifests and tcb",
            f"replayed {replayed_ok}/{epochs}, tampers detected "
            f"{tampers_detected}/{epochs}, sealing gates "
            f"{sum(seal_checks)}/{len(seal_checks)}")


# ---------------------------------------------------------------------------
# 8. concurrency soundness
# ---------------------------------------------------------------------------

def test_criterion_08_fleet_concurrency_soundness():
    bench = harness.run_bench(56, nodes=1000, concurrency=64)

    # cross-session probe under the same concurrency: every report bound
    # to another live session must be refused, every matched one accepted
    cluster = harness.build_cluster(57, nodes=64)
    actors = [cluster.actor(i) for i in range(64)]
    with ThreadPoolExecutor(max_workers=64) as pool:
        corpus = list(pool.map(
            lambda actor: harness._honest_envelope(cluster, actor, "tpm-tee"),
            actors))

        def cross(pair):
            i, j = pair
            _req_i, env_i = corpus[i]
            req_j, _env_j = corpus[j]
            rebound = protocol.CompositeReportEnvelope(
                env_i.direction, env_i.node_id, req_j.session_id,
                env_i.evidence)
            outcome, _ = cluster.verifier_svc.verify_composite(
                rebound, req_j, cluster.policy)
            return outcome is verifier.CompositeOutcome.OK

        pairs = [(i, j) for i in range(64) for j in range(64) if i != j]
        cross_accepted = sum(pool.map(cross, pairs))

        def matched(pair):
            request, envelope = pair
            outcome, _ = cluster.verifier_svc.verify_composite(
                envelope, request, cluster.policy)
            return outcome is verifier.CompositeOutcome.OK

        matched_accepted = sum(pool.map(matched, corpus))

    ok = (bench.successes == 1000 and bench.failures == []
          and bench.unique_nonces == 1000
          and bench.unique_token_serials == 1000
          and bench.theorem_violations == 0
          and bench.wall_seconds < 300.0
          and cross_accepted == 0 and matched_accepted == 64)
    _report(8, ok,
            "1000 nodes attest at concurrency 64 with 100% success, unique "
            "nonces and serials, every node's trace passing the trust "
            "properties, and no cross-session report acceptance",
            f"success {bench.successes}/1000, nonces {bench.unique_nonces}, "
            f"serials {bench.unique_token_serials}, "
            f"violated properties {bench.theorem_violations}, "
            f"wall {bench.wall_seconds:.1f}s (<300s), cross-session accepted "
            f"{cross_accepted}/{len(pairs)}, matched {matched_accepted}/64")


# ---------------------------------------------------------------------------
# 9. token lifecycle
# ---------------------------------------------------------------------------

def test_criterion_09_token_expiry_and_revocation():
    cluster = harness.build_cluster(67, nodes=2)
    tokens = []
    for index in range(60):
        actor = cluster.actor(index % 2)
        direction = "tpm-tee" if index % 2 == 0 else "tee-tpm"
        tokens.append(protocol.run_attest_composite(
            actor, cluster.verifier_svc, cluster.channels,
            ProtocolTrace(), policy_id=cluster.policy_id,
            direction=direction))
    live = sum(isinstance(cluster.verifier_svc.validate_token(t), dict)
               for t in tokens)
    cluster.clock.advance(verifier.TOKEN_LIFETIME + 1)
    expired = sum(cluster.verifier_svc.validate_token(t)
                  is verifier.TokenRejection.EXPIRED for t in tokens)

    cluster2 = harness.build_cluster(68, nodes=2)
    tokens2 = [protocol.run_attest_composite(
        cluster2.actor(index % 2), cluster2.verifier_svc, cluster2.channels,
        ProtocolTrace(), policy_id=cluster2.policy_id,
        direction="tpm-tee") for index in range(60)]
    for index in range(2):
        cluster2.oca.revoke(cluster2.actor(index).node_id,
                            "acceptance drill")
    revoked = sum(cluster2.verifier_svc.validate_token(t)
                  is verifier.TokenRejection.REVOKED_NODE for t in tokens2)

    ok = live == 60 and expired == 60 and revoked == 60
    _report(9, ok,
            "expired tokens are rejected 100% and post-issuance revocation "
            "turns every validation into a revoked-node rejection",
            f"live {live}/60, expired {expired}/60, revoked {revoked}/60")


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cross_process_determinism():
    first = harness.run_scenario(4242, nodes=2).trace_digest
    second = harness.run_scenario(4242, nodes=2).trace_digest

    code = ("from ccxtrust.harness import run_scenario; "
            "print(run_scenario(4242, nodes=2).trace_digest)")
    external = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, env=env,
                                check=False)
        external.append(result.stdout.strip() if result.returncode == 0
                        else f"rc={result.returncode}:{result.stderr[-120:]}")

    digests = [first, second] + external
    ok = len(set(digests)) == 1 and len(first) == 64
    _report(10, ok,
            "a fixed seed produces identical trace digests across "
            "consecutive runs and across separate interpreter processes "
            "with different hash randomization",
            f"digests={'all equal: ' + first[:16] + '...' if ok else digests}")
