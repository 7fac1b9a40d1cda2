"""Scenario harness: deterministic clusters, attack drills, benchmarks.

Everything here is built from a single integer or byte seed. The RNG
forks per component, the clock is virtual, and signatures are
deterministic, so a scenario replays byte for byte: the trace digest of
a seeded run is stable across processes and machines.
"""

from __future__ import annotations

import dataclasses
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from . import crypto, measurement, owner_ca, protocol, tee, tpm, verifier
from .clock import VirtualClock
from .errors import (
    AttestationRejected,
    InvalidSeed,
    SeedVersionMismatch,
    UntrustedImage,
)
from .trace import ProtocolTrace, check_theorems

CLOCK_EPOCH = 1_700_000_000.0
STANDARD_TCB_VERSION = 7
MIN_TCB_VERSION = 5
POLICY_ID = "cluster-baseline"

_HOST_COMPONENTS = [
    ("platform-firmware", b"platform firmware build 2026.1"),
    ("boot-loader", b"boot loader stage 1"),
    ("config-store", b"host configuration rev 12"),
]
_IMAGE_SET = [
    ("base-os", b"base operating system image"),
    ("runtime", b"container runtime image"),
    ("agent", b"platform agent image"),
]
_WORKLOADS = [
    ("service-a", b"workload service a"),
    ("service-b", b"workload service b"),
]


# every node boots the same guest, so one frozen record serves them all
STANDARD_TCB = tee.TeeTcb(
    crypto.sha256(b"guest-firmware 2026.1"),
    crypto.sha256(b"guest-kernel 6.8"),
    crypto.sha256(b"guest-initrd standard"),
    crypto.sha256(b"guest-cmdline quiet"))


def _workload_allow_list() -> dict[str, bytes]:
    return {name: crypto.sha256(content) for name, content in _WORKLOADS}


# ---------------------------------------------------------------------------
# cluster construction
# ---------------------------------------------------------------------------

@dataclass
class Cluster:
    clock: VirtualClock
    rng: crypto.DeterministicRng
    vendor: tee.TeeVendor
    oca: owner_ca.OwnerCa
    verifier_svc: verifier.VerifierService
    channels: protocol.ChannelTable
    publisher: crypto.SigningKeyPair
    policy_id: str
    trace: ProtocolTrace
    actors: dict[str, protocol.NodeActor] = field(default_factory=dict)

    def actor(self, index: int) -> protocol.NodeActor:
        return self.actors[node_name(index)]

    @property
    def policy(self) -> verifier.PolicyBaseline:
        return self.verifier_svc.get_policy(self.policy_id)


def node_name(index: int) -> str:
    return f"node{index:04d}"


def _seed_bytes(seed: int | bytes) -> bytes:
    if isinstance(seed, int):
        if not 0 <= seed < 1 << 128:
            raise InvalidSeed(
                f"seed must be an integer from 0 to 2**128 - 1, got {seed}")
        return seed.to_bytes(16, "big", signed=False)
    return bytes(seed)


def build_cluster(seed: int | bytes, nodes: int = 1) -> Cluster:
    """Stand up vendor, CA, verifier, and a fleet of enrolled nodes."""
    root = crypto.DeterministicRng(_seed_bytes(seed))
    clock = VirtualClock(CLOCK_EPOCH)
    vendor = tee.TeeVendor(root.fork("tee-vendor").random_bytes(32))
    oca = owner_ca.OwnerCa(
        trusted_tee_root=vendor.root_pub,
        trusted_tpm_root=tpm.tpm_vendor_root_pub(),
        clock=clock, rng=root.fork("owner-ca"))
    verifier_svc = verifier.VerifierService(
        owner_ca=oca, clock=clock, rng=root.fork("verifier"))
    publisher = crypto.SigningKeyPair.from_seed(
        root.fork("publisher").random_bytes(32))
    cluster = Cluster(
        clock=clock, rng=root, vendor=vendor,
        oca=oca, verifier_svc=verifier_svc,
        channels=protocol.ChannelTable(root.fork("channel-nonces")),
        publisher=publisher, policy_id=POLICY_ID,
        trace=ProtocolTrace())
    for index in range(nodes):
        add_node(cluster, index)
    return cluster


def add_node(cluster: Cluster, index: int, *,
             trace: ProtocolTrace | None = None) -> protocol.NodeActor:
    """Manufacture, measure, enroll, and provision one platform."""
    node_id = node_name(index)
    rng = cluster.rng.fork(node_id)
    state = tpm.tpm_manufacture(rng.random_bytes(32))
    ek_handle = tpm.load_key(state, state.ek_blob)
    srk_blob = tpm.create_primary(state, "storage")
    srk_handle = tpm.load_key(state, srk_blob)
    aik_blob = tpm.create_signing_key(state, srk_handle, role="AIK")
    aik_handle = tpm.load_key(state, aik_blob)

    chip_id = rng.random_bytes(32)
    vcek, chain = cluster.vendor.derive_vcek(chip_id, STANDARD_TCB_VERSION)

    epoch = measurement.MeasurementEpoch(state, cluster.publisher.public)
    epoch.run_host_stage(_HOST_COMPONENTS)
    manifests = [(measurement.sign_manifest(cluster.publisher, name, content),
                  content) for name, content in _IMAGE_SET]
    launch = epoch.run_launch_stage(manifests, STANDARD_TCB)
    epoch.run_runtime_stage(_WORKLOADS, _workload_allow_list())

    actor = protocol.NodeActor(
        node_id=node_id, state=state,
        ek_handle=ek_handle, srk_handle=srk_handle,
        aik_handle=aik_handle, aik_blob=aik_blob,
        vcek=vcek, vendor_chain=chain, chip_id=chip_id,
        tcb=STANDARD_TCB, tcb_version=STANDARD_TCB_VERSION,
        pcr_selection=measurement.ALL_STAGE_PCRS,
        identity=crypto.SigningKeyPair.from_seed(rng.random_bytes(32)),
        pek=crypto.SigningKeyPair.from_seed(rng.random_bytes(32)))
    protocol.establish_channels(actor, cluster.oca.key,
                                cluster.verifier_svc.key,
                                cluster.channels, rng)
    # the actor keeps its own pairs for the cluster's life, and nothing
    # after the channels uses their key objects
    actor.vcek, actor.identity, actor.pek = (
        actor.vcek.at_rest(), actor.identity.at_rest(), actor.pek.at_rest())

    composite = state.pcr.composite(measurement.ALL_STAGE_PCRS)
    if cluster.policy_id not in cluster.verifier_svc.policies:
        cluster.verifier_svc.add_policy(verifier.PolicyBaseline(
            policy_id=cluster.policy_id,
            expected_measurement=launch,
            pcr_selection=measurement.ALL_STAGE_PCRS,
            expected_pcr_composite=composite,
            min_tcb_version=MIN_TCB_VERSION))
    cluster.oca.register_tee(chain, node_id=node_id)
    cluster.oca.set_trust_baseline(node_id, cluster.policy)

    protocol.run_initialization(actor, cluster.oca, cluster.verifier_svc,
                                cluster.channels,
                                trace if trace is not None else cluster.trace)
    actor.cvm_root_blob = tpm.create_cvm_root_key(
        state, actor.master_secret, srk_handle, cvm_id=node_id.encode())
    cluster.actors[node_id] = actor
    return actor


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------

@dataclass
class ScenarioResult:
    tokens: list
    trace: ProtocolTrace

    @property
    def trace_digest(self) -> str:
        return self.trace.digest().hex()


def run_scenario(seed: int | bytes, *, nodes: int = 2,
                 direction: str = "tpm-tee") -> ScenarioResult:
    """The honest run: initialize a fleet and attest each node once,
    alternating the requested direction and the other, as `ccxtrust
    attest` does. Every fault in FAULT_TRACES is one edit of its trace.
    Fully deterministic per seed."""
    cluster = build_cluster(seed, nodes)
    tokens = []
    other = "tee-tpm" if direction == "tpm-tee" else "tpm-tee"
    for index in range(nodes):
        actor = cluster.actor(index)
        run_direction = direction if index % 2 == 0 else other
        tokens.append(protocol.run_attest_composite(
            actor, cluster.verifier_svc, cluster.channels, cluster.trace,
            policy_id=cluster.policy_id, direction=run_direction))
    return ScenarioResult(tokens, cluster.trace)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass
class ComparisonResult:
    runs: int
    composite_counts: Counter
    independent_counts: Counter
    elapsed_seconds: float
    composite_mean: float
    tee_only_mean: float
    tpm_only_mean: float
    fraction_composite_cheaper: float


def run_comparison_experiment(seed: int | bytes, runs: int = 120,
                              resamples: int = 200) -> ComparisonResult:
    """Composite attestation against the two-token baseline on one node.

    Each run attests once composite, alternating tpm-tee and tee-tpm,
    then once per technology into a shared trace, as
    run_attest_independent does. It times each flow and counts the
    verifier-visible sends of each style: the composite protocol should
    always cost three where the baseline costs six.

    fraction_composite_cheaper is the share of bootstrap resamples in
    which mean(composite) < mean(tee-only) + mean(tpm-only).
    """
    import statistics   # imported where it runs, as in run_bench
    cluster = build_cluster(seed, 1)
    actor = cluster.actor(0)
    composite_counts: Counter = Counter()
    independent_counts: Counter = Counter()
    times: dict[str, list[float]] = {"composite": [], "tee": [], "tpm": []}
    start = time.perf_counter()
    for run in range(runs):
        composite = ProtocolTrace()
        independent = ProtocolTrace()
        for series, direction, trace in (
                ("composite", "tpm-tee" if run % 2 == 0 else "tee-tpm",
                 composite),
                ("tee", "tee", independent), ("tpm", "tpm", independent)):
            flow_start = time.perf_counter()
            protocol.run_attest_composite(actor, cluster.verifier_svc,
                                          cluster.channels, trace,
                                          policy_id=cluster.policy_id,
                                          direction=direction)
            times[series].append(time.perf_counter() - flow_start)
        composite_counts[composite.verifier_visible_sends()] += 1
        independent_counts[independent.verifier_visible_sends()] += 1
    elapsed = time.perf_counter() - start

    boot_rng = crypto.DeterministicRng(_seed_bytes(seed) + b"bootstrap")
    cheaper = 0
    for _ in range(resamples):
        resample_mean = []
        for series in times.values():
            picks = struct.unpack(f">{runs}I", boot_rng.random_bytes(4 * runs))
            resample_mean.append(
                statistics.fmean([series[i % runs] for i in picks]))
        cheaper += resample_mean[0] < resample_mean[1] + resample_mean[2]
    return ComparisonResult(
        runs, composite_counts, independent_counts, elapsed,
        composite_mean=statistics.fmean(times["composite"]),
        tee_only_mean=statistics.fmean(times["tee"]),
        tpm_only_mean=statistics.fmean(times["tpm"]),
        fraction_composite_cheaper=cheaper / resamples)


# ---------------------------------------------------------------------------
# attack drills
# ---------------------------------------------------------------------------

@dataclass
class AttackReport:
    name: str
    attempted: int
    accepted: int
    outcomes: Counter
    passed: bool
    notes: list[str] = field(default_factory=list)

    @property
    def rejected(self) -> int:
        return self.attempted - self.accepted

    def summary(self) -> dict:
        return {**vars(self), "rejected": self.rejected}


def _honest_envelope(cluster: Cluster, actor: protocol.NodeActor,
                     direction: str):
    """Open a session and build its matching evidence without submitting."""
    request = cluster.verifier_svc.new_request(cluster.policy_id,
                                               actor.node_id)
    envelope = protocol.CompositeReportEnvelope(
        direction, actor.node_id, request.session_id,
        actor.evidence(direction, request.nonce))
    return request, envelope


def attack_splice_matrix(cluster: Cluster, *, sessions_per_node: int = 3
                         ) -> AttackReport:
    """Exhaustive cross-session splicing.

    Every envelope is re-bound to every session and submitted. Only the
    one hundred percent matched pairings may be accepted; every
    mismatched pairing must fail. Relay variants (another node's evidence
    for the right nonce) are crafted separately so the identity join is
    exercised, not just nonce freshness.
    """
    svc = cluster.verifier_svc
    policy = cluster.policy
    actors = [cluster.actors[n] for n in sorted(cluster.actors)]
    corpus = []
    for node_index, actor in enumerate(actors):
        for s in range(sessions_per_node):
            direction = "tpm-tee" if (node_index + s) % 2 == 0 else "tee-tpm"
            corpus.append(_honest_envelope(cluster, actor, direction))

    outcomes: Counter = Counter()
    notes = []

    def accepted(envelope, request) -> bool:
        outcome, _ = svc.verify_composite(envelope, request, policy)
        outcomes[outcome.value] += 1
        return outcome is verifier.CompositeOutcome.OK

    # mismatched pairings first so no session is completed yet
    for i, (_req_i, env_i) in enumerate(corpus):
        for j, (req_j, _env_j) in enumerate(corpus):
            if i != j and accepted(dataclasses.replace(
                    env_i, session_id=req_j.session_id), req_j):
                notes.append(f"splice accepted: evidence {i} in session {j}")

    # relay variants: correct nonce, wrong platform
    for i, actor in enumerate(actors if len(actors) > 1 else []):
        other = actors[(i + 1) % len(actors)]
        request = svc.new_request(cluster.policy_id, actor.node_id)
        relay = protocol.CompositeReportEnvelope(
            "tpm-tee", actor.node_id, request.session_id,
            other.evidence("tpm-tee", request.nonce))
        if accepted(relay, request):
            notes.append(f"relay accepted: node {other.node_id} evidence "
                         f"in {actor.node_id} session")
    mismatched_accepted = outcomes["ok"]

    # matched pairings last; every one must be accepted
    matched_ok = sum(accepted(envelope, request)
                     for request, envelope in corpus)
    if matched_ok != len(corpus):
        notes.append(f"only {matched_ok}/{len(corpus)} matched pairings "
                     "accepted")

    passed = mismatched_accepted == 0 and matched_ok == len(corpus)
    return AttackReport("splice-matrix", sum(outcomes.values()),
                        outcomes["ok"], outcomes, passed, notes)


def attack_spoof_identity(cluster: Cluster) -> AttackReport:
    """A node submits evidence signed by another platform's keys."""
    actors = [cluster.actors[n] for n in sorted(cluster.actors)]
    if len(actors) < 2:
        raise ValueError("identity spoofing needs at least two nodes")
    victim, imposter = actors[0], actors[1]
    outcomes: Counter = Counter()

    def swap_evidence(envelope: protocol.CompositeReportEnvelope):
        nonce = cluster.verifier_svc.session(envelope.session_id).nonce
        return dataclasses.replace(
            envelope, evidence=imposter.evidence(envelope.direction, nonce))

    try:
        protocol.run_attest_composite(
            victim, cluster.verifier_svc, cluster.channels,
            ProtocolTrace(), policy_id=cluster.policy_id,
            direction="tpm-tee", evidence_mutator=swap_evidence)
        accepted = 1
    except AttestationRejected as exc:
        accepted = 0
        outcomes[exc.cause.value] += 1
    return AttackReport("spoof-identity", 1, accepted, outcomes,
                        accepted == 0
                        and outcomes.get("identity-mismatch", 0) == 1)


def attack_replay(cluster: Cluster) -> AttackReport:
    """Replay accepted evidence against its own and against a fresh
    session."""
    actor = cluster.actor(0)
    svc = cluster.verifier_svc
    policy = cluster.policy
    request, envelope = _honest_envelope(cluster, actor, "tpm-tee")
    outcomes: Counter = Counter()
    first, _ = svc.verify_composite(envelope, request, policy)
    outcomes[f"first:{first.value}"] += 1

    again, _ = svc.verify_composite(envelope, request, policy)
    outcomes[again.value] += 1
    fresh = svc.new_request(cluster.policy_id, actor.node_id)
    rebound = protocol.CompositeReportEnvelope(
        envelope.direction, envelope.node_id, fresh.session_id,
        envelope.evidence)
    cross, _ = svc.verify_composite(rebound, fresh, policy)
    outcomes[cross.value] += 1

    passed = (first is verifier.CompositeOutcome.OK
              and again is verifier.CompositeOutcome.SESSION_REPLAY
              and cross is verifier.CompositeOutcome.NONCE_MISMATCH)
    return AttackReport("replay", 2, 0 if passed else 1, outcomes, passed)


def attack_stale_token(cluster: Cluster) -> AttackReport:
    """Expired and revoked tokens must both die at validation."""
    actor = cluster.actor(0)
    svc = cluster.verifier_svc
    token = protocol.run_attest_composite(
        actor, svc, cluster.channels, ProtocolTrace(),
        policy_id=cluster.policy_id, direction="tpm-tee")
    outcomes: Counter = Counter()

    def validate(stage, now=None):
        result = svc.validate_token(token, now=now)
        outcomes[f"{stage}:" + ("ok" if isinstance(result, dict)
                                else result.value)] += 1
        return result

    live = validate("live")
    issue_time = cluster.clock.now()
    cluster.clock.advance(verifier.TOKEN_LIFETIME + 1)
    expired = validate("expired")
    cluster.oca.revoke(actor.node_id, "drill")
    revoked = validate("revoked", now=issue_time + 1)
    passed = (isinstance(live, dict)
              and expired is verifier.TokenRejection.EXPIRED
              and revoked is verifier.TokenRejection.REVOKED_NODE)
    return AttackReport("stale-token", 2, 0 if passed else 1, outcomes, passed)


def attack_seed_rollback(cluster: Cluster, *, blobs: int = 20) -> AttackReport:
    """Keys wrapped before a hierarchy seed rotation must refuse to load
    afterwards, and fresh keys must still work."""
    actor = cluster.actor(0)
    state = actor.state
    stale = [tpm.create_signing_key(state, actor.srk_handle, role="signing")
             for _ in range(blobs)]
    tpm.rotate_seed(state, "storage")
    outcomes: Counter = Counter()
    accepted = 0
    for blob in stale:
        try:
            tpm.load_key(state, blob)
            accepted += 1
            outcomes["loaded"] += 1
        except SeedVersionMismatch:
            outcomes["seed-version-mismatch"] += 1
    srk_blob = tpm.create_primary(state, "storage")
    srk_handle = tpm.load_key(state, srk_blob)
    fresh = tpm.create_signing_key(state, srk_handle, role="signing")
    tpm.load_key(state, fresh)
    outcomes["fresh-loaded"] += 1
    actor.srk_handle = srk_handle
    return AttackReport("seed-rollback", blobs, accepted, outcomes,
                        accepted == 0)


def attack_image_forge(cluster: Cluster) -> AttackReport:
    """Unsigned or tampered images must refuse to boot; runtime drift
    must surface as deviations."""
    rng = cluster.rng.fork("image-forge")
    state = tpm.tpm_manufacture(rng.random_bytes(32))
    epoch = measurement.MeasurementEpoch(state, cluster.publisher.public)
    epoch.run_host_stage(_HOST_COMPONENTS)
    outcomes: Counter = Counter()

    mallory = crypto.SigningKeyPair.from_seed(rng.random_bytes(32))
    forged = measurement.sign_manifest(mallory, "base-os", b"evil payload")
    try:
        epoch.run_launch_stage([(forged, b"evil payload")], STANDARD_TCB)
        outcomes["forged-booted"] += 1
    except UntrustedImage:
        outcomes["forged-refused"] += 1

    good = measurement.sign_manifest(cluster.publisher, "base-os",
                                     b"base operating system image")
    try:
        epoch.run_launch_stage([(good, b"tampered content")], STANDARD_TCB)
        outcomes["tampered-booted"] += 1
    except UntrustedImage:
        outcomes["tampered-refused"] += 1

    epoch.run_launch_stage([(good, b"base operating system image")],
                           STANDARD_TCB)
    deviations = epoch.run_runtime_stage(
        [("service-a", b"workload service a"), ("rogue", b"cryptominer")],
        _workload_allow_list())
    outcomes["runtime:deviations" if deviations else "runtime:clean"] += 1
    accepted = (outcomes["forged-booted"] + outcomes["tampered-booted"]
                + int(not deviations))
    passed = accepted == 0 and deviations == ["rogue"]
    return AttackReport("image-forge", 3, accepted, outcomes, passed)


def attack_token_pairing_gap(cluster: Cluster) -> AttackReport:
    """The two-token baseline's structural weakness: nothing binds a TEE
    token to a TPM token, so tokens from different platforms pair up
    cleanly. The composite envelope closes this by joining identities
    inside one signed object."""
    actors = [cluster.actors[n] for n in sorted(cluster.actors)]
    if len(actors) < 2:
        raise ValueError("the pairing demonstration needs two nodes")
    a, b = actors[0], actors[1]
    tokens_a = protocol.run_attest_independent(
        a, cluster.verifier_svc, cluster.channels, ProtocolTrace(),
        policy_id=cluster.policy_id)
    tokens_b = protocol.run_attest_independent(
        b, cluster.verifier_svc, cluster.channels, ProtocolTrace(),
        policy_id=cluster.policy_id)
    tee_token_a, tpm_token_b = tokens_a[0], tokens_b[1]
    claims_tee = cluster.verifier_svc.validate_token(tee_token_a)
    claims_tpm = cluster.verifier_svc.validate_token(tpm_token_b)
    outcomes: Counter = Counter()
    naive_pair_passes = (isinstance(claims_tee, dict)
                         and isinstance(claims_tpm, dict))
    outcomes["naive-mixed-pair-validates"] += int(naive_pair_passes)
    same_platform = (naive_pair_passes
                     and claims_tee["payload"]["platform"]["node"]
                     == claims_tpm["payload"]["platform"]["node"])
    outcomes["pair-actually-same-platform"] += int(same_platform)
    # the attack "succeeds" structurally: both tokens validate although
    # they come from different machines; only cross-checking the node
    # claim catches it, and nothing in the baseline forces that check
    passed = naive_pair_passes and not same_platform
    return AttackReport("token-pairing-gap", 1, int(naive_pair_passes),
                        outcomes, passed,
                        ["baseline weakness demonstrated: mixed-platform "
                         "token pair validates token-by-token"])


# ---------------------------------------------------------------------------
# theorem fault traces: one-event edits of the honest run
# ---------------------------------------------------------------------------

def _nth(events: list, kind: str, tag: str, nth: int = 0) -> int:
    """Position of the nth event of a kind and tag."""
    return [i for i, e in enumerate(events)
            if e.kind == kind and e.tag == tag][nth]


def _deleted(kind: str, tag: str, nth: int = 0):
    """The edit that deletes the nth event of a kind and tag."""
    def edit(events: list) -> list:
        at = _nth(events, kind, tag, nth)
        return events[:at] + events[at + 1:]
    return edit


def _moved_first(kind: str, tag: str):
    """The edit that moves the first event of a kind and tag to the front."""
    def edit(events: list) -> list:
        at = _nth(events, kind, tag)
        return [events[at], *events[:at], *events[at + 1:]]
    return edit


def _signed_by(principal: str, tag: str):
    """The edit that gives the first sign of a tag another signer."""
    def edit(events: list) -> list:
        at = _nth(events, "sign", tag)
        return [*events[:at], dataclasses.replace(events[at],
                                                  principal=principal),
                *events[at + 1:]]
    return edit


# The drill table, read by `ccxtrust attack` and demo 03.
# name -> (title, drill)
DRILLS = {
    "splice": ("evidence spliced across sessions", attack_splice_matrix),
    "spoof-id": ("evidence signed by another platform",
                 attack_spoof_identity),
    "replay": ("same envelope submitted twice", attack_replay),
    "stale-token": ("tokens used past their life", attack_stale_token),
    "seed-rollback": ("key blobs from before a seed rotation",
                      attack_seed_rollback),
    "image-forge": ("workload image forged at boot", attack_image_forge),
    "token-pairing": ("baseline token pairing gap", attack_token_pairing_gap),
}
# name -> (title, edit, the one trust property its trace violates). An
# edit maps the event list of run_scenario(seed, nodes), nodes >= 2, to
# one that differs in one event: ProtocolTrace(edit(events)) is the fault.
FAULT_TRACES = {
    "forged-cert": ("certificate appears without a CA signature",
                    _signed_by("mallory", "cert-vcek"), "cert-provenance"),
    "forged-token": ("token appears without a verifier signature",
                     _deleted("sign", "token"), "token-provenance"),
    "reordered-sign": ("evidence signed before the nonce arrived",
                       _moved_first("sign", "total-report"), "attest-order"),
    # the second node's check: the first node's names another key and
    # must not vouch for it
    "unvouched-identity": ("identity certified without its node's evidence",
                           _deleted("verify", "registration-evidence", 1),
                           "cert-provenance"),
}


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

@dataclass
class BenchResult:
    nodes: int
    concurrency: int
    direction: str
    wall_seconds: float
    cpu_seconds: float
    successes: int
    failures: list[str]
    unique_nonces: int
    unique_token_serials: int
    phase_percentiles: dict[str, tuple[float, float, float]]
    theorem_violations: int
    theorems_checked: int

    @property
    def cpu_ms_per_node(self) -> float:
        """Process CPU time per node, every thread's summed: beside
        wall_seconds, it tells work from time spent queued on the GIL.
        An empty fleet reads 0.0."""
        return self.cpu_seconds * 1e3 / self.nodes if self.nodes else 0.0

    def summary(self) -> dict:
        return {
            "nodes": self.nodes,
            "concurrency": self.concurrency,
            "direction": self.direction,
            "wall_seconds": round(self.wall_seconds, 3),
            "cpu_ms_per_node": round(self.cpu_ms_per_node, 3),
            "successes": self.successes,
            "failures": self.failures[:10],
            "unique_nonces": self.unique_nonces,
            "unique_token_serials": self.unique_token_serials,
            "theorem_violations": self.theorem_violations,
            "phase_percentiles_ms": {
                phase: [round(v * 1e3, 3) for v in values]
                for phase, values in sorted(self.phase_percentiles.items())},
        }

    def table(self) -> str:
        lines = [
            f"{'nodes':>12} {self.nodes}",
            f"{'concurrency':>12} {self.concurrency}",
            f"{'direction':>12} {self.direction}",
            f"{'wall':>12} {self.wall_seconds:.3f}s",
            f"{'cpu':>12} {self.cpu_seconds:.3f}s "
            f"({self.cpu_ms_per_node:.3f} ms per node)",
            f"{'success':>12} {self.successes}/{self.nodes}",
            f"{'nonces':>12} {self.unique_nonces} unique",
            f"{'serials':>12} {self.unique_token_serials} unique",
            f"{'violations':>12} {self.theorem_violations} of "
            f"{self.theorems_checked} trust properties",
            f"{'phase':>12} {'p50ms':>10} {'p90ms':>10} {'p99ms':>10}",
        ]
        for phase, (p50, p90, p99) in sorted(self.phase_percentiles.items()):
            lines.append(f"{phase:>12} {p50 * 1e3:>10.3f} {p90 * 1e3:>10.3f} "
                         f"{p99 * 1e3:>10.3f}")
        return "\n".join(lines)


def run_bench(seed: int | bytes, nodes: int = 100, concurrency: int = 16,
              direction: str = "tpm-tee") -> BenchResult:
    """Initialize and attest a fleet under a thread pool, measuring
    per-phase latency and end-to-end wall time. Each node's enrollment
    and attestation share one trace, checked for the three trust
    properties after the node's timed phases."""
    # imported where they run: concurrent.futures also loads logging, and
    # statistics decimal and fractions, which no other command needs
    import statistics
    from concurrent.futures import ThreadPoolExecutor

    cluster = build_cluster(seed, 0)
    timings: dict[str, list[float]] = {"enroll": [], "attest": [],
                                       "validate": [], "end-to-end": []}
    failures: list[str] = []
    serials: set[int] = set()
    violations = checked = 0
    tally_lock = threading.Lock()

    def one_node(index: int) -> None:
        nonlocal violations, checked
        trace = ProtocolTrace()
        t0 = time.perf_counter()
        try:
            actor = add_node(cluster, index, trace=trace)
            t1 = time.perf_counter()
            token = protocol.run_attest_composite(
                actor, cluster.verifier_svc, cluster.channels, trace,
                policy_id=cluster.policy_id, direction=direction)
            t2 = time.perf_counter()
            claims = cluster.verifier_svc.validate_token(token)
            t3 = time.perf_counter()
            if not isinstance(claims, dict):
                raise AttestationRejected(claims, "token validation failed")
            with tally_lock:
                timings["enroll"].append(t1 - t0)
                timings["attest"].append(t2 - t1)
                timings["validate"].append(t3 - t2)
                timings["end-to-end"].append(t3 - t0)
                serials.add(claims["payload"]["serial"])
        except Exception as exc:   # noqa: BLE001 - bench must tally, not die
            with tally_lock:
                failures.append(f"{node_name(index)}: {exc}")
        verdicts = check_theorems(trace).values()
        with tally_lock:
            violations += sum(not verdict.ok for verdict in verdicts)
            checked += len(verdicts)

    start, cpu_start = time.perf_counter(), time.process_time()
    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        list(pool.map(one_node, range(nodes)))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start

    percentiles = {}
    for phase, values in timings.items():
        if len(values) > 1:
            qs = statistics.quantiles(values, n=100, method="inclusive")
            percentiles[phase] = (qs[49], qs[89], qs[98])
        else:
            # every percentile of one value is that value; of none, 0
            percentiles[phase] = (values[0] if values else 0.0,) * 3
    nonces = cluster.verifier_svc.nonces_issued
    return BenchResult(
        nodes=nodes, concurrency=concurrency, direction=direction,
        wall_seconds=wall, cpu_seconds=cpu, successes=nodes - len(failures),
        failures=failures, unique_nonces=nonces,
        unique_token_serials=len(serials),
        phase_percentiles=percentiles, theorem_violations=violations,
        theorems_checked=checked)
