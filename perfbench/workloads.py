"""The benchmark's three workloads, their correctness gates and metrics.

Every workload drives the public API of ccxtrust from one client in a
closed loop: the next request starts only after the previous one returned.
Inputs come from the seed alone (cluster seeds, node order, directions and
hostile kinds are fixed functions of the seed and the op index).

- onboard: fleets of freshly enrolled nodes. Each op enrolls one node into
  the fleet's shared trace, runs one composite attestation into the same
  trace and validates the token. Each finished fleet is audited with
  check_theorems.
- attest: a 16-node cluster built in setup; each op is one composite
  attestation (round-robin over the nodes, alternating direction) into a
  fresh trace, then token validation.
- hostile: a 250-node cluster built in setup; honest ops as in attest
  alternate with hostile submissions that cycle through HOSTILE_KINDS.
  A hostile op is the VerifierService.verify_composite call alone; the
  benchmark builds its input outside the timed region.

An op fails when an honest op is rejected or gives a wrong output, or when
a hostile op is accepted or raises. A run is not correct when an honest op
fails, a hostile op raises or is rejected with another outcome than its
kind expects, or an audited trace violates a trust property.

Untraced runs time a short fixed probe just before and just after every
timed call (op, build, audit): the probe gauges how fast this process runs
at that moment, and the small shared hosts this benchmark runs on have
other tenants whose load comes and goes within seconds. Every timing is
scaled by REFERENCE_PROBE_S over the median of its probes, so it reads as
the time on a host where the probe takes REFERENCE_PROBE_S. The probe needs
nothing from ccxtrust, so a change to the program moves the scaled times by
as much as it moves the raw ones. Ops are grouped into units of one fixed
mix (two ops, one per direction; one hostile cycle), and the per-op metrics
are medians over units or ops.

Every run does a fixed number of ops, so every version of the program
reaches the same verifier state (its session, nonce, cache and issued-token
tables grow with every op and are never evicted); --seconds only caps it.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import platform
import resource
import statistics
import traceback
from collections import Counter
from dataclasses import dataclass
from time import perf_counter, process_time

import ccxtrust
import cryptography
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from ccxtrust import crypto, harness, protocol, tee, tpm, verifier
from ccxtrust.errors import AttestationRejected

from tracer import BOUNDARY_NAMES, SpanRecorder

WORKLOADS = ("onboard", "attest", "hostile")
DIRECTIONS = ("tpm-tee", "tee-tpm")
HOSTILE_KINDS = ("bad-sig", "relay", "rebind", "replay", "forged-session")

_O = verifier.CompositeOutcome
# None: any rejection is right (no fixed outcome for a forged session yet)
EXPECTED_OUTCOME = {
    "bad-sig": _O.OUTER_SIGNATURE_INVALID,
    "relay": _O.IDENTITY_MISMATCH,
    "rebind": _O.NONCE_MISMATCH,
    "replay": _O.SESSION_REPLAY,
    "forged-session": None,
}
REPORTED_OUTCOMES = (_O.OK, _O.OUTER_SIGNATURE_INVALID, _O.IDENTITY_MISMATCH,
                     _O.NONCE_MISMATCH, _O.SESSION_REPLAY)

# The tails (latency_p95_ms, reject_p95_ms) go into the run record only:
# their run-to-run spread is wider than a third of the largest bound the
# benchmark may set.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("appraise_ms", "ms"),
    ("audit_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_MAX_REPS = 2000
# what probe() takes on a quiet 2-vCPU Xeon (Sapphire Rapids) KVM guest
# with Python 3.11 and cryptography 48; timings are scaled to this speed
REFERENCE_PROBE_S = 250e-6
# probes on each side of a build or an audit, which take up to seconds
LONG_CALL_PROBES = 10
# hostile kinds whose rejection scans the registered signer keys
SCAN_KINDS = ("bad-sig", "relay")


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for boundary in BOUNDARY_NAMES:
        names.append((f"{boundary}.calls", "calls/op"))
        names.append((f"{boundary}.self_us", "us/op"))
    names.append(("verifier.verify_composite.sig_verifies", "verifies/call"))
    names.extend((f"verifier.outcome.{o.value}", "count")
                 for o in REPORTED_OUTCOMES)
    names.append(("protocol.trace_events", "events/op"))
    names.append(("tracing_overhead", "ratio"))
    return names


@dataclass(frozen=True)
class Sizes:
    fleet: int = 200                 # onboard nodes per fleet (one trace)
    fleets: int = 5                  # onboard fleets per run
    attest_nodes: int = 16
    attest_ops: int = 8000           # attest ops per run
    attest_audit_every: int = 64     # ops between audits of the setup trace
    hostile_nodes: int = 250
    hostile_cycles: int = 100        # cycles of 2 * len(HOSTILE_KINDS) ops
    hostile_audit_every: int = 5     # cycles between audits
    traced_attest_ops: int = 400
    traced_hostile_cycles: int = 20
    setup_min_reps: int = 3
    setup_min_seconds: float = 2.0
    audit_min_reps: int = 5
    warmup_ops: int = 16


FULL = Sizes()


@dataclass(frozen=True)
class OpSample:
    """One op; the times are as measured, scale brings them to the
    reference speed."""
    unit: int
    scale: float                # REFERENCE_PROBE_S / the probes around it
    wall: float
    cpu: float
    latency_ms: float | None    # honest ops that succeeded
    appraise_ms: float | None   # the op's verify_composite call
    kind: str                   # "honest" or the hostile kind


_PROBE_KEY = ec.derive_private_key(0x5EED, ec.SECP256R1())
_PROBE_PUBLIC = _PROBE_KEY.public_key()
_PROBE_MESSAGE = b"perfbench probe"
_PROBE_SIGNATURE = _PROBE_KEY.sign(_PROBE_MESSAGE, ec.ECDSA(hashes.SHA256()))


def probe() -> float:
    """Seconds a fixed mix of the kinds of work ccxtrust does takes now:
    one P-256 signature check in OpenSSL, then building and reading a
    small dict in the interpreter. It allocates nothing the cyclic garbage
    collector tracks, so it never starts a collection."""
    start = perf_counter()
    _PROBE_PUBLIC.verify(_PROBE_SIGNATURE, _PROBE_MESSAGE,
                         ec.ECDSA(hashes.SHA256()))
    table = {i: str(i) * 3 for i in range(400)}
    sum(len(table[i]) for i in range(0, 400, 3))
    return perf_counter() - start


class SpeedGauge:
    """Scales a timed call to the reference speed by the median of the
    probes taken just before and just after it; when off, the scale is 1."""

    def __init__(self) -> None:
        self.on = False
        self.probes: list[float] = []
        self._before: list[float] = []

    def start(self, probes: int = 1) -> None:
        if self.on:
            self._before = [probe() for _ in range(probes)]

    def scale(self, probes: int = 1) -> float:
        if not self.on:
            return 1.0
        after = [probe() for _ in range(probes)]
        self.probes.extend(after)
        return REFERENCE_PROBE_S / statistics.median(self._before + after)

    def time(self, call, *args, probes: int = LONG_CALL_PROBES):
        """Run call(*args) between probes; returns its result, its time as
        measured and its scale."""
        self.start(probes)
        start = perf_counter()
        result = call(*args)
        elapsed = perf_counter() - start
        return result, elapsed, self.scale(probes)


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class AppraisalTimer:
    """Times VerifierService.verify_composite calls in untraced runs."""

    def __init__(self) -> None:
        self.last: float | None = None
        self._original = None

    def install(self) -> None:
        original = self._original = verifier.VerifierService.verify_composite
        timer = self

        def timed(svc, *args, **kwargs):
            start = perf_counter()
            try:
                return original(svc, *args, **kwargs)
            finally:
                timer.last = perf_counter() - start

        verifier.VerifierService.verify_composite = timed

    def uninstall(self) -> None:
        verifier.VerifierService.verify_composite = self._original


def _relay_evidence(signer: protocol.NodeActor, nonce: bytes) -> bytes:
    """A tpm-tee composite quote signer makes for someone else's nonce, as
    the relay variant of harness.attack_splice_matrix builds it."""
    report = tee.guest_report(signer.vcek, signer.chip_id, signer.tcb,
                              signer.tcb_version,
                              crypto.sha256(nonce) + bytes(32))
    return tpm.cc_quote(signer.state, signer.pcr_selection, nonce,
                        signer.aik_handle, report.to_bytes()).to_bytes()


def _corrupt_outer_signature(evidence: bytes, direction: str) -> bytes:
    """Flip one bit in the last byte of the outer DER signature; the
    encoding stays well-formed, the signature stops verifying."""
    outer = (tpm.CompositeQuote if direction == "tpm-tee"
             else tee.TeeReport).from_bytes(evidence)
    sig = outer.signature
    return dataclasses.replace(
        outer, signature=sig[:-1] + bytes([sig[-1] ^ 0x01])).to_bytes()


class Run:
    """One benchmark run of one workload: drives ops, tallies results."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 sizes: Sizes = FULL) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.ops = 0
        self.failed = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.samples: list[OpSample] = []
        self.gauge = SpeedGauge()
        self._scale = 1.0
        # (seconds as measured, scale) per check_theorems call and build
        self.audit_s: list[tuple[float, float]] = []
        self.setup_s: list[tuple[float, float]] = []
        self.outcomes: Counter = Counter()
        self.kind_outcomes: Counter = Counter()
        self.trace_events = 0
        self.problems: list[str] = []
        self.verdict_lines: list[str] = []
        self.record: dict = {}
        self.peak_rss_mb = float("nan")
        self.timer: AppraisalTimer | None = None
        self.recorder: SpanRecorder | None = None
        self.spans: SpanRecorder | None = None
        self._honest_index = 0
        self._hostile_index = 0
        self._first_token = None

    def correct(self) -> bool:
        return not self.problems

    def problem(self, text: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(text)

    # -- one op --------------------------------------------------------------

    def _begin(self) -> tuple[float, float]:
        self.gauge.start()
        if self.timer is not None:
            self.timer.last = None
        if self.recorder is not None:
            self.recorder.current_op = self.ops
            self.recorder.active = True
        return perf_counter(), process_time()

    def _end(self, t0: float, c0: float) -> tuple[float, float]:
        wall = perf_counter() - t0
        cpu = process_time() - c0
        if self.recorder is not None:
            self.recorder.active = False
        self._scale = self.gauge.scale()
        self.wall += wall
        self.cpu += cpu
        self.ops += 1
        return wall, cpu

    def _sample(self, wall: float, cpu: float, *, latency: bool,
                appraise: bool, kind: str = "honest") -> None:
        timed = self.timer.last if self.timer is not None else None
        self.samples.append(OpSample(
            (self.ops - 1) // self.unit_ops(), self._scale, wall, cpu,
            wall * 1e3 if latency else None,
            timed * 1e3 if appraise and timed is not None else None, kind))

    def unit_ops(self) -> int:
        return 2 * len(HOSTILE_KINDS) if self.workload == "hostile" else 2

    def honest(self, cluster, index: int, direction: str, trace, *,
               enroll: bool = False, capture=None) -> None:
        """One composite attestation plus token validation; with enroll,
        the node is enrolled first, inside the same op."""
        svc = cluster.verifier_svc
        error = None
        t0, c0 = self._begin()
        try:
            actor = (harness.add_node(cluster, index) if enroll
                     else cluster.actor(index))
            mark = len(trace.events)
            token = protocol.run_attest_composite(
                actor, svc, cluster.channels, trace,
                policy_id=cluster.policy_id, direction=direction,
                evidence_mutator=capture)
            claims = svc.validate_token(token)
        except AttestationRejected as exc:
            error = f"rejected: {exc.cause.value}"
            self.outcomes[exc.cause.value] += 1
        except Exception:   # noqa: BLE001 - the op loop tallies, never dies
            error = traceback.format_exc(limit=3)
        wall, cpu = self._end(t0, c0)
        node_id = harness.node_name(index)
        if error is not None:
            self._sample(wall, cpu, latency=False, appraise=False)
            self.failed += 1
            self.problem(f"honest op on {node_id} ({direction}) failed: {error}")
            return
        self._sample(wall, cpu, latency=True, appraise=True)
        self.outcomes[_O.OK.value] += 1
        if self._first_token is None:
            self._first_token = token
        self.trace_events += len(trace.events) - mark
        sends = protocol.ProtocolTrace()
        sends.events = trace.events[mark:]
        payload = claims["payload"] if isinstance(claims, dict) else None
        if payload is None:
            bad = f"token rejected at validation: {claims}"
        elif payload["platform"]["node"] != node_id:
            bad = f"token names node {payload['platform']['node']!r}"
        elif payload["type"] != direction:
            bad = f"token type {payload['type']!r}"
        elif sends.verifier_visible_sends() != 3:
            bad = f"{sends.verifier_visible_sends()} verifier-visible sends"
        else:
            return
        self.failed += 1
        self.problem(f"honest op on {node_id} ({direction}): {bad}")

    def hostile(self, cluster, kind: str, victim_index: int,
                accepted_envelope) -> None:
        """Build one hostile submission against the victim's sessions, then
        time the verifier's verdict on it."""
        svc = cluster.verifier_svc
        policy = svc.get_policy(cluster.policy_id)
        victim = cluster.actor(victim_index)
        direction = DIRECTIONS[(self._hostile_index // len(HOSTILE_KINDS)) % 2]
        self._hostile_index += 1
        if kind in ("replay", "forged-session"):
            if accepted_envelope is None:
                self.failed += 1
                self.ops += 1
                self.problem(f"{kind}: no accepted envelope to resubmit")
                return
            envelope = accepted_envelope
            request = svc.session(envelope.session_id)
            if kind == "forged-session":
                request = dataclasses.replace(request, completed=False)
        elif kind == "relay":
            # the middle node of the fleet: every relay costs the signer
            # scan about half the registered keys
            middle = len(cluster.actors) // 2
            other = middle if victim_index != middle else middle + 1
            request = svc.new_request(cluster.policy_id, victim.node_id)
            envelope = protocol.CompositeReportEnvelope(
                "tpm-tee", victim.node_id, request.session_id,
                _relay_evidence(cluster.actor(other), request.nonce))
        else:
            request, envelope = harness._honest_envelope(cluster, victim,
                                                         direction)
            if kind == "bad-sig":
                envelope = dataclasses.replace(
                    envelope, evidence=_corrupt_outer_signature(
                        envelope.evidence, direction))
            else:   # rebind: the evidence re-bound to a fresh session
                request = svc.new_request(cluster.policy_id, victim.node_id)
                envelope = dataclasses.replace(
                    envelope, session_id=request.session_id)
        error = None
        t0, c0 = self._begin()
        try:
            outcome, _verified = svc.verify_composite(envelope, request, policy)
        except Exception:   # noqa: BLE001 - the op loop tallies, never dies
            error = traceback.format_exc(limit=3)
        wall, cpu = self._end(t0, c0)
        self._sample(wall, cpu, latency=False, appraise=error is None,
                     kind=kind)
        if error is not None:
            self.failed += 1
            self.problem(f"{kind} raised instead of rejecting: {error}")
            return
        self.outcomes[outcome.value] += 1
        self.kind_outcomes[f"{kind}:{outcome.value}"] += 1
        expected = EXPECTED_OUTCOME[kind]
        if outcome is _O.OK:
            self.failed += 1     # an accepted hostile op is a failed op
        elif expected is not None and outcome is not expected:
            self.problem(f"{kind} rejected as {outcome.value}, "
                         f"expected {expected.value}")

    # -- op sequences --------------------------------------------------------

    def attest_ops(self, cluster, count: int) -> None:
        n = len(cluster.actors)
        for _ in range(count):
            i = self._honest_index
            self._honest_index += 1
            self.honest(cluster, i % n, DIRECTIONS[(i + i // n) % 2],
                        protocol.ProtocolTrace())

    def hostile_cycles(self, cluster, count: int) -> None:
        n = len(cluster.actors)
        for _ in range(count):
            for kind in HOSTILE_KINDS:
                i = self._honest_index
                self._honest_index += 1
                captured: list = []

                def capture(envelope, sink=captured):
                    sink.append(envelope)
                    return envelope

                failed_before = self.failed
                self.honest(cluster, i % n, DIRECTIONS[(i + i // n) % 2],
                            protocol.ProtocolTrace(), capture=capture)
                accepted = (captured[0] if captured
                            and self.failed == failed_before else None)
                self.hostile(cluster, kind, i % n, accepted)

    def onboard_nodes(self, cluster, first: int, count: int) -> None:
        for index in range(first, first + count):
            self.honest(cluster, index, DIRECTIONS[index % 2], cluster.trace,
                        enroll=True)

    def unit_sums(self, field: str, scaled: bool) -> list[float]:
        """Per whole unit of ops, the sum of one of their times."""
        units: dict[int, list[OpSample]] = {}
        for op in self.samples:
            units.setdefault(op.unit, []).append(op)
        return [sum(getattr(op, field) * (op.scale if scaled else 1.0)
                    for op in ops)
                for ops in units.values() if len(ops) == self.unit_ops()]

    # -- audits --------------------------------------------------------------

    def audit(self, trace, *, reps: int = 1):
        """Check the three trust properties; every rep is one audit_s sample."""
        for _ in range(reps):
            if self.recorder is None:
                verdicts, elapsed, scale = self.gauge.time(
                    protocol.check_theorems, trace)
                self.audit_s.append((elapsed, scale))
                continue
            # traced: no probes inside the check_theorems span
            self.recorder.current_op = self.ops
            self.recorder.active = True
            verdicts = protocol.check_theorems(trace)
            self.recorder.active = False
        for verdict in verdicts.values():
            if not verdict.ok:
                self.problem(f"audit: {verdict.line()}")
        return verdicts

    def record_trace(self, prefix: str, trace, verdicts) -> None:
        self.verdict_lines = [v.line() for v in verdicts.values()]
        self.record[f"{prefix}_trace_events"] = len(trace.events)
        self.record[f"{prefix}_trace_digest"] = trace.digest().hex()

    def onboard_fleet(self, cluster, *, audits: int, first: bool) -> None:
        """Enroll and attest a whole fleet into its one trace, then audit
        it. Fleet 0 is the seed's fleet; its digests go into the record."""
        self.onboard_nodes(cluster, 0, self.sizes.fleet)
        if audits:
            verdicts = self.audit(cluster.trace, reps=audits)
            if first:
                self.record_trace("onboard", cluster.trace, verdicts)
        if first and self._first_token is not None:
            self.record["onboard_first_token_digest"] = crypto.sha256(
                self._first_token.compact().encode()).hex()

    # -- setup ---------------------------------------------------------------

    def setup(self, reps: bool):
        """Build the workload's cluster from the seed; with reps, build it
        several times and keep the scaled timings (setup_s is their median)."""
        nodes = {"onboard": 0, "attest": self.sizes.attest_nodes,
                 "hostile": self.sizes.hostile_nodes}[self.workload]
        spent = 0.0
        while True:
            cluster = None
            gc.collect()
            # onboard's build enrolls no node and takes about a millisecond
            cluster, elapsed, scale = self.gauge.time(
                harness.build_cluster, self.seed, nodes,
                probes=LONG_CALL_PROBES if nodes else 1)
            self.setup_s.append((elapsed, scale))
            spent += elapsed
            built = len(self.setup_s)
            if not reps or built >= SETUP_MAX_REPS or (
                    built >= self.sizes.setup_min_reps
                    and spent >= self.sizes.setup_min_seconds):
                return cluster

    def fleet_seed(self, k: int):
        return self.seed if k == 0 else f"{self.seed}/fleet{k}".encode()

    def warmup(self, cluster) -> None:
        """Run a few ops on a scratch run whose numbers are thrown away."""
        scratch = Run(self.workload, self.seed, 0.0, self.sizes)
        if self.workload == "onboard":
            scratch.onboard_nodes(
                harness.build_cluster(f"{self.seed}/warmup".encode(), 0), 0, 2)
        elif self.workload == "attest":
            scratch.attest_ops(cluster, self.sizes.warmup_ops)
        else:
            scratch.hostile_cycles(cluster, 1)

    # -- the two kinds of run ------------------------------------------------

    def measure(self) -> dict:
        """Untraced run: end-to-end metrics."""
        self.gauge.on = True
        cluster = self.setup(reps=True)
        self.warmup(cluster)
        self.timer = AppraisalTimer()
        self.timer.install()
        try:
            gc.collect()
            start = perf_counter()
            self.record["complete"] = self._fixed_ops(cluster,
                                                      start + self.seconds)
            self.record["measured_s"] = perf_counter() - start
            # read at the fixed op count, before the audit top-up
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            self.timer.uninstall()
            self.timer = None
        # top up the audit samples: onboard on fleet 0's trace, attest and
        # hostile on the trace their setup cluster built
        verdicts = self.audit(
            cluster.trace,
            reps=max(1, self.sizes.audit_min_reps - len(self.audit_s)))
        if self.workload != "onboard":
            self.record_trace("setup", cluster.trace, verdicts)
        return self.end_to_end()

    def _fixed_ops(self, cluster, deadline: float) -> bool:
        """Run the workload's fixed number of ops in blocks, with an audit
        between blocks; stop early, after a whole block, at the deadline.
        Returns whether every op ran."""
        if self.workload == "onboard":
            blocks = self.sizes.fleets
        elif self.workload == "attest":
            blocks = math.ceil(self.sizes.attest_ops
                               / self.sizes.attest_audit_every)
        else:
            blocks = math.ceil(self.sizes.hostile_cycles
                               / self.sizes.hostile_audit_every)
        for k in range(blocks):
            if k and perf_counter() >= deadline:
                return False
            if self.workload == "onboard":
                fleet = cluster if k == 0 else harness.build_cluster(
                    self.fleet_seed(k), 0)
                self.onboard_fleet(fleet, audits=2, first=k == 0)
                continue
            if self.workload == "attest":
                self.attest_ops(cluster, self.sizes.attest_audit_every)
            else:
                self.hostile_cycles(cluster, self.sizes.hostile_audit_every)
            self.audit(cluster.trace)
        return True

    def _appraise(self, scaled: bool) -> list[float]:
        """appraise_ms samples: each honest verify_composite call on onboard
        and attest; on hostile, per unit, the mean of its SCAN_KINDS
        rejections, the submissions whose cost grows with the fleet."""
        def ms(op):
            return op.appraise_ms * (op.scale if scaled else 1.0)
        if self.workload != "hostile":
            return [ms(op) for op in self.samples if op.appraise_ms is not None]
        units: dict[int, list[float]] = {}
        for op in self.samples:
            if op.kind in SCAN_KINDS and op.appraise_ms is not None:
                units.setdefault(op.unit, []).append(ms(op))
        return [statistics.fmean(times) for times in units.values()]

    def timings(self, scaled: bool) -> dict:
        """The timing metrics, scaled to the reference speed or as measured."""
        def k(scale):
            return scale if scaled else 1.0
        honest = [op.latency_ms * k(op.scale) for op in self.samples
                  if op.latency_ms is not None]
        appraise = self._appraise(scaled)
        wall = self.unit_sums("wall", scaled)
        cpu = self.unit_sums("cpu", scaled)
        nan = float("nan")
        return {
            "setup_s": statistics.median(t * k(x) for t, x in self.setup_s),
            "throughput_ops_s": (self.unit_ops() / statistics.median(wall)
                                 if wall else nan),
            "latency_p50_ms": statistics.median(honest) if honest else nan,
            "latency_p95_ms": _percentile(honest, 95) if honest else nan,
            "cpu_ms_per_op": (statistics.median(cpu) * 1e3 / self.unit_ops()
                              if cpu else nan),
            "appraise_ms": statistics.median(appraise) if appraise else nan,
            "audit_s": statistics.median(t * k(x) for t, x in self.audit_s),
        }

    def end_to_end(self) -> dict:
        self.record["honest_samples"] = sum(
            op.latency_ms is not None for op in self.samples)
        self.record["units"] = len(self.unit_sums("wall", False))
        self.record["probe_us_median"] = statistics.median(
            self.gauge.probes) * 1e6
        hostile_ms = [op.appraise_ms * op.scale for op in self.samples
                      if op.kind != "honest" and op.appraise_ms is not None]
        if hostile_ms:
            self.record["reject_p95_ms"] = _percentile(hostile_ms, 95)
        metrics = self.timings(scaled=True)
        self.record["latency_p95_ms"] = metrics.pop("latency_p95_ms")
        for name, value in self.timings(scaled=False).items():
            self.record[f"unscaled_{name}"] = value
        metrics["peak_rss_mb"] = self.peak_rss_mb
        return metrics

    def _block(self, traced: bool) -> float:
        """Build the seed's cluster afresh, warm it up and run the fixed-size
        block of a traced run on it; returns its mean scaled time per op.
        Both blocks of a traced run start from the same verifier state."""
        self.gauge.on = True
        cluster = self.setup(reps=False)
        self.warmup(cluster)
        gc.collect()
        if traced:
            self.recorder.install(ccxtrust)
        if self.workload == "onboard":
            self.onboard_fleet(cluster, audits=int(traced), first=traced)
        elif self.workload == "attest":
            self.attest_ops(cluster, self.sizes.traced_attest_ops)
        else:
            self.hostile_cycles(cluster, self.sizes.traced_hostile_cycles)
        return statistics.fmean(op.wall * op.scale for op in self.samples)

    def traced(self, spans_path=None) -> dict:
        """Traced run: per-layer metrics from a fixed block of ops, plus
        the overhead against an untraced block of the same size."""
        recorder = SpanRecorder()
        try:
            plain = Run(self.workload, self.seed, 0.0, self.sizes)
            plain_per_op = plain._block(traced=False)
            self.recorder = recorder
            per_op = self._block(traced=True)
        finally:
            recorder.uninstall()
            self.recorder = None
        self.spans = recorder
        ops = self.ops
        if spans_path is not None:
            recorder.write_csv(spans_path)
        self.record["traced_ops"] = ops
        self.record["spans"] = len(recorder)
        metrics = layer_metrics(recorder, ops)
        metrics["protocol.trace_events"] = self.trace_events / ops
        for outcome in REPORTED_OUTCOMES:
            metrics[f"verifier.outcome.{outcome.value}"] = \
                self.outcomes.get(outcome.value, 0)
        metrics["tracing_overhead"] = per_op / plain_per_op
        return metrics


def layer_metrics(recorder: SpanRecorder, ops: int) -> dict:
    """Per-layer calls and self time per op, and the signer-scan ratio."""
    totals = recorder.totals()
    metrics = {}
    for boundary in BOUNDARY_NAMES:
        calls, self_ns = totals.get(boundary, (0, 0))
        metrics[f"{boundary}.calls"] = calls / ops
        metrics[f"{boundary}.self_us"] = self_ns / 1e3 / ops
    per_call = recorder.count_under("crypto.verify", "verifier.verify_composite")
    metrics["verifier.verify_composite.sig_verifies"] = (
        sum(per_call.values()) / len(per_call) if per_call else 0.0)
    return metrics


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "ccxtrust": ccxtrust.__version__,
    }
