"""Three-stage measurement chain feeding platform PCRs.

Stage 1 measures host firmware and boot components into PCR 0-3.
Stage 2 verifies signed image manifests before launch, extends their
digests into PCR 4-7, and produces the guest launch digest. Stage 3
compares runtime workloads against an allow-list, extending matches into
PCR 8-11 and reporting deviations without extending them.

Every extension appends to an ordered event log that can be replayed
against a PCR bank to detect tampering or truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import crypto, tee, tpm
from .encoding import RAW, STR, Spec
from .errors import (
    DecodeError,
    InvalidLength,
    LogGap,
    StageOrderViolation,
    UntrustedImage,
)

STAGE_HOST = 1
STAGE_LAUNCH = 2
STAGE_RUNTIME = 3

_STAGE_PCR_BASE = {STAGE_HOST: 0, STAGE_LAUNCH: 4, STAGE_RUNTIME: 8}
_PCRS_PER_STAGE = 4

HOST_PCRS = (0, 1, 2, 3)
LAUNCH_PCRS = (4, 5, 6, 7)
RUNTIME_PCRS = (8, 9, 10, 11)
ALL_STAGE_PCRS = HOST_PCRS + LAUNCH_PCRS + RUNTIME_PCRS


@dataclass(frozen=True)
class MeasurementEvent:
    """One log entry: a named digest extended into a specific PCR."""

    seq: int
    stage: int
    pcr_index: int
    name: str
    digest: bytes
    signer: str = "-"

    def line(self) -> str:
        return (f"{self.seq} {self.stage} {self.pcr_index} {self.name} "
                f"{self.digest.hex()} {self.signer}")

    @classmethod
    def from_line(cls, line: str) -> "MeasurementEvent":
        parts = line.split()
        if len(parts) != 6:
            raise DecodeError(f"measurement log line needs 6 columns: {line!r}")
        try:
            seq, stage, pcr_index = (int(part) for part in parts[:3])
            digest = bytes.fromhex(parts[4])
        except ValueError:
            raise DecodeError(f"bad measurement log line: {line!r}") from None
        if len(digest) != crypto.DIGEST_LEN:
            raise DecodeError(f"measurement digest must be "
                              f"{crypto.DIGEST_LEN} bytes: {line!r}")
        event = cls(seq=seq, stage=stage, pcr_index=pcr_index, name=parts[3],
                    digest=digest, signer=parts[5])
        if event.line() != line:
            raise DecodeError(f"measurement log line is not canonical: {line!r}")
        return event


# ---------------------------------------------------------------------------
# image manifests (stage 2 inputs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageManifest(crypto.Signed):
    """Publisher-signed statement binding an image id to its digest."""

    image_id: str
    content_digest: bytes
    signature: bytes

    SPEC = Spec((1, "image_id", STR), (2, "content_digest", RAW),
                (3, "signature", RAW))


def sign_manifest(publisher: crypto.SigningKeyPair, image_id: str,
                  content: bytes) -> ImageManifest:
    return ImageManifest.signed(publisher, image_id=image_id,
                                content_digest=crypto.sha256(content))


class RuntimeOutcome(Enum):
    CLEAN = "clean"
    DEVIATIONS = "deviations"


# ---------------------------------------------------------------------------
# the epoch
# ---------------------------------------------------------------------------

@dataclass
class MeasurementEpoch:
    """One boot epoch of a platform, bound to its TPM's PCR bank.

    Stages must run in order exactly once; each produces events and
    PCR extensions, and stage 2 additionally yields the launch digest
    used for TEE guest reports.
    """

    state: tpm.TpmState
    publisher_pub: bytes | crypto.PublicKey
    events: list[MeasurementEvent] = field(default_factory=list)
    _next_seq: int = 0
    _stage_done: set[int] = field(default_factory=set)
    launch_measurement: bytes = b""

    def _require_stage(self, stage: int) -> None:
        if stage in self._stage_done:
            raise StageOrderViolation(f"stage {stage} already ran this epoch")
        for earlier in range(STAGE_HOST, stage):
            if earlier not in self._stage_done:
                raise StageOrderViolation(
                    f"stage {stage} requires stage {earlier} first")

    def _extend(self, stage: int, slot: int, name: str, digest: bytes,
                signer: str = "-") -> MeasurementEvent:
        if len(digest) != crypto.DIGEST_LEN:
            raise InvalidLength("measurement digests are 32 bytes")
        pcr_index = _STAGE_PCR_BASE[stage] + slot % _PCRS_PER_STAGE
        tpm.pcr_extend(self.state, pcr_index, digest)
        event = MeasurementEvent(self._next_seq, stage, pcr_index, name,
                                 digest, signer)
        self._next_seq += 1
        self.events.append(event)
        return event

    def run_host_stage(self, components: list[tuple[str, bytes]]) -> list[MeasurementEvent]:
        """Measure host firmware and boot chain into PCR 0-3."""
        self._require_stage(STAGE_HOST)
        produced = [
            self._extend(STAGE_HOST, slot, name, crypto.sha256(content))
            for slot, (name, content) in enumerate(components)
        ]
        self._stage_done.add(STAGE_HOST)
        return produced

    def run_launch_stage(self, manifests: list[tuple[ImageManifest, bytes]],
                         tcb: tee.TeeTcb) -> bytes:
        """Verify image manifests, extend PCR 4-7, return the launch digest.

        A manifest whose signature fails, or whose digest does not match
        the presented content, refuses the boot before anything from the
        batch is extended.
        """
        self._require_stage(STAGE_LAUNCH)
        for manifest, content in manifests:
            if not manifest.verify(self.publisher_pub):
                raise UntrustedImage(
                    f"manifest for {manifest.image_id!r} has a bad signature")
            if crypto.sha256(content) != manifest.content_digest:
                raise UntrustedImage(
                    f"content does not match manifest for {manifest.image_id!r}")
        for slot, (manifest, _content) in enumerate(manifests):
            self._extend(STAGE_LAUNCH, slot, manifest.image_id,
                         manifest.content_digest, signer="publisher")
        self.launch_measurement = tee.launch_measure(tcb)
        self._extend(STAGE_LAUNCH, len(manifests), "launch-digest",
                     self.launch_measurement)
        self._stage_done.add(STAGE_LAUNCH)
        return self.launch_measurement

    def run_runtime_stage(self, workloads: list[tuple[str, bytes]],
                          allow_list: dict[str, bytes]
                          ) -> tuple[RuntimeOutcome, list[str]]:
        """Compare workloads against the allow-list; extend matches into
        PCR 8-11, report deviations without extending them."""
        self._require_stage(STAGE_RUNTIME)
        deviations = []
        slot = 0
        for name, content in workloads:
            digest = crypto.sha256(content)
            expected = allow_list.get(name)
            if expected is not None and digest == expected:
                self._extend(STAGE_RUNTIME, slot, name, digest)
                slot += 1
            else:
                deviations.append(name)
        self._stage_done.add(STAGE_RUNTIME)
        outcome = RuntimeOutcome.DEVIATIONS if deviations else RuntimeOutcome.CLEAN
        return outcome, deviations

    # -- log handling ---------------------------------------------------------

    def log_lines(self) -> list[str]:
        return [event.line() for event in self.events]


def replay_log(events: list[MeasurementEvent]) -> dict[int, bytes]:
    """Recompute PCR values from an event log.

    Validates sequence contiguity and stage monotonicity, then folds each
    digest into its PCR the way the hardware would. The result can be
    compared against live pcr_read output to detect divergence.
    """
    registers = {index: bytes(crypto.DIGEST_LEN) for index in ALL_STAGE_PCRS}
    last_stage = STAGE_HOST
    for position, event in enumerate(events):
        if event.seq != position:
            raise LogGap(f"expected seq {position}, log has {event.seq}")
        if event.stage < last_stage:
            raise StageOrderViolation(
                f"stage {event.stage} event after stage {last_stage}")
        last_stage = event.stage
        if event.pcr_index not in registers:
            raise LogGap(f"event extends unexpected PCR {event.pcr_index}")
        old = registers[event.pcr_index]
        registers[event.pcr_index] = crypto.sha256(old + event.digest)
    return registers


def verify_log_against_bank(events: list[MeasurementEvent],
                            state: tpm.TpmState) -> bool:
    """True when replaying the log reproduces the live PCR bank."""
    try:
        replayed = replay_log(events)
    except (LogGap, StageOrderViolation):
        return False
    return all(tpm.pcr_read(state, index) == value
               for index, value in replayed.items())
