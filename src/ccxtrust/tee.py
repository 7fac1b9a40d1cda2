"""Simulated confidential-VM TEE engine.

Models the attestation-relevant surface of an SEV-SNP style platform: a
vendor root of trust (ARK -> ASK -> VCEK certificate chain), a per-chip
endorsement key derived from the vendor secret and the TCB version, a
launch measurement over the guest TCB components, and signed guest
reports that can carry a nonce binding plus embedded foreign evidence.

No enclave isolation is simulated, only the evidence formats and their
verification rules: CertChain.verify checks the chain under the trusted
root, and a report's verify(vcek) its signature. The verifier's
appraise_layers compares the report's fields with what it expects, for
the verifier's appraisal and the owner CA's register_node alike.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from . import crypto
from .encoding import RAW, U16, U64, Record, Spec, nested, raw
from .errors import EvidenceTooLarge, InvalidLength

# the one limit on foreign evidence embedded in a guest report or a quote
MAX_EVIDENCE_SIZE = 4096
REPORT_DATA_LEN = 64
REPORT_VERSION = 1

CHIP_ID_LEN = 32


# ---------------------------------------------------------------------------
# guest TCB and launch measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TeeTcb:
    """Digests of the four measured guest components."""

    ovmf: bytes
    kernel: bytes
    initrd: bytes
    cmdline: bytes

    def __post_init__(self) -> None:
        for part in (self.ovmf, self.kernel, self.initrd, self.cmdline):
            if len(part) != crypto.DIGEST_LEN:
                raise InvalidLength("TCB component digests must be 32 bytes")


def launch_measure(tcb: TeeTcb) -> bytes:
    """Launch measurement: digest over the concatenated component digests."""
    return crypto.sha256(tcb.ovmf + tcb.kernel + tcb.initrd + tcb.cmdline)


# ---------------------------------------------------------------------------
# vendor root of trust and VCEK derivation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertChain(Record):
    """ARK (self-signed) -> ASK -> VCEK."""

    ark: crypto.Certificate
    ask: crypto.Certificate
    vcek: crypto.Certificate

    SPEC = Spec((1, "ark", nested(crypto.Certificate)),
                (2, "ask", nested(crypto.Certificate)),
                (3, "vcek", nested(crypto.Certificate)))

    def verify(self, root: crypto.PublicKey) -> bool:
        """The ARK must be the trusted root itself, so the ASK is checked
        under the root's key object; only the ASK's point is parsed."""
        return (
            self.ark.role == "ARK"
            and self.ark.subject == root.point
            and self.ark.verify(root)
            and self.ask.role == "ASK"
            and self.ask.verify(root)
            and self.vcek.role == "VCEK"
            and self.vcek.verify(self.ask.subject)
        )


class TeeVendor:
    """Simulated silicon vendor: holds the ARK/ASK and the device secret
    every chip endorsement key is derived from."""

    def __init__(self, seed: bytes) -> None:
        if len(seed) < 16:
            raise InvalidLength("vendor seed must be at least 16 bytes")
        self._ark = crypto.SigningKeyPair.from_seed(
            "ARK", crypto.kdf_counter(crypto.sha256(seed), "VENDOR-ARK"))
        self._ask = crypto.SigningKeyPair.from_seed(
            "ASK", crypto.kdf_counter(crypto.sha256(seed), "VENDOR-ASK"))
        self._device_secret = crypto.kdf_counter(crypto.sha256(seed), "VENDOR-DEVICE")
        self.ark_cert = crypto.issue_certificate(self._ark, "ARK", 1, self._ark.public_bytes)
        self.ask_cert = crypto.issue_certificate(self._ark, "ASK", 2, self._ask.public_bytes)

    @property
    def root_pub(self) -> crypto.PublicKey:
        return self._ark.public

    def derive_vcek(self, chip_id: bytes, tcb_version: int):
        """Chip endorsement key for (chip_id, tcb_version), and the chain
        whose VCEK certificate certifies it with chip_id as its hw_id.

        The derivation is a pure function of the vendor secret and both
        inputs, so the same chip at the same TCB level always gets the
        same key, and a TCB update rolls the key.
        """
        if len(chip_id) != CHIP_ID_LEN:
            raise InvalidLength("chip id must be 32 bytes")
        if tcb_version < 0:
            raise InvalidLength("tcb version must be non-negative")
        material = crypto.kdf_counter(
            self._device_secret, "VCEK", chip_id + struct.pack("<Q", tcb_version))
        vcek = crypto.SigningKeyPair.from_seed("VCEK", material)
        serial = struct.unpack(
            "<Q", crypto.sha256(b"vcek-serial:" + chip_id
                                + struct.pack("<Q", tcb_version))[:8])[0]
        cert = crypto.issue_certificate(self._ask, "VCEK", serial,
                                        vcek.public_bytes, chip_id)
        return vcek, CertChain(self.ark_cert, self.ask_cert, cert)


# ---------------------------------------------------------------------------
# guest reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TeeReport(crypto.Signed):
    """Signed guest attestation report.

    report_data is caller-controlled 64-byte binding space (nonce and
    evidence digest live there); embedded_evidence carries at most
    MAX_EVIDENCE_SIZE bytes of foreign evidence verbatim. The signature
    covers every field above it.
    """

    version: int
    chip_id: bytes
    tcb_version: int
    launch_measurement: bytes
    report_data: bytes
    embedded_evidence: bytes
    signature: bytes

    SPEC = Spec((1, "version", U16),
                (2, "chip_id", raw(CHIP_ID_LEN)),
                (3, "tcb_version", U64),
                (4, "launch_measurement", raw(crypto.DIGEST_LEN)),
                (5, "report_data", raw(REPORT_DATA_LEN)),
                (6, "embedded_evidence", raw(max_len=MAX_EVIDENCE_SIZE)),
                (7, "signature", RAW))


def guest_report(vcek: crypto.SigningKeyPair, chip_id: bytes, tcb: TeeTcb,
                 tcb_version: int, report_data: bytes,
                 embedded_evidence: bytes = b"") -> TeeReport:
    """Produce a signed guest report for the current launch state."""
    if len(report_data) != REPORT_DATA_LEN:
        raise InvalidLength(f"report_data must be exactly {REPORT_DATA_LEN} bytes")
    if len(embedded_evidence) > MAX_EVIDENCE_SIZE:
        raise EvidenceTooLarge(
            f"evidence is {len(embedded_evidence)} bytes, limit {MAX_EVIDENCE_SIZE}")
    if len(chip_id) != CHIP_ID_LEN:
        raise InvalidLength("chip id must be 32 bytes")
    return TeeReport.signed(
        vcek, version=REPORT_VERSION, chip_id=chip_id, tcb_version=tcb_version,
        launch_measurement=launch_measure(tcb), report_data=report_data,
        embedded_evidence=embedded_evidence)
