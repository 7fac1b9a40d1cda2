"""Owner certificate authority.

The platform owner's trust anchor: it validates vendor-rooted identities
(the TEE chip endorsement chain and the TPM manufacturer's EK cert), runs
the credential-activation challenge that proves joint EK+AIK possession,
issues owner certificates, provisions each node's MasterSecret, and keeps
the registry and revocation list that the verifier consults.

The registry is single-writer: every mutation happens under one lock and
appends a line to one append-only record log. A node record keeps each
fact once: its chip key is its VCEK certificate's subject, and its status
is read off its revoked flag and the certificates it holds. It lists
every certificate serial issued to it, so revoke() covers them all, and
a revoked node is issued no further certificate. register_node checks
the vendor chain, then the boot report by the verifier's appraise_layers,
and names the first check that fails. snapshot() captures the registry
for periodic checkpointing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum

from . import crypto, tee, tpm, verifier
from .errors import (
    BaselineRejected,
    ChainInvalid,
    ChallengeFailed,
    NodeRevoked,
    NodeUnknown,
    NotInitialized,
    SessionInvalid,
)

CHALLENGE_TTL = 120.0   # seconds a credential challenge stays answerable


class NodeStatus(Enum):
    TEE_REGISTERED = "tee-registered"
    AIK_CERTIFIED = "aik-certified"
    ACTIVE = "active"
    REVOKED = "revoked"


@dataclass
class NodeRecord:
    node_id: str
    vcek_cert: crypto.Certificate | None = None
    aik_cert: crypto.Certificate | None = None
    identity_cert: crypto.Certificate | None = None
    baseline: verifier.PolicyBaseline | None = None   # its reference values
    revoked: bool = False
    serials: list[int] = field(default_factory=list)

    @property
    def status(self) -> NodeStatus:
        if self.revoked:
            return NodeStatus.REVOKED
        if self.identity_cert is not None:
            return NodeStatus.ACTIVE
        if self.aik_cert is not None:
            return NodeStatus.AIK_CERTIFIED
        return NodeStatus.TEE_REGISTERED


@dataclass
class ChallengeSession:
    node_id: str
    nonce: crypto.Secret = field(repr=False)
    aik_pub: bytes
    expires_at: float
    consumed: bool = False


def challenge_session_id(challenge: tpm.Credential) -> bytes:
    """Session handle both sides can compute from the challenge itself."""
    return crypto.sha256(b"aik-session:" + challenge.to_bytes())[:16]


class OwnerCa:
    def __init__(self, *, trusted_tee_root: crypto.PublicKey,
                 trusted_tpm_root: crypto.PublicKey,
                 clock, rng) -> None:
        self.clock = clock
        self.rng = rng
        self.key = crypto.SigningKeyPair.from_seed(
            "OCA", self.rng.random_bytes(32))
        self.trusted_tee_root = trusted_tee_root
        self.trusted_tpm_root = trusted_tpm_root
        self.nodes: dict[str, NodeRecord] = {}
        self._sessions: dict[bytes, ChallengeSession] = {}
        self._next_serial = 1
        self._records: list[str] = []
        self._lock = threading.RLock()

    # -- registration flow ---------------------------------------------------

    def register_tee(self, vendor_chain: tee.CertChain,
                     node_id: str) -> crypto.Certificate:
        """Verify the vendor chain and issue the owner's VCEK certificate
        for the chip key and chip id it endorses to node_id, creating its
        record on first use. Re-registering its own chip key renews the
        certificate under a new serial; another chip's key is refused,
        and a revoked node is refused before its chain is checked."""
        self._refuse_revoked(node_id)
        if not vendor_chain.verify(self.trusted_tee_root):
            raise ChainInvalid("vendor chain does not verify to the trusted root")
        vcek = vendor_chain.vcek
        with self._lock:
            record = self.nodes.get(node_id)
            if record is not None and record.vcek_cert.subject != vcek.subject:
                raise ChainInvalid(
                    f"node {node_id!r} is registered with another chip key")
            if record is None:
                record = NodeRecord(node_id)
            cert = self._issue(record, "VCEK", vcek.subject, vcek.hw_id)
            self.nodes[node_id] = record
            record.vcek_cert = cert
            self._record(f"register-tee {node_id} serial={cert.serial}")
        return cert

    def aik_challenge(self, aik_public_area: bytes, ek_cert: crypto.Certificate,
                      node_id: str) -> tpm.Credential:
        """Open a credential-activation challenge for an (EK, AIK) pair.

        The AIK arrives as its full public area; deriving both the key
        name and the certified point from the same bytes is what binds
        the credential to exactly the key that was presented. The EK cert
        must verify under the TPM manufacturer root, and the credential
        is sealed to the EK key it endorses, its subject. The returned
        challenge can only be answered by a TPM holding that EK with that
        AIK loaded; the session expires after CHALLENGE_TTL, and the
        first challenge opened after that drops it from the table. A
        revoked node is refused before any check or challenge work.
        """
        self._refuse_revoked(node_id)
        if not ek_cert.verify(self.trusted_tpm_root):
            raise ChainInvalid("EK certificate does not verify under the TPM vendor root")
        aik_blob = tpm.parse_public_area(aik_public_area)
        with self._lock:
            if node_id not in self.nodes:
                raise NodeUnknown(f"node {node_id!r} has no TEE registration")
            self._sweep_challenges(self.clock.now())
            nonce = crypto.Secret(self.rng.random_bytes(32))
            challenge = tpm.make_credential(nonce, aik_blob.name,
                                            ek_cert.subject, self.rng)
            sid = challenge_session_id(challenge)
            self._sessions[sid] = ChallengeSession(
                node_id=node_id, nonce=nonce, aik_pub=aik_blob.public,
                expires_at=self.clock.now() + CHALLENGE_TTL)
            self._record(f"aik-challenge {node_id} session={sid.hex()}")
        return challenge

    def _sweep_challenges(self, now: float) -> None:
        """Drop the challenges past their TTL, wiping their nonces. Every
        challenge has the same TTL, so insertion order is expiry order and
        the sweep stops at the first live one."""
        expired = []
        for sid, session in self._sessions.items():
            if now <= session.expires_at:
                break
            expired.append(sid)
        for sid in expired:
            self._sessions.pop(sid).nonce.wipe()

    def aik_answer(self, session_id: bytes, answer: crypto.Secret) -> crypto.Certificate:
        """Close a challenge. The session is one-shot: a wrong answer
        burns it, and its nonce is wiped; until the TTL sweep drops it,
        another answer reads as already consumed."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise SessionInvalid("unknown challenge session")
            if session.consumed:
                raise SessionInvalid("challenge session already consumed")
            session.consumed = True
            matched = session.nonce == answer
            session.nonce.wipe()
            if self.clock.now() > session.expires_at:
                raise SessionInvalid("challenge session expired")
            if not matched:
                self._record(f"aik-answer {session.node_id} result=failed")
                raise ChallengeFailed("activation answer does not match")
            record = self.nodes[session.node_id]
            cert = self._issue(record, "AIK", session.aik_pub)
            record.aik_cert = cert
            self._record(f"aik-answer {session.node_id} serial={cert.serial}")
        return cert

    def set_trust_baseline(self, node_id: str, reference: verifier.PolicyBaseline) -> None:
        """The reference values node_id's boot report is appraised against.
        A revoked node is refused, and its baseline stays as it was."""
        with self._lock:
            self._refuse_revoked(node_id)
            record = self._node(node_id)
            record.baseline = reference
            self._record(f"set-baseline {node_id}")

    def register_node(self, node_id: str, tee_report: tee.TeeReport,
                      vendor_chain: tee.CertChain,
                      identity_pub: bytes) -> tuple[crypto.Certificate, crypto.Secret]:
        """Final onboarding step: check the boot report, then issue the
        node identity certificate and its MasterSecret. A node registers
        once: an active node is refused before any check. The vendor
        chain must verify and endorse the node's registered chip key; then
        appraise_layers appraises the report as a "tee" layer with nonce
        sha256(identity_pub), under the node's VCEK certificate and against
        its baseline. BaselineRejected names the first check that fails."""
        with self._lock:
            record = self._node(node_id)
            if record.status is NodeStatus.ACTIVE:
                raise BaselineRejected(f"node {node_id!r} is already registered")
            if record.aik_cert is None:
                raise NotInitialized("identity flows incomplete for this node")
            if record.baseline is None:
                raise NotInitialized("no trust baseline configured for this node")
            rejected = "registration evidence rejected: "
            if not vendor_chain.verify(self.trusted_tee_root):
                raise BaselineRejected(rejected + "chain-invalid")
            vcek = record.vcek_cert
            if vendor_chain.vcek.subject != vcek.subject:
                raise BaselineRejected("evidence signed by an unregistered chip key")
            outcome, _ = verifier.appraise_layers(
                "tee", tee_report.to_bytes(), crypto.sha256(identity_pub),
                verifier.NodeKeys(vcek.hw_id, None, vcek.subject),
                record.baseline)
            if outcome is not verifier.CompositeOutcome.OK:
                raise BaselineRejected(rejected + outcome.value)
            identity_cert = self._issue(record, "IDENTITY", identity_pub)
            master_secret = crypto.Secret(self.rng.random_bytes(32))
            record.identity_cert = identity_cert
            self._record(f"register-node {node_id} serial={identity_cert.serial}")
        return identity_cert, master_secret

    # -- lifecycle -----------------------------------------------------------

    def revoke(self, node_id: str, reason: str) -> None:
        """Revoke a node and every certificate issued to it. Idempotent."""
        with self._lock:
            record = self._node(node_id)
            if not record.revoked:
                record.revoked = True
                self._record(f"revoke {node_id} reason={reason}")

    def is_revoked(self, node_id: str) -> bool:
        with self._lock:
            record = self.nodes.get(node_id)
            return record is not None and record.revoked

    def revocation_list(self) -> tuple[int, frozenset[int], frozenset[str]]:
        """(version, revoked cert serials, revoked node ids); the version
        counts the revoked nodes."""
        with self._lock:
            revoked = [r for r in self.nodes.values() if r.revoked]
            return (len(revoked),
                    frozenset(s for r in revoked for s in r.serials),
                    frozenset(r.node_id for r in revoked))

    # -- registry plumbing ---------------------------------------------------

    def _node(self, node_id: str) -> NodeRecord:
        record = self.nodes.get(node_id)
        if record is None:
            raise NodeUnknown(f"no record for node {node_id!r}")
        return record

    def _refuse_revoked(self, node_id: str) -> None:
        """Refuse a revoked node before any work for it. _issue stays the
        guard that holds under the lock."""
        if self.is_revoked(node_id):
            raise NodeRevoked(f"node {node_id!r} is revoked")

    def _issue(self, record: NodeRecord, role: str, subject_pub: bytes,
               hw_id: bytes = b"") -> crypto.Certificate:
        """Issue a certificate to a node under the next serial. A revoked
        node gets none: its serials are only ever revoked ones."""
        if record.revoked:
            raise NodeRevoked(f"node {record.node_id!r} is revoked")
        serial = self._next_serial
        self._next_serial += 1
        record.serials.append(serial)
        return crypto.issue_certificate(self.key, role, serial, subject_pub,
                                        hw_id)

    def _record(self, line: str) -> None:
        self._records.append(f"{len(self._records)} {self.clock.now():.3f} {line}")

    @property
    def record_log(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._records)

    def snapshot(self) -> str:
        """Registry checkpoint: one line per node plus the revocation set."""
        with self._lock:
            version, serials, _nodes = self.revocation_list()
            lines = [f"snapshot records={len(self._records)} "
                     f"revocation-version={version}"]
            for node_id in sorted(self.nodes):
                r = self.nodes[node_id]
                lines.append(
                    f"node {node_id} status={r.status.value} "
                    f"vcek={r.vcek_cert.serial} "
                    f"aik={r.aik_cert.serial if r.aik_cert else '-'} "
                    f"identity={r.identity_cert.serial if r.identity_cert else '-'} "
                    f"provisioned={int(r.identity_cert is not None)}")
            lines.append("revoked-serials " +
                         (",".join(str(s) for s in sorted(serials)) or "-"))
            return "\n".join(lines) + "\n"
