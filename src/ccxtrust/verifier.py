"""Attestation verifier service.

Owns the relying-party side of every flow: it opens attestation sessions
with fresh nonces, appraises evidence, and turns accepted evidence into
signed bearer tokens: each token is a signed record on the TLV codec,
and its compact text is the base64url of its bytes. Serials come
from a counter that never goes back, so no issuance log is kept: a serial
was issued exactly when it is a positive int below the counter.
Validation re-checks structure, signature, expiry, the serial and
revocation. The owner CA is the trust anchor: the verifier keeps its
public key, asks it about revocation, and takes each node's AIK, VCEK
and chip id from the owner CA certificates for those roles.

One appraisal pipeline, appraise_layers, serves the four layouts of
LAYOUTS (the composite tpm-tee and tee-tpm embeddings and the tee and tpm
legs) and the owner CA's registration, which appraises a boot report as
a tee layer. The provers in protocol and harness build their evidence
from the same table and report_data_for binding rule. First failure
wins. verify_composite checks session replay, session-id binding and
revocation of the session's node, then runs the pipeline: that every
layer decodes and the innermost embeds nothing; the nonce binding of
every layer; the TEE report's chip id against the node's certified one.
Then each layer's signature, outer first, under that node's keys only,
so evidence from another platform costs no signature check and any
submission at most one per layer, whatever the fleet size. Last, the
signed claims against a PolicyBaseline's reference values: the launch
measurement, PCR composite and TCB floor of the layers present. Then
verify_composite claims the session atomically.

verify_composite is the only constructor of VerifiedReport, and
issue_token accepts nothing else, so a token can never be minted from
unverified evidence by construction; it mints at most one token per
session, and none once the session's node is revoked.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from . import crypto, tee, tpm
from .encoding import (RAW, STR, U16, U64, Spec, b64url_decode,
                       b64url_encode, raw)
from .errors import (
    CcxError,
    ChainInvalid,
    DecodeError,
    NodeRevoked,
    PolicyUnknown,
)

if TYPE_CHECKING:   # pragma: no cover - import only for annotations
    from .protocol import CompositeReportEnvelope

TOKEN_FORMAT_VERSION = 1
TOKEN_LIFETIME = 3600.0   # seconds an issued token stays valid
SESSION_TTL = 300.0   # seconds an attestation session stays open

# The evidence layers of each envelope direction, outermost first; each
# layer embeds the next one verbatim. Provers build from this table too.
LAYOUTS: dict[str, tuple[str, ...]] = {
    "tpm-tee": ("tpm", "tee"),
    "tee-tpm": ("tee", "tpm"),
    "tee": ("tee",),
    "tpm": ("tpm",),
}


class CompositeOutcome(Enum):
    OK = "ok"
    MALFORMED = "malformed"
    OUTER_SIGNATURE_INVALID = "outer-signature-invalid"
    INNER_SIGNATURE_INVALID = "inner-signature-invalid"
    NONCE_MISMATCH = "nonce-mismatch"
    SESSION_REPLAY = "session-replay"
    IDENTITY_MISMATCH = "identity-mismatch"
    MEASUREMENT_MISMATCH = "measurement-mismatch"
    PCR_MISMATCH = "pcr-mismatch"
    TCB_REJECTED = "tcb-rejected"
    NODE_REVOKED = "node-revoked"


class TokenRejection(Enum):
    MALFORMED = "malformed"
    BAD_SIGNATURE = "bad-signature"
    EXPIRED = "expired"
    REVOKED_NODE = "revoked-node"


@dataclass(frozen=True)
class PolicyBaseline:
    """The reference values appraisal compares a platform's claims with:
    the launch measurement, the PCR selection and its composite, and the
    TCB floor. Every LAYOUTS direction is appraised under them."""

    policy_id: str
    expected_measurement: bytes
    pcr_selection: tuple[int, ...]
    expected_pcr_composite: bytes
    min_tcb_version: int


@dataclass(slots=True)
class AttestationRequest:
    """One attestation session: a nonce bound to (verifier, node). The
    verifier keeps each until SESSION_TTL, so an entry has no __dict__."""

    session_id: bytes
    node_id: str
    policy_id: str
    nonce: bytes
    created_at: float
    completed: bool = False
    token_minted: bool = False


@dataclass(frozen=True)
class NodeKeys:
    """The keys and chip id a node's evidence is appraised under."""

    chip_id: bytes
    aik: crypto.PublicKey | None   # None for the owner CA's registration
    vcek: crypto.PublicKey | bytes


@dataclass(frozen=True)
class VerifiedReport:
    """Proof that verify_composite accepted some evidence. Only this
    module creates instances; issue_token refuses anything else."""

    session_id: bytes
    node_id: str
    token_type: str
    evidence: bytes
    tcb_version: int
    pcr_selection: tuple[int, ...]


# ---------------------------------------------------------------------------
# token format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttestationToken(crypto.Signed):
    """The verifier's signed attestation result: its claims as the fields
    of one signed record. The compact text a relying party holds is the
    base64url of the record's bytes."""

    alg: str
    version: int
    key_id: bytes
    issued_at: int
    expires_at: int
    token_type: str
    serial: int
    evidence: bytes
    node: str
    tcb: int
    pcr_selection: tuple[int, ...]
    policy: str
    signature: bytes

    SPEC = Spec((1, "alg", STR), (2, "version", U16), (3, "key_id", raw(8)),
                (4, "issued_at", U64), (5, "expires_at", U64),
                (6, "token_type", STR), (7, "serial", U64),
                (8, "evidence", RAW), (9, "node", STR), (10, "tcb", U64),
                (11, "pcr_selection", tpm.PCR_BITMAP), (12, "policy", STR),
                (13, "signature", RAW))

    def compact(self) -> str:
        return b64url_encode(self.to_bytes())

    @classmethod
    def parse(cls, text: str) -> "AttestationToken":
        """The token whose compact form is text; any other text, such as
        padded base64url or text with characters the decoder skips,
        raises DecodeError."""
        token = cls.from_bytes(b64url_decode(text))
        if token.compact() != text:
            raise DecodeError("token text is not canonical")
        return token


def _claims(token: AttestationToken) -> dict:
    """The token's fields as validate_token returns them: a header and a
    payload, keyed and typed as in a JSON token."""
    return {"header": {"alg": token.alg, "ver": token.version,
                       "kid": token.key_id.hex(), "iat": token.issued_at,
                       "exp": token.expires_at},
            "payload": {"type": token.token_type, "serial": token.serial,
                        "report": b64url_encode(token.evidence),
                        "platform": {"node": token.node, "tcb": token.tcb,
                                     "pcr_sel": list(token.pcr_selection)},
                        "policy": token.policy}}


def validate_token(token: "AttestationToken | str",
                   verifier_pub: bytes | crypto.PublicKey,
                   now: float) -> dict | TokenRejection:
    """The token check a relying party can run with only the verifier's
    public key: structure (a token or text that decodes to one, the
    algorithm and version this verifier writes), signature, then expiry.

    Returns the claims on success, or the first applicable rejection.
    The serial and revocation are the issuer's own checks, made by
    VerifierService.validate_token after this one.
    """
    if isinstance(token, str):
        try:
            token = AttestationToken.parse(token)
        except DecodeError:
            return TokenRejection.MALFORMED
    elif not isinstance(token, AttestationToken):
        return TokenRejection.MALFORMED
    if token.alg != "ES256" or token.version != TOKEN_FORMAT_VERSION:
        return TokenRejection.MALFORMED
    if not token.verify(verifier_pub):
        return TokenRejection.BAD_SIGNATURE
    if now > token.expires_at:
        return TokenRejection.EXPIRED
    return _claims(token)


# ---------------------------------------------------------------------------
# evidence layouts
# ---------------------------------------------------------------------------

_DECODERS = {"tpm": tpm.CompositeQuote.from_bytes,
             "tee": tee.TeeReport.from_bytes}


def report_data_for(direction: str, nonce: bytes, embedded: bytes) -> bytes:
    """The report_data a TEE report carrying the embedded bytes must hold
    for a session nonce: the only statement of the binding rule."""
    if direction == "tpm-tee":
        return crypto.sha256(nonce) + bytes(32)
    if direction == "tee-tpm":
        return nonce + crypto.sha256(embedded)
    return nonce + bytes(32)


def appraise_layers(direction: str, evidence: bytes, nonce: bytes,
                    node: NodeKeys, reference: PolicyBaseline
                    ) -> tuple[CompositeOutcome, dict | None]:
    """Appraise evidence of a LAYOUTS direction bound to nonce, signed by
    node, against reference, in the module docstring's order: OK and the
    layers by kind, or the first failing outcome and None."""
    layers, raw = {}, evidence
    for kind in LAYOUTS.get(direction, ()):
        try:
            layers[kind] = layer = _DECODERS[kind](raw)
        except CcxError:
            return CompositeOutcome.MALFORMED, None
        raw = layer.embedded_evidence
    if raw or not layers:
        return CompositeOutcome.MALFORMED, None
    quote_obj, report = layers.get("tpm"), layers.get("tee")
    if quote_obj is not None and quote_obj.qualifying_data != nonce:
        return CompositeOutcome.NONCE_MISMATCH, None
    if report is not None and report.report_data != report_data_for(
            direction, nonce, report.embedded_evidence):
        return CompositeOutcome.NONCE_MISMATCH, None
    if report is not None and report.chip_id != node.chip_id:
        return CompositeOutcome.IDENTITY_MISMATCH, None
    for position, kind in enumerate(layers):
        public = node.aik if kind == "tpm" else node.vcek
        if not layers[kind].verify(public):
            return (CompositeOutcome.OUTER_SIGNATURE_INVALID if position == 0
                    else CompositeOutcome.INNER_SIGNATURE_INVALID), None
    if report is not None and (
            report.launch_measurement != reference.expected_measurement):
        return CompositeOutcome.MEASUREMENT_MISMATCH, None
    if quote_obj is not None and (
            quote_obj.pcr_selection != reference.pcr_selection
            or quote_obj.pcr_digest != reference.expected_pcr_composite):
        return CompositeOutcome.PCR_MISMATCH, None
    if report is not None and report.tcb_version < reference.min_tcb_version:
        return CompositeOutcome.TCB_REJECTED, None
    return CompositeOutcome.OK, layers


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------

class VerifierService:
    def __init__(self, *, owner_ca, clock, rng) -> None:
        self.clock = clock
        self.rng = rng
        self.key = crypto.SigningKeyPair.from_seed(
            "VERIFIER", self.rng.random_bytes(32))
        self._key_id = crypto.sha256(self.key.public_bytes)[:8]
        self._ca_pub = owner_ca.key.public
        self._is_revoked = owner_ca.is_revoked
        self.policies: dict[str, PolicyBaseline] = {}
        self._nodes: dict[str, NodeKeys] = {}
        # sessions in the order they were opened, until SESSION_TTL passes
        self._sessions: dict[bytes, AttestationRequest] = {}
        self._nonces_seen: set[bytes] = set()   # the nonces of _sessions
        self._nonces_issued = 0
        # every serial below this one was issued, and no other
        self._next_serial = 1
        self._lock = threading.RLock()

    def add_policy(self, policy: PolicyBaseline) -> None:
        with self._lock:
            self.policies[policy.policy_id] = policy

    def get_policy(self, policy_id: str) -> PolicyBaseline:
        policy = self.policies.get(policy_id)
        if policy is None:
            raise PolicyUnknown(f"unknown policy {policy_id!r}")
        return policy

    def register_node_keys(self, node_id: str, aik_cert: crypto.Certificate,
                           vcek_cert: crypto.Certificate) -> None:
        """Record a node's keys from its owner CA certificates, and its
        chip id from the VCEK one's hw_id. A certificate of the wrong role
        or not signed by the owner CA raises ChainInvalid, a certified key
        that is no curve point InvalidPoint, and nothing is recorded."""
        for cert, role in ((aik_cert, "AIK"), (vcek_cert, "VCEK")):
            if cert.role != role or not cert.verify(self._ca_pub):
                raise ChainInvalid(
                    f"{role} certificate does not verify under the owner CA")
        keys = NodeKeys(vcek_cert.hw_id, crypto.PublicKey(aik_cert.subject),
                        crypto.PublicKey(vcek_cert.subject))
        with self._lock:
            self._nodes[node_id] = keys

    def node_keys(self, node_id: str) -> NodeKeys | None:
        with self._lock:
            return self._nodes.get(node_id)

    def session(self, session_id: bytes) -> AttestationRequest | None:
        """The verifier's entry for a session, completed or not; one it
        never opened, or one past SESSION_TTL, reads as unknown."""
        now = self.clock.now()
        with self._lock:
            entry = self._sessions.get(session_id)
        if entry is None or now > entry.created_at + SESSION_TTL:
            return None
        return entry

    @property
    def nonces_issued(self) -> int:
        """Nonces issued since the service started, expired or not."""
        with self._lock:
            return self._nonces_issued

    # -- sessions -------------------------------------------------------------

    def new_request(self, policy_id: str, node_id: str) -> AttestationRequest:
        """Open a session with a fresh nonce. Refused for revoked nodes.
        First drops the sessions past SESSION_TTL, with their nonces."""
        self.get_policy(policy_id)
        if self._is_revoked(node_id):
            raise NodeRevoked(f"node {node_id!r} is revoked")
        with self._lock:
            now = self.clock.now()
            self._sweep_sessions(now)
            nonce = self.rng.random_bytes(32)
            if nonce in self._nonces_seen:
                raise CcxError("nonce collision; generator is unhealthy")
            self._nonces_seen.add(nonce)
            self._nonces_issued += 1
            session_id = crypto.sha256(nonce + b"verifier" + node_id.encode())
            request = AttestationRequest(
                session_id=session_id, node_id=node_id, policy_id=policy_id,
                nonce=nonce, created_at=now)
            self._sessions[session_id] = request
        return request

    def _sweep_sessions(self, now: float) -> None:
        """Drop the sessions past SESSION_TTL and their nonces. Every
        session has the same TTL, so insertion order is expiry order and
        the sweep stops at the first live one."""
        expired = []
        for sid, session in self._sessions.items():
            if now <= session.created_at + SESSION_TTL:
                break
            expired.append(sid)
        for sid in expired:
            self._nonces_seen.discard(self._sessions.pop(sid).nonce)

    # -- evidence appraisal ----------------------------------------------------

    def verify_composite(self, envelope: "CompositeReportEnvelope",
                         session: AttestationRequest,
                         policy: PolicyBaseline
                         ) -> tuple[CompositeOutcome, VerifiedReport | None]:
        """Appraise evidence of any layout in LAYOUTS, in the pipeline
        order the module docstring gives; first failure wins.

        The claims are appraised under the policy of the verifier's own
        entry for session.session_id; a session id it never opened, or
        one past SESSION_TTL, is MALFORMED. The policy argument is unread.
        Every other session field (completed, session_id, node_id, nonce)
        is read from the caller's session argument, and the claim at the
        end sets completed on that object. The protocol passes the entry
        new_request returned, so the two agree; a copy made with
        replace(request, completed=False) resubmits accepted evidence and
        reads OK, a known soundness gap.
        """
        entry = self.session(session.session_id)
        if entry is None:
            return CompositeOutcome.MALFORMED, None
        if session.completed:
            return CompositeOutcome.SESSION_REPLAY, None
        if envelope.session_id != session.session_id:
            return CompositeOutcome.NONCE_MISMATCH, None
        node = self.node_keys(session.node_id)
        if node is None:
            return CompositeOutcome.MALFORMED, None
        if self._is_revoked(session.node_id):
            return CompositeOutcome.NODE_REVOKED, None
        outcome, layers = appraise_layers(
            envelope.direction, envelope.evidence, session.nonce, node,
            self.policies[entry.policy_id])
        if layers is None:
            return outcome, None
        with self._lock:
            if session.completed:
                return CompositeOutcome.SESSION_REPLAY, None
            session.completed = True
        report, quote_obj = layers.get("tee"), layers.get("tpm")
        verified = VerifiedReport(
            session_id=session.session_id, node_id=session.node_id,
            token_type=envelope.direction, evidence=envelope.evidence,
            tcb_version=report.tcb_version if report else 0,
            pcr_selection=quote_obj.pcr_selection if quote_obj else ())
        return CompositeOutcome.OK, verified

    # -- tokens ----------------------------------------------------------------

    def issue_token(self, verified: VerifiedReport) -> AttestationToken:
        """Mint a bearer token for verified evidence, valid for
        TOKEN_LIFETIME and naming the policy of the verifier's own entry
        for its session.

        The VerifiedReport type gate is the soundness hook: there is no
        public constructor path that has not been through verification.
        A session yields at most one token: an unknown session (or one
        past SESSION_TTL) and a second mint raise ValueError, a node
        revoked since appraisal NodeRevoked, and a refused call does not
        use the session's token up. Revocation is checked under the lock,
        so a revoke that returned before the mint is seen.
        """
        if not isinstance(verified, VerifiedReport):
            raise TypeError("issue_token requires a VerifiedReport")
        now = self.clock.now()
        with self._lock:
            session = self.session(verified.session_id)
            if session is None or session.token_minted:
                raise ValueError("session is unknown or already has its token")
            if self._is_revoked(session.node_id):
                raise NodeRevoked(f"node {session.node_id!r} is revoked")
            session.token_minted = True
            serial = self._next_serial
            self._next_serial += 1
            return AttestationToken.signed(
                self.key, alg="ES256", version=TOKEN_FORMAT_VERSION,
                key_id=self._key_id,
                issued_at=int(now),
                expires_at=int(now + TOKEN_LIFETIME),
                token_type=verified.token_type, serial=serial,
                evidence=verified.evidence, node=verified.node_id,
                tcb=verified.tcb_version, pcr_selection=verified.pcr_selection,
                policy=session.policy_id)

    def validate_token(self, token: "AttestationToken | str",
                       now: float | None = None) -> dict | TokenRejection:
        """validate_token, then the issuer's own checks in this order: a
        serial it never issued reads BAD_SIGNATURE (a forgery), a revoked
        node REVOKED_NODE."""
        if now is None:
            now = self.clock.now()
        claims = validate_token(token, self.key.public, now)
        if isinstance(claims, TokenRejection):
            return claims
        serial = claims["payload"]["serial"]
        with self._lock:
            issued = 0 < serial < self._next_serial
        if not issued:
            return TokenRejection.BAD_SIGNATURE
        if self._is_revoked(claims["payload"]["platform"]["node"]):
            return TokenRejection.REVOKED_NODE
        return claims
