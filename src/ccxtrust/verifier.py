"""Attestation verifier service.

Owns the relying-party side of every flow: it opens attestation sessions
with fresh nonces, appraises evidence, and turns accepted evidence into
signed bearer tokens in a compact three-segment format. Serials come
from a counter that never goes back, so no issuance log is kept: a serial
was issued exactly when it is a positive int below the counter.
Validation re-checks structure, signature, expiry, the serial and
revocation. The owner CA is the trust anchor: the verifier keeps its
public key, asks it about revocation, and takes each node's AIK and VCEK
from the owner CA certificates for those roles.

One appraisal pipeline serves the four evidence layouts of LAYOUTS: the
composite tpm-tee and tee-tpm embeddings and the single-technology tee
and tpm legs. The provers in protocol and harness build their evidence
from the same table and the same report_data_for binding rule. The
pipeline checks, first failure wins. The checks that need no signature
come first: session replay and session-id binding; that every layer
decodes and the innermost embeds nothing; the nonce binding of every layer; the identity the evidence
claims, the TEE report's chip id against the session node's; and
revocation of the session's node. Then each layer's signature, outer
first, under the session node's keys only, so evidence from another
platform costs no signature check and any submission at most one per
layer, whatever the fleet size. The checks of signed claims come after
their signatures: the launch measurement, PCR composite and TCB floor
of the layers present. Last comes the atomic claim of the session.

verify_composite is the only constructor of VerifiedReport, and
issue_token accepts nothing else, so a token can never be minted from
unverified evidence by construction; it mints at most one token per
session, and none once the session's node is revoked.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from . import crypto, tee, tpm
from .encoding import b64url_decode, b64url_encode
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
DEFAULT_TOKEN_LIFETIME = 3600.0
SESSION_TTL = 300.0   # seconds an attestation session stays open


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
    """What a relying party demands from a platform."""

    policy_id: str
    expected_measurement: bytes
    pcr_selection: tuple[int, ...]
    expected_pcr_composite: bytes
    min_tcb_version: int
    allowed_types: tuple[str, ...] = ("tpm-tee", "tee-tpm", "tee", "tpm")
    token_lifetime: float = DEFAULT_TOKEN_LIFETIME


@dataclass
class AttestationRequest:
    """One attestation session: a nonce bound to (verifier, node)."""

    session_id: bytes
    node_id: str
    policy_id: str
    nonce: bytes
    pcr_selection: tuple[int, ...]
    created_at: float
    completed: bool = False
    token_minted: bool = False


@dataclass(frozen=True)
class NodeKeys:
    """Verifier-side identity material for one registered node."""

    chip_id: bytes
    aik: crypto.PublicKey
    vcek: crypto.PublicKey


@dataclass(frozen=True)
class VerifiedReport:
    """Proof that verify_composite accepted some evidence. Only this
    module creates instances; issue_token refuses anything else."""

    session_id: bytes
    node_id: str
    token_type: str
    evidence: bytes
    tcb_version: int
    measurement: bytes
    pcr_selection: tuple[int, ...]
    pcr_digest: bytes


# ---------------------------------------------------------------------------
# token format
# ---------------------------------------------------------------------------

_CANON_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canon_json(obj) -> bytes:
    return _CANON_JSON.encode(obj).encode()


def _signing_input(header: dict, payload: dict) -> bytes:
    return (b64url_encode(_canon_json(header)) + "."
            + b64url_encode(_canon_json(payload))).encode("ascii")


@dataclass(frozen=True)
class AttestationToken:
    """A signed token. Its signing input, the canonical JSON of header and
    payload in base64url, is computed once at construction; signed()
    builds a token from that one encoding and the signature over it."""

    header: dict
    payload: dict
    signature: bytes
    _signing_input: bytes = field(init=False, repr=False, compare=False)
    _compact: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._store(_signing_input(self.header, self.payload))

    def _store(self, signing_input: bytes) -> None:
        object.__setattr__(self, "_signing_input", signing_input)
        object.__setattr__(self, "_compact", signing_input.decode("ascii")
                           + "." + b64url_encode(self.signature))

    @classmethod
    def signed(cls, header: dict, payload: dict,
               key: crypto.SigningKeyPair) -> "AttestationToken":
        """The token key signs over header and payload, encoded once."""
        signing_input = _signing_input(header, payload)
        token = object.__new__(cls)
        object.__setattr__(token, "header", header)
        object.__setattr__(token, "payload", payload)
        object.__setattr__(token, "signature", key.sign(signing_input))
        token._store(signing_input)
        return token

    def signing_input(self) -> bytes:
        return self._signing_input

    def compact(self) -> str:
        return self._compact

    @classmethod
    def parse(cls, text: str) -> "AttestationToken":
        """The token whose compact form is text; any other text, such as
        re-spaced JSON or padded base64url, raises DecodeError."""
        parts = text.split(".")
        if len(parts) != 3:
            raise DecodeError("token must have three segments")
        try:
            header = json.loads(b64url_decode(parts[0]))
            payload = json.loads(b64url_decode(parts[1]))
        except (ValueError, DecodeError) as exc:
            raise DecodeError("token segments are not valid json") from exc
        if not isinstance(header, dict) or not isinstance(payload, dict):
            raise DecodeError("token segments must be objects")
        token = cls(header, payload, b64url_decode(parts[2]))
        if token.compact() != text:
            raise DecodeError("token text is not canonical")
        return token


_REQUIRED_HEADER = ("alg", "ver", "kid", "iat", "exp")
_REQUIRED_PAYLOAD = ("type", "serial", "report", "platform", "policy")


def _claims_well_typed(header: dict, payload: dict) -> bool:
    """The claims have the types issue_token writes (a bool is no int
    here), so no check on them can raise and no caller gets another."""
    platform = payload["platform"]
    return (type(header["ver"]) is int
            and type(header["iat"]) is int and type(header["exp"]) is int
            and type(payload["type"]) is str
            and type(payload["report"]) is str
            and type(payload["policy"]) is str
            and type(platform) is dict
            and type(platform.get("node")) is str
            and type(platform.get("tcb")) is int
            and type(platform.get("pcr_sel")) is list)


def validate_token(token: "AttestationToken | str",
                   verifier_pub: bytes | crypto.PublicKey,
                   now: float) -> dict | TokenRejection:
    """The token check a relying party can run with only the verifier's
    public key: structure (the claims present and well typed), signature,
    then expiry.

    Returns the claims on success, or the first applicable rejection.
    The serial and revocation are the issuer's own checks, made by
    VerifierService.validate_token after this one.
    """
    if isinstance(token, str):
        try:
            token = AttestationToken.parse(token)
        except DecodeError:
            return TokenRejection.MALFORMED
    if any(k not in token.header for k in _REQUIRED_HEADER):
        return TokenRejection.MALFORMED
    if any(k not in token.payload for k in _REQUIRED_PAYLOAD):
        return TokenRejection.MALFORMED
    if token.header["alg"] != "ES256" or token.header["ver"] != TOKEN_FORMAT_VERSION:
        return TokenRejection.MALFORMED
    if not _claims_well_typed(token.header, token.payload):
        return TokenRejection.MALFORMED
    if not crypto.verify(verifier_pub, token.signing_input(), token.signature):
        return TokenRejection.BAD_SIGNATURE
    if now > token.header["exp"]:
        return TokenRejection.EXPIRED
    return {"header": dict(token.header), "payload": dict(token.payload)}


# ---------------------------------------------------------------------------
# evidence layouts
# ---------------------------------------------------------------------------

# The evidence layers of each envelope direction, outermost first; each
# layer embeds the next one verbatim. Provers build from this table too.
LAYOUTS: dict[str, tuple[str, ...]] = {
    "tpm-tee": ("tpm", "tee"),
    "tee-tpm": ("tee", "tpm"),
    "tee": ("tee",),
    "tpm": ("tpm",),
}

_DECODERS = {"tpm": tpm.CompositeQuote.from_bytes,
             "tee": tee.TeeReport.from_bytes}


def _decode_layers(layout: tuple[str, ...], evidence: bytes) -> dict | None:
    """Every layer of the evidence keyed by kind, or None if any layer is
    missing or does not decode, or the innermost one embeds anything."""
    layers = {}
    raw = evidence
    for kind in layout:
        if not raw:
            return None
        try:
            layer = _DECODERS[kind](raw)
        except CcxError:
            return None
        layers[kind] = layer
        raw = layer.embedded_evidence
    return None if raw else layers


def report_data_for(direction: str, nonce: bytes, embedded: bytes) -> bytes:
    """The report_data a TEE report carrying the embedded bytes must hold
    for a session nonce: the only statement of the binding rule."""
    if direction == "tpm-tee":
        return crypto.sha256(nonce) + bytes(32)
    if direction == "tee-tpm":
        return nonce + crypto.sha256(embedded)
    return nonce + bytes(32)


def registration_report_data(identity_pub: bytes) -> bytes:
    """The report_data of the boot report that registers an identity key
    with the owner CA: the only statement of that binding rule."""
    return crypto.sha256(identity_pub) + bytes(32)


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------

class VerifierService:
    def __init__(self, *, owner_ca, clock, rng) -> None:
        self.clock = clock
        self.rng = rng
        self.key = crypto.SigningKeyPair.from_seed(
            "VERIFIER", self.rng.random_bytes(32))
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

    def register_node_keys(self, node_id: str, chip_id: bytes,
                           aik_cert: crypto.Certificate,
                           vcek_cert: crypto.Certificate) -> None:
        """Record a node's attestation keys, each taken from its owner CA
        certificate. A certificate of the wrong role or not signed by the
        owner CA raises ChainInvalid, a certified key that is no curve
        point InvalidPoint, and nothing is recorded."""
        for cert, role in ((aik_cert, "AIK"), (vcek_cert, "VCEK")):
            if cert.role != role or not cert.verify(self._ca_pub):
                raise ChainInvalid(
                    f"{role} certificate does not verify under the owner CA")
        keys = NodeKeys(chip_id, crypto.PublicKey(aik_cert.subject),
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
        policy = self.get_policy(policy_id)
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
                nonce=nonce, pcr_selection=policy.pcr_selection,
                created_at=now)
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
        policy = self.policies[entry.policy_id]
        if session.completed:
            return CompositeOutcome.SESSION_REPLAY, None
        if envelope.session_id != session.session_id:
            return CompositeOutcome.NONCE_MISMATCH, None
        node = self.node_keys(session.node_id)
        layout = LAYOUTS.get(envelope.direction)
        if node is None or layout is None:
            return CompositeOutcome.MALFORMED, None
        layers = _decode_layers(layout, envelope.evidence)
        if layers is None:
            return CompositeOutcome.MALFORMED, None
        quote_obj = layers.get("tpm")
        report = layers.get("tee")
        if quote_obj is not None and quote_obj.qualifying_data != session.nonce:
            return CompositeOutcome.NONCE_MISMATCH, None
        if report is not None and report.report_data != report_data_for(
                envelope.direction, session.nonce, report.embedded_evidence):
            return CompositeOutcome.NONCE_MISMATCH, None
        if report is not None and report.chip_id != node.chip_id:
            return CompositeOutcome.IDENTITY_MISMATCH, None
        if self._is_revoked(session.node_id):
            return CompositeOutcome.NODE_REVOKED, None
        for position, kind in enumerate(layout):
            public = node.aik if kind == "tpm" else node.vcek
            if not layers[kind].verify(public):
                return (CompositeOutcome.OUTER_SIGNATURE_INVALID if position == 0
                        else CompositeOutcome.INNER_SIGNATURE_INVALID), None
        if report is not None:
            if report.launch_measurement != policy.expected_measurement:
                return CompositeOutcome.MEASUREMENT_MISMATCH, None
        if quote_obj is not None and (
                quote_obj.pcr_selection != policy.pcr_selection
                or quote_obj.pcr_digest != policy.expected_pcr_composite):
            return CompositeOutcome.PCR_MISMATCH, None
        if report is not None and report.tcb_version < policy.min_tcb_version:
            return CompositeOutcome.TCB_REJECTED, None
        with self._lock:
            if session.completed:
                return CompositeOutcome.SESSION_REPLAY, None
            session.completed = True
        verified = VerifiedReport(
            session_id=session.session_id, node_id=session.node_id,
            token_type=envelope.direction, evidence=envelope.evidence,
            tcb_version=report.tcb_version if report else 0,
            measurement=report.launch_measurement if report else b"",
            pcr_selection=quote_obj.pcr_selection if quote_obj else (),
            pcr_digest=quote_obj.pcr_digest if quote_obj else b"")
        return CompositeOutcome.OK, verified

    # -- tokens ----------------------------------------------------------------

    def issue_token(self, verified: VerifiedReport) -> AttestationToken:
        """Mint a bearer token for verified evidence, under the policy of
        the verifier's own entry for its session.

        The VerifiedReport type gate is the soundness hook: there is no
        public constructor path that has not been through verification.
        A session yields at most one token; a refused call (unknown
        session or one past SESSION_TTL, second mint, node revoked since
        appraisal, token type the policy forbids) does not use it up.
        Revocation is checked under the lock, so a revoke that returned
        before the mint is seen.
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
            policy = self.get_policy(session.policy_id)
            if verified.token_type not in policy.allowed_types:
                raise ValueError(
                    f"policy forbids token type {verified.token_type!r}")
            session.token_minted = True
            serial = self._next_serial
            self._next_serial += 1
            header = {
                "alg": "ES256",
                "ver": TOKEN_FORMAT_VERSION,
                "kid": crypto.sha256(self.key.public_bytes)[:8].hex(),
                "iat": int(now),
                "exp": int(now + policy.token_lifetime),
            }
            payload = {
                "type": verified.token_type,
                "serial": serial,
                "report": b64url_encode(verified.evidence),
                "platform": {
                    "node": verified.node_id,
                    "tcb": verified.tcb_version,
                    "pcr_sel": list(verified.pcr_selection),
                },
                "policy": policy.policy_id,
            }
            return AttestationToken.signed(header, payload, self.key)

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
            issued = type(serial) is int and 0 < serial < self._next_serial
        if not issued:
            return TokenRejection.BAD_SIGNATURE
        if self._is_revoked(claims["payload"]["platform"]["node"]):
            return TokenRejection.REVOKED_NODE
        return claims
