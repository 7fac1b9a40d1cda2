"""Collaborative attestation protocol: flows, wire format, and trace model.

Principals are the platform agent (one per node), its TEE engine
("<node>/tee") and TPM ("<node>/tpm"), the owner CA ("owner-ca"), and the
verifier ("verifier"). Every message crosses an AES-GCM channel keyed by
two-phase ECDH, and every step appends a structured event to a protocol
trace.

Attestation has one prover: build_evidence walks the verifier's LAYOUTS
table for any direction (the composite tpm-tee and tee-tpm embeddings,
the single-technology tee and tpm legs) and binds each layer with the
verifier's report_data_for rule, so prover and verifier read one layout.

The trace is the unit of analysis: trust-chain properties are stated
over event sequences and checked mechanically by check_theorems, so a
run either carries a complete justification for every credential that
changed hands or yields a concrete counterexample event.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from . import crypto, tee, tpm
from .encoding import RAW, STR, U16, Record, Spec, nested
from .errors import AttestationRejected, AuthFailure, DecodeError
from .owner_ca import challenge_session_id
from .precedence import ANY, DIGEST, NODE, PrecedenceTable, Step
from .verifier import (LAYOUTS, CompositeOutcome, VerifierService,
                       registration_report_data, report_data_for)

OCA_PRINCIPAL = "owner-ca"
VERIFIER_PRINCIPAL = "verifier"

EVENT_KINDS = frozenset(
    ("new", "send", "receive", "decrypt", "sign", "verify", "match"))

_OK_COLUMN = {"-": None, "0": False, "1": True}

MESSAGE_TYPES = {
    "vcek-info": 0x0101,
    "cert-vcek-info": 0x0102,
    "cert-tee-info": 0x0103,
    "key-info": 0x0104,
    "aik-challenge": 0x0105,
    "nonce-info": 0x0106,
    "cert-aik-info": 0x0107,
    "key-cert-info": 0x0108,
    "pek-cert-info": 0x0109,
    "register-request": 0x010A,
    "identity-cert-info": 0x010B,
    "attest-request": 0x0201,
    "guest-report-request": 0x0202,
    "tee-report": 0x0203,
    "quote-request": 0x0204,
    "tpm-report": 0x0205,
    "total-report": 0x0206,
    "token-info": 0x0207,
}


# ---------------------------------------------------------------------------
# trace model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One protocol step. contents carries "label:hex" pairs naming the
    values the step created, transferred, or exposed."""

    index: int
    principal: str
    kind: str
    peer: str = "-"
    digest: str = "-"
    tag: str = "-"
    ok: bool | None = None
    contents: tuple[str, ...] = ()

    def line(self) -> str:
        ok = "-" if self.ok is None else str(int(self.ok))
        contents = ",".join(self.contents) if self.contents else "-"
        return (f"{self.index} {self.principal} {self.kind} {self.peer} "
                f"{self.digest} {self.tag} {ok} {contents}")

    @classmethod
    def from_line(cls, line: str) -> "TraceEvent":
        parts = line.split()
        if len(parts) != 8:
            raise DecodeError(f"trace line needs 8 columns: {line!r}")
        index, principal, kind, peer, digest, tag, ok, contents = parts
        if kind not in EVENT_KINDS:
            raise DecodeError(f"unknown event kind {kind!r}")
        try:
            index = int(index)
        except ValueError:
            raise DecodeError(f"trace index must be an integer: {index!r}") from None
        if ok not in _OK_COLUMN:
            raise DecodeError(f"trace ok column must be -, 0 or 1: {ok!r}")
        event = cls(
            index=index, principal=principal, kind=kind, peer=peer,
            digest=digest, tag=tag, ok=_OK_COLUMN[ok],
            contents=() if contents == "-" else tuple(contents.split(",")))
        if event.line() != line:
            raise DecodeError(f"trace line is not canonical: {line!r}")
        return event

    def labeled(self, label: str) -> list[str]:
        """Hex digests carried under a given content label."""
        prefix = label + ":"
        return [c[len(prefix):] for c in self.contents if c.startswith(prefix)]


# emit fills a new event's slots through their descriptors, which skips
# the frozen __init__'s object.__setattr__ call per field
(_set_index, _set_principal, _set_kind, _set_peer, _set_digest, _set_tag,
 _set_ok, _set_contents) = (getattr(TraceEvent, name).__set__
                            for name in TraceEvent.__slots__)
_new_event = object.__new__


class ProtocolTrace:
    """Append-only event log for one or more protocol runs."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, principal: str, kind: str, *, peer: str = "-",
             digest: bytes | str = "-", tag: str = "-",
             ok: bool | None = None,
             contents: tuple[str, ...] = ()) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if isinstance(digest, bytes):
            digest = digest.hex() if digest else "-"
        events = self.events
        event = _new_event(TraceEvent)
        _set_index(event, len(events))
        _set_principal(event, principal)
        _set_kind(event, kind)
        _set_peer(event, peer)
        _set_digest(event, digest)
        _set_tag(event, tag)
        _set_ok(event, ok)
        _set_contents(event, tuple(contents))
        events.append(event)
        return event

    def extend_reindexed(self, events: list[TraceEvent]) -> None:
        """Append foreign events, renumbering them onto this trace."""
        for event in events:
            self.events.append(
                TraceEvent(len(self.events), event.principal, event.kind,
                           event.peer, event.digest, event.tag, event.ok,
                           event.contents))

    def lines(self) -> list[str]:
        return [event.line() for event in self.events]

    def text(self) -> str:
        return "\n".join(self.lines()) + ("\n" if self.events else "")

    def digest(self) -> bytes:
        return crypto.sha256(self.text().encode())

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.text())

    @classmethod
    def from_text(cls, text: str) -> "ProtocolTrace":
        """Parse text() output; any other text, such as blank lines, CRLF
        endings or a missing final newline, raises DecodeError, so a trace
        file and the trace read from it have the same digest."""
        trace = cls()
        for line in text.splitlines():
            trace.events.append(TraceEvent.from_line(line))
        for position, event in enumerate(trace.events):
            if event.index != position:
                raise DecodeError(
                    f"trace indices must be contiguous, got {event.index} "
                    f"at position {position}")
        if trace.text() != text:
            raise DecodeError("trace text is not canonical")
        return trace

    @classmethod
    def read(cls, path) -> "ProtocolTrace":
        # newline="" keeps line endings as written, for from_text to judge
        with open(path, encoding="ascii", newline="") as fh:
            return cls.from_text(fh.read())

    def verifier_visible_sends(self) -> int:
        """Protocol messages a network observer at the verifier sees."""
        return sum(1 for e in self.events if e.kind == "send"
                   and VERIFIER_PRINCIPAL in (e.principal, e.peer))


# ---------------------------------------------------------------------------
# wire format and channels
# ---------------------------------------------------------------------------

_FRAME = Spec((0x0010, "mtype", U16), (0x0011, "sender", STR),
              (0x0012, "receiver", STR), (0x0001, "session_id", RAW),
              (0x0002, "sealed", RAW))

_CERT = nested(crypto.Certificate)

# one body layout per message type, used by both ends of _transfer
_MESSAGE_BODIES = {
    "vcek-info": Spec((1, "vcek_pub", RAW), (2, "chain", nested(tee.CertChain))),
    "cert-vcek-info": Spec((1, "cert", _CERT)),
    "cert-tee-info": Spec((1, "cert", _CERT)),
    "key-info": Spec((1, "aik_area", RAW), (2, "ek_pub", RAW),
                     (3, "ek_cert", _CERT)),
    "aik-challenge": Spec((1, "credential", nested(tpm.Credential))),
    "nonce-info": Spec((1, "secret", RAW)),
    "cert-aik-info": Spec((1, "cert", _CERT)),
    "key-cert-info": Spec((1, "cert", _CERT), (2, "aik_area", RAW)),
    "pek-cert-info": Spec((1, "cert", _CERT)),
    "register-request": Spec((1, "report", nested(tee.TeeReport)),
                             (2, "chain", nested(tee.CertChain)),
                             (3, "identity_pub", RAW)),
    "identity-cert-info": Spec((1, "cert", _CERT), (2, "master_secret", RAW)),
    "attest-request": Spec((1, "session_id", RAW), (2, "nonce", RAW),
                           (3, "policy_id", STR),
                           (4, "selection", tpm.PCR_BITMAP),
                           (5, "direction", STR)),
    "guest-report-request": Spec((1, "report_data", RAW), (2, "embedded", RAW),
                                 (3, "session_id", RAW)),
    "tee-report": Spec((1, "report", nested(tee.TeeReport))),
    "quote-request": Spec((1, "selection", tpm.PCR_BITMAP),
                          (2, "qualifying_data", RAW), (3, "embedded", RAW),
                          (4, "session_id", RAW)),
    "tpm-report": Spec((1, "quote", nested(tpm.CompositeQuote))),
    # the evidence envelope of any direction
    "total-report": Spec((1, "report", RAW)),
    "token-info": Spec((1, "token", STR)),
}


def _wire_aad(mtype: int, sender: str, receiver: str, session_id: bytes) -> bytes:
    return (struct.pack("<H", mtype) + sender.encode() + b"|"
            + receiver.encode() + b"|" + session_id)


class ChannelTable:
    """Pairwise AEAD keys between principals, plus framing.

    A frame is sender|receiver|type|session in the clear (authenticated
    as associated data) with the body sealed under the pair's key. The
    table keeps the cipher of the last key it used, which serves the open
    of each sealed frame and the replies on the same pair; a cipher per
    pair would cost about 3 KB for every channel of every node.
    """

    def __init__(self, rng) -> None:
        self.rng = rng
        # a pair is keyed by its two names in sorted order
        self._keys: dict[tuple[str, str], bytes] = {}
        self._last: tuple[bytes, crypto.AESGCM] | None = None

    def set_key(self, a: str, b: str, key: bytes) -> None:
        if len(key) != crypto.AEAD_KEY_LEN:
            raise ValueError("channel keys are 32 bytes")
        self._keys[(a, b) if a < b else (b, a)] = key

    def key(self, a: str, b: str) -> bytes:
        try:
            return self._keys[(a, b) if a < b else (b, a)]
        except KeyError:
            raise AuthFailure(f"no channel between {a!r} and {b!r}") from None

    def _cipher(self, a: str, b: str) -> crypto.AESGCM:
        key = self.key(a, b)
        last = self._last
        if last is not None and last[0] is key:
            return last[1]
        cipher = crypto.aead(key)
        self._last = (key, cipher)
        return cipher

    def seal(self, mtype: int, sender: str, receiver: str,
             session_id: bytes, body: bytes) -> bytes:
        cipher = self._cipher(sender, receiver)
        aad = _wire_aad(mtype, sender, receiver, session_id)
        sealed = crypto.channel_seal(cipher, body, aad, self.rng)
        return _FRAME.encode({"mtype": mtype, "sender": sender,
                              "receiver": receiver, "session_id": session_id,
                              "sealed": sealed})

    def open(self, frame: bytes, expected_receiver: str) -> bytes:
        """The body of a frame addressed to expected_receiver, once its
        seal and clear header authenticate."""
        mtype, sender, receiver, session_id, sealed = _FRAME.unpack(frame)
        if receiver != expected_receiver:
            raise AuthFailure(f"frame addressed to {receiver!r}, "
                              f"not {expected_receiver!r}")
        aad = _wire_aad(mtype, sender, receiver, session_id)
        return crypto.channel_open(self._cipher(sender, receiver), sealed, aad)


def _transfer(trace: ProtocolTrace, channels: ChannelTable, sender: str,
              receiver: str, mtype_name: str, fields: dict, *,
              session_id: bytes = b"",
              contents: tuple[str, ...] = ()) -> dict:
    """Encode, seal, 'transmit', open and decode one message body under
    its type's spec; both endpoints trace one digest, as open authenticates
    the received body as the body sent. Returns the decoded fields."""
    spec = _MESSAGE_BODIES[mtype_name]
    body = spec.encode(fields)
    frame = channels.seal(MESSAGE_TYPES[mtype_name], sender, receiver,
                          session_id, body)
    digest = crypto.sha256(body).hex()
    trace.emit(sender, "send", peer=receiver, digest=digest,
               tag=mtype_name, contents=contents)
    received = channels.open(frame, receiver)
    trace.emit(receiver, "receive", peer=sender, digest=digest,
               tag=mtype_name, contents=contents)
    return spec.decode(received)


# ---------------------------------------------------------------------------
# platform actor and channel establishment
# ---------------------------------------------------------------------------

@dataclass
class NodeActor:
    """Everything one platform brings to the protocol."""

    node_id: str
    rng: object
    state: tpm.TpmState
    ek_handle: int
    srk_handle: int
    aik_handle: int
    aik_blob: tpm.KeyBlob
    vcek: crypto.SigningKeyPair
    vendor_chain: tee.CertChain
    chip_id: bytes
    tcb: tee.TeeTcb
    tcb_version: int
    launch_measurement: bytes
    pcr_selection: tuple[int, ...]
    identity: crypto.SigningKeyPair
    pek: crypto.SigningKeyPair
    vcek_cert: crypto.Certificate | None = None
    aik_cert: crypto.Certificate | None = None
    identity_cert: crypto.Certificate | None = None
    pek_cert: crypto.Certificate | None = None
    master_secret: crypto.Secret | None = None
    cvm_root_blob: tpm.KeyBlob | None = None

    @property
    def agent(self) -> str:
        return self.node_id

    @property
    def tee_name(self) -> str:
        return self.node_id + "/tee"

    @property
    def tpm_name(self) -> str:
        return self.node_id + "/tpm"


def establish_channels(actor: NodeActor, oca_key: crypto.SigningKeyPair,
                       verifier_key: crypto.SigningKeyPair,
                       channels: ChannelTable, rng) -> None:
    """Derive the pairwise channel keys a node needs.

    TPM-side channels run the device's ephemeral-counter exchange so the
    TPM never exposes a stored ephemeral scalar; the other channels use
    the same two-phase agreement in software. Both sides of each pair
    compute the identical key, so the simulation derives it once.
    """
    ek = tpm.loaded_keypair(actor.state, actor.ek_handle)

    def soft_pair(a: str, a_key: crypto.SigningKeyPair,
                  b: str, b_key: crypto.SigningKeyPair) -> None:
        a_eph = crypto.SigningKeyPair.generate(a_key.role, rng)
        b_eph = crypto.SigningKeyPair.generate(b_key.role, rng)
        shared = crypto.ecdh_two_phase(a_key, b_key.public,
                                       a_eph, b_eph.public)
        channels.set_key(a, b, shared)

    def tpm_pair(peer: str, peer_key: crypto.SigningKeyPair) -> None:
        eph_pub, counter = tpm.ec_ephemeral(actor.state)
        peer_eph = crypto.SigningKeyPair.generate(peer_key.role, rng)
        shared = tpm.zgen_2phase(actor.state, counter, ek,
                                 peer_key.public, peer_eph.public)
        channels.set_key(actor.tpm_name, peer, shared)

    # platform-internal and verifier-facing pairs
    soft_pair(actor.tee_name, actor.pek, actor.agent, actor.identity)
    soft_pair(actor.tee_name, actor.pek, VERIFIER_PRINCIPAL, verifier_key)
    soft_pair(actor.agent, actor.identity, VERIFIER_PRINCIPAL, verifier_key)
    tpm_pair(actor.tee_name, actor.pek)
    tpm_pair(actor.agent, actor.identity)
    tpm_pair(VERIFIER_PRINCIPAL, verifier_key)
    # enrollment pairs toward the owner CA
    soft_pair(actor.tee_name, actor.pek, OCA_PRINCIPAL, oca_key)
    soft_pair(actor.agent, actor.identity, OCA_PRINCIPAL, oca_key)
    tpm_pair(OCA_PRINCIPAL, oca_key)


# ---------------------------------------------------------------------------
# initialization flow
# ---------------------------------------------------------------------------

def _content(label: str, data: bytes) -> str:
    return f"{label}:{crypto.sha256(data).hex()}"


def _hand_off(trace: ProtocolTrace, channels: ChannelTable, holder: str,
              check: tuple[str, str, bytes], key: str,
              cert: crypto.Certificate, mtype_name: str, *,
              secret: bytes | None = None) -> dict:
    """The owner CA's successful check of a key, then its certificate for
    that key sent to the holder, which decrypts it. key is the key's
    content label as the holder's request carried it; the check and the
    sign both carry it, which binds the certificate to the evidence. The
    identity certificate brings the MasterSecret, secret, with it.
    Returns the fields the holder received."""
    A = OCA_PRINCIPAL
    kind, tag, evidence = check
    trace.emit(A, kind, digest=evidence, tag=tag, ok=True, contents=(key,))
    label, digest = f"cert-{cert.role.lower()}", cert.digest
    held = (f"{label}:{digest.hex()}",)
    trace.emit(A, "sign", digest=digest, tag=label, contents=held + (key,))
    fields = {"cert": cert}
    if secret is not None:
        fields["master_secret"] = secret
        commit = crypto.sha256(b"master-secret:" + secret)
        held += (f"master-secret:{commit.hex()}",)
    rx = _transfer(trace, channels, A, holder, mtype_name, fields,
                   contents=held)
    trace.emit(holder, "decrypt", digest=digest, tag=mtype_name,
               contents=held)
    return rx


def run_initialization(actor: NodeActor, oca, verifier_svc: VerifierService,
                       channels: ChannelTable, trace: ProtocolTrace) -> None:
    """Enroll one node end to end, tracing every step.

    Covers TEE chip-key endorsement, AIK certification through a
    credential-activation challenge, platform-encryption-key
    distribution, and final registration with identity certificate and
    MasterSecret delivery. Afterwards the verifier holds the node's
    certified keys.
    """
    E, P = actor.tee_name, actor.tpm_name
    A, V = OCA_PRINCIPAL, VERIFIER_PRINCIPAL

    # --- TEE chip key endorsement
    chain_bytes = actor.vendor_chain.to_bytes()
    # the channel authenticates what arrives as what was sent, so the
    # owner CA's events reuse the key labels the request carried
    vcek_key = _content("vcek-pub", actor.vcek.public_bytes)
    rx = _transfer(trace, channels, E, A, "vcek-info",
                   {"vcek_pub": actor.vcek.public_bytes,
                    "chain": actor.vendor_chain},
                   contents=(vcek_key, _content("vendor-chain", chain_bytes)))
    vcek_cert = oca.register_tee(rx["vcek_pub"], rx["chain"],
                                 node_id=actor.node_id)
    actor.vcek_cert = _hand_off(
        trace, channels, E,
        ("verify", "vendor-chain", crypto.sha256(chain_bytes)), vcek_key,
        vcek_cert, "cert-vcek-info")["cert"]
    _transfer(trace, channels, E, V, "cert-tee-info",
              {"cert": actor.vcek_cert},
              contents=(f"cert-vcek:{actor.vcek_cert.digest.hex()}",))

    # --- AIK certification via credential activation
    area = actor.aik_blob.public_area()
    ek_cert = actor.state.ek_cert
    aik_key = _content("aik-pub", area)
    rx = _transfer(trace, channels, P, A, "key-info",
                   {"aik_area": area, "ek_pub": actor.state.ek_blob.public,
                    "ek_cert": ek_cert},
                   contents=(aik_key, f"ek-cert:{ek_cert.digest.hex()}"))
    challenge = oca.aik_challenge(rx["aik_area"], rx["ek_pub"], rx["ek_cert"],
                                  actor.node_id)
    trace.emit(A, "verify", digest=rx["ek_cert"].digest, tag="ek-cert", ok=True)
    trace.emit(A, "new", digest=crypto.sha256(b"challenge:" + challenge.to_bytes()),
               tag="credential-nonce")
    rx = _transfer(trace, channels, A, P, "aik-challenge",
                   {"credential": challenge},
                   contents=(_content("credential", challenge.to_bytes()),))
    secret = tpm.activate_credential(
        rx["credential"], actor.aik_blob.name,
        tpm.loaded_keypair(actor.state, actor.ek_handle))
    answer_digest = crypto.sha256(b"credential-nonce:" + secret.data)
    trace.emit(P, "decrypt", digest=answer_digest, tag="aik-challenge",
               contents=(f"credential-nonce:{answer_digest.hex()}",))
    rx = _transfer(trace, channels, P, A, "nonce-info", {"secret": secret.data},
                   contents=(f"credential-nonce:{answer_digest.hex()}",))
    aik_cert = oca.aik_answer(challenge_session_id(challenge),
                              crypto.Secret(rx["secret"]))
    actor.aik_cert = _hand_off(
        trace, channels, P, ("match", "credential-nonce", answer_digest),
        aik_key, aik_cert, "cert-aik-info")["cert"]
    _transfer(trace, channels, P, V, "key-cert-info",
              {"cert": actor.aik_cert, "aik_area": area},
              contents=(f"cert-aik:{actor.aik_cert.digest.hex()}",))

    # --- platform encryption key, endorsed inside the TEE by the chip key
    pek_cert = crypto.issue_certificate(actor.vcek, "PEK", 1,
                                        actor.pek.public_bytes)
    actor.pek_cert = pek_cert
    trace.emit(E, "sign", digest=pek_cert.digest, tag="pek-cert",
               contents=(f"pek-cert:{pek_cert.digest.hex()}",))
    _transfer(trace, channels, E, V, "pek-cert-info", {"cert": pek_cert},
              contents=(f"pek-cert:{pek_cert.digest.hex()}",))

    run_registration(actor, oca, channels, trace)

    verifier_svc.register_node_keys(actor.node_id, actor.chip_id,
                                    actor.aik_cert, actor.vcek_cert)


def run_registration(actor: NodeActor, oca, channels: ChannelTable,
                     trace: ProtocolTrace) -> None:
    """Final onboarding: fresh boot evidence buys the identity
    certificate and the MasterSecret."""
    C, A = actor.agent, OCA_PRINCIPAL
    boot_report = tee.guest_report(
        actor.vcek, actor.chip_id, actor.tcb, actor.tcb_version,
        registration_report_data(actor.identity.public_bytes))
    identity_key = _content("identity-pub", actor.identity.public_bytes)
    rx = _transfer(trace, channels, C, A, "register-request",
                   {"report": boot_report, "chain": actor.vendor_chain,
                    "identity_pub": actor.identity.public_bytes},
                   contents=(identity_key,
                             f"boot-report:{boot_report.digest.hex()}"))
    identity_cert, master_secret = oca.register_node(
        actor.node_id, rx["report"], rx["chain"], rx["identity_pub"])
    rx = _hand_off(
        trace, channels, C,
        ("verify", "registration-evidence", rx["report"].digest),
        identity_key, identity_cert, "identity-cert-info",
        secret=master_secret.data)
    actor.identity_cert = rx["cert"]
    actor.master_secret = crypto.Secret(rx["master_secret"])


# ---------------------------------------------------------------------------
# composite evidence envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositeReportEnvelope(Record):
    """What the platform agent submits: direction, identity claim,
    session binding, and the outer evidence blob."""

    direction: str
    node_id: str
    session_id: bytes
    evidence: bytes

    SPEC = Spec((1, "direction", STR), (2, "node_id", STR),
                (3, "session_id", RAW), (4, "evidence", RAW))


# ---------------------------------------------------------------------------
# attestation flows
# ---------------------------------------------------------------------------

def _send_attest_request(verifier_svc, actor, channels, trace, policy_id,
                         direction) -> tuple:
    """Verifier opens a session and sends the challenge; returns the
    request and the attest-request fields as the platform agent sees
    them."""
    V, C = VERIFIER_PRINCIPAL, actor.agent
    request = verifier_svc.new_request(policy_id, actor.node_id)
    session_hex = request.session_id.hex()
    trace.emit(V, "new", digest=crypto.sha256(request.nonce),
               tag="attest-nonce", contents=(f"session:{session_hex}",))
    rx = _transfer(trace, channels, V, C, "attest-request",
                   {"session_id": request.session_id, "nonce": request.nonce,
                    "policy_id": policy_id,
                    "selection": request.pcr_selection,
                    "direction": direction},
                   session_id=request.session_id,
                   contents=(f"session:{session_hex}",))
    return request, rx


def _tee_report_internal(actor, channels, trace, session_id, report_data,
                         embedded: bytes, *, tag: str) -> tee.TeeReport:
    """Agent asks its TEE engine for a signed report."""
    C, E = actor.agent, actor.tee_name
    session_hex = session_id.hex()
    rx = _transfer(trace, channels, C, E, "guest-report-request",
                   {"report_data": report_data, "embedded": embedded,
                    "session_id": session_id},
                   session_id=session_id,
                   contents=(f"session:{session_hex}",))
    report = tee.guest_report(actor.vcek, actor.chip_id, actor.tcb,
                              actor.tcb_version, rx["report_data"],
                              embedded_evidence=rx["embedded"])
    digest = report.digest
    trace.emit(E, "sign", digest=digest, tag=tag,
               contents=(f"session:{session_hex}", f"report:{digest.hex()}"))
    return _transfer(trace, channels, E, C, "tee-report", {"report": report},
                     session_id=session_id,
                     contents=(f"report:{digest.hex()}",))["report"]


def _tpm_quote_internal(actor, channels, trace, session_id, selection,
                        qualifying_data, embedded: bytes, *,
                        tag: str) -> tpm.CompositeQuote:
    """Agent asks its TPM for a (composite) quote."""
    C, P = actor.agent, actor.tpm_name
    session_hex = session_id.hex()
    rx = _transfer(trace, channels, C, P, "quote-request",
                   {"selection": selection, "qualifying_data": qualifying_data,
                    "embedded": embedded, "session_id": session_id},
                   session_id=session_id,
                   contents=(f"session:{session_hex}",))
    quote_obj = tpm.cc_quote(actor.state, rx["selection"],
                             rx["qualifying_data"], actor.aik_handle,
                             rx["embedded"])
    digest = quote_obj.digest
    trace.emit(P, "sign", digest=digest, tag=tag,
               contents=(f"session:{session_hex}", f"quote:{digest.hex()}"))
    return _transfer(trace, channels, P, C, "tpm-report", {"quote": quote_obj},
                     session_id=session_id,
                     contents=(f"quote:{digest.hex()}",))["quote"]


def build_evidence(direction: str, nonce: bytes, make_layer: Callable) -> bytes:
    """Evidence of one LAYOUTS direction for a session nonce.

    Walks the layout innermost first. A TPM layer is bound by the nonce
    as qualifying data, a TEE layer by report_data_for; each outer layer
    embeds the bytes of the layer inside it. make_layer(kind, binding,
    embedded, tag) signs one layer and returns its bytes; the tag is
    "total-report" for the outermost layer and "<kind>-report" inside.
    """
    layout = LAYOUTS[direction]
    embedded = b""
    for depth, kind in enumerate(reversed(layout), 1):
        binding = (nonce if kind == "tpm"
                   else report_data_for(direction, nonce, embedded))
        tag = "total-report" if depth == len(layout) else f"{kind}-report"
        embedded = make_layer(kind, binding, embedded, tag)
    return embedded


def run_attest_composite(actor: NodeActor, verifier_svc: VerifierService,
                         channels: ChannelTable, trace: ProtocolTrace, *,
                         policy_id: str, direction: str = "tpm-tee",
                         evidence_mutator: Callable | None = None):
    """One attestation of any LAYOUTS direction: three verifier-visible
    messages, ending in a token.

    tpm-tee: the TEE report (bound to the session nonce) is embedded in
    a TPM quote whose qualifying data is the same nonce. tee-tpm: the
    quote is embedded in a TEE report whose report_data binds both the
    nonce and the embedded bytes. tee and tpm are the single-technology
    legs of the two-token baseline. Every direction sends its envelope,
    so the verifier reads the direction and the session off the wire.
    """
    if direction not in LAYOUTS:
        raise ValueError(f"unknown direction {direction!r}")
    V, C = VERIFIER_PRINCIPAL, actor.agent
    policy = verifier_svc.get_policy(policy_id)
    request, rx = _send_attest_request(verifier_svc, actor, channels, trace,
                                       policy_id, direction)
    session_id, nonce = rx["session_id"], rx["nonce"]
    session_hex = session_id.hex()

    def make_layer(kind, binding, embedded, tag):
        if kind == "tee":
            layer = _tee_report_internal(actor, channels, trace, session_id,
                                         binding, embedded, tag=tag)
        else:
            layer = _tpm_quote_internal(actor, channels, trace, session_id,
                                        rx["selection"], binding, embedded,
                                        tag=tag)
        return layer.to_bytes()

    envelope = CompositeReportEnvelope(
        direction, actor.node_id, session_id,
        build_evidence(direction, nonce, make_layer))
    if evidence_mutator is not None:
        envelope = evidence_mutator(envelope)
    wire = envelope.to_bytes()
    # one digest each for wire and the token text, sent and then received
    wire_hex = crypto.sha256(wire).hex()
    received = _transfer(trace, channels, C, V, "total-report",
                         {"report": wire}, session_id=session_id,
                         contents=(f"session:{session_hex}",
                                   f"envelope:{wire_hex}"))["report"]
    envelope = CompositeReportEnvelope.from_bytes(received)
    layers = "composite" if len(LAYOUTS[direction]) > 1 else direction
    outcome, verified = verifier_svc.verify_composite(envelope, request,
                                                      policy)
    trace.emit(V, "verify", digest=wire_hex, tag=f"{layers}-evidence",
               ok=outcome is CompositeOutcome.OK,
               contents=(f"session:{session_hex}",
                         f"outcome:{outcome.value}"))
    if outcome is not CompositeOutcome.OK:
        raise AttestationRejected(outcome, f"evidence rejected: {outcome.value}")

    token = verifier_svc.issue_token(verified)
    token_hex = crypto.sha256(token.compact().encode()).hex()
    token_content = (f"token:{token_hex}",)
    trace.emit(V, "sign", digest=token_hex, tag="token",
               contents=token_content + (f"session:{session_hex}",))
    _transfer(trace, channels, V, C, "token-info", {"token": token.compact()},
              session_id=session_id, contents=token_content)
    trace.emit(C, "decrypt", digest=token_hex, tag="token-info",
               contents=token_content)
    return token


def run_attest_independent(actor: NodeActor, verifier_svc: VerifierService,
                           channels: ChannelTable, trace: ProtocolTrace, *,
                           policy_id: str):
    """Baseline: two separate single-technology attestations (six
    verifier-visible messages), yielding two tokens that nothing binds
    to each other."""
    return [run_attest_composite(actor, verifier_svc, channels, trace,
                                 policy_id=policy_id, direction=technology)
            for technology in ("tee", "tpm")]


# ---------------------------------------------------------------------------
# trace-level trust properties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremVerdict:
    name: str
    ok: bool
    reason: str
    witness: tuple[int, ...] = ()

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        witness = ",".join(str(i) for i in self.witness) if self.witness else "-"
        return f"{self.name} {status} witness={witness} {self.reason}"


def _possession(label: str, signer: str, check: tuple = ()) -> Step:
    """A node's decrypt of label:hex follows the signer's sign of hex and
    its send of label:hex to that node. check, the signer's successful
    (kind, tag, key label), precedes the sign and names its certified key."""
    checked = (Step(signer, *check, (), "{role} signed {label} {short} "
                    "without prior {tag} evidence", ok=True),) if check else ()
    return Step(ANY, "decrypt", ANY, label, (
        Step(signer, "sign", ANY, DIGEST, checked,
             "{node} holds {label} {short} never signed by {role}"),
        Step(signer, "send", ANY, label, (),
             "{role} never sent {label} {short} to {node}", peer=NODE)))


# The TEE-issued platform key cert is no row: no owner CA signature ever
# exists for it.
TRUST_PROPERTIES = PrecedenceTable({
    "cert-provenance": ("certificate possessions justified", (
        _possession("cert-vcek", OCA_PRINCIPAL,
                    ("verify", "vendor-chain", "vcek-pub")),
        _possession("cert-aik", OCA_PRINCIPAL,
                    ("match", "credential-nonce", "aik-pub")),
        _possession("cert-identity", OCA_PRINCIPAL,
                    ("verify", "registration-evidence", "identity-pub")))),
    "token-provenance": ("token possessions justified", (
        _possession("token", VERIFIER_PRINCIPAL),)),
    "attest-order": ("evidence signatures in order", (
        Step(ANY, "sign", "total-report", None, (
            Step(NODE, "receive", "attest-request", "session", (),
                 "{node} signed evidence for session {short} before "
                 "receiving the request", peer=VERIFIER_PRINCIPAL),)),
        Step(VERIFIER_PRINCIPAL, "sign", "token", None, (),
             "{principal} signed a token; only {role} may"))),
})


def check_theorems(trace: ProtocolTrace) -> dict[str, TheoremVerdict]:
    """Check the trust properties of TRUST_PROPERTIES over a trace.

    cert-provenance: whoever holds an owner-CA certificate got it from a
    CA that signed it after its own successful check of the evidence for
    the key the certificate certifies, and that sent it to the holder.
    token-provenance: whoever holds an attestation token got it from the
    verifier, which signed it first. attest-order: evidence for a session
    is signed only after the platform received that session's request
    from the verifier, and nobody but the verifier signs a token.

    Each property is rows of one precedence table: an effect, a role's
    (kind, tag or content label), must be preceded by each of its causes
    on the value in their shared column: a certificate digest, the
    certified key, or a session id. The table compiles to one forward
    pass, linear in the events, that judges each event against an index
    of earlier causes and then indexes it; a new property adds rows, not
    a branch or a pass. Indices must equal positions, as emit,
    extend_reindexed and from_text guarantee.
    """
    return {name: TheoremVerdict(name, *verdict) for name, verdict
            in TRUST_PROPERTIES.check(trace.events).items()}
