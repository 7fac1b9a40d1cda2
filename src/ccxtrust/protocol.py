"""Collaborative attestation protocol: flows, message bodies, channels,
and trace model.

Principals are the platform agent (one per node), its TEE engine
("<node>/tee") and TPM ("<node>/tpm"), the owner CA ("owner-ca"), and the
verifier ("verifier"). Every message crosses an AES-GCM channel keyed by
two-phase ECDH, as a clear header (type, sender, receiver, session) and a
body sealed with that header as associated data, and every step appends a
structured event to a protocol trace.

Attestation has one prover: build_evidence walks the verifier's LAYOUTS
table for any direction (the composite tpm-tee and tee-tpm embeddings,
the single-technology tee and tpm legs) and binds each layer with the
verifier's report_data_for rule, so prover and verifier read one layout.
NodeActor.sign_layer is the one place a node's TEE or TPM signs a layer.

The trace is the unit of analysis: trust-chain properties are stated
over event sequences and checked mechanically by check_theorems, so a
run either carries a complete justification for every credential that
changed hands or yields a concrete counterexample event. An event's
index is its position in the trace and is stored nowhere else, so any
list of events is a trace, and an edited list judges by its positions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Iterable

from . import crypto, tee, tpm
from .encoding import RAW, STR, Record, Spec, nested
from .errors import AttestationRejected, AuthFailure, DecodeError
from .owner_ca import challenge_session_id, registration_report_data
from .verifier import (LAYOUTS, CompositeOutcome, VerifierService,
                       report_data_for)

OCA_PRINCIPAL = "owner-ca"
VERIFIER_PRINCIPAL = "verifier"

EVENT_KINDS = frozenset(
    ("new", "send", "receive", "decrypt", "sign", "verify", "match"))

_OK_COLUMN = {"-": None, "0": False, "1": True}


# ---------------------------------------------------------------------------
# trace model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One protocol step. contents carries "label:hex" pairs naming the
    values the step created, transferred, or exposed. An event's index is
    its position in its trace, which the trace supplies to line and
    from_line."""

    principal: str
    kind: str
    peer: str = "-"
    digest: str = "-"
    tag: str = "-"
    ok: bool | None = None
    contents: tuple[str, ...] = ()

    def line(self, index: int) -> str:
        ok = "-" if self.ok is None else str(int(self.ok))
        contents = ",".join(self.contents) if self.contents else "-"
        return (f"{index} {self.principal} {self.kind} {self.peer} "
                f"{self.digest} {self.tag} {ok} {contents}")

    @classmethod
    def from_line(cls, line: str, index: int) -> "TraceEvent":
        """Parse the line at position index of a trace: the inverse of
        line(index)."""
        parts = line.split()
        if len(parts) != 8:
            raise DecodeError(f"trace line needs 8 columns: {line!r}")
        column, principal, kind, peer, digest, tag, ok, contents = parts
        if kind not in EVENT_KINDS:
            raise DecodeError(f"unknown event kind {kind!r}")
        try:
            position = int(column)
        except ValueError:
            raise DecodeError(f"trace index must be an integer: {column!r}") from None
        if position != index:
            raise DecodeError(f"trace indices must be contiguous, got "
                              f"{position} at position {index}")
        if ok not in _OK_COLUMN:
            raise DecodeError(f"trace ok column must be -, 0 or 1: {ok!r}")
        event = cls(
            principal=principal, kind=kind, peer=peer, digest=digest,
            tag=tag, ok=_OK_COLUMN[ok],
            contents=() if contents == "-" else tuple(contents.split(",")))
        if event.line(index) != line:
            raise DecodeError(f"trace line is not canonical: {line!r}")
        return event


# emit fills a new event's slots through their descriptors, which skips
# the frozen __init__'s object.__setattr__ call per field
(_set_principal, _set_kind, _set_peer, _set_digest, _set_tag, _set_ok,
 _set_contents) = (getattr(TraceEvent, name).__set__
                   for name in TraceEvent.__slots__)
_new_event = object.__new__


class ProtocolTrace:
    """Append-only event log for one or more protocol runs."""

    def __init__(self, events: Iterable[TraceEvent] = ()) -> None:
        self.events: list[TraceEvent] = list(events)

    def emit(self, principal: str, kind: str, *, peer: str = "-",
             digest: bytes | str = "-", tag: str = "-",
             ok: bool | None = None,
             contents: tuple[str, ...] = ()) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if isinstance(digest, bytes):
            digest = digest.hex() if digest else "-"
        event = _new_event(TraceEvent)
        _set_principal(event, principal)
        _set_kind(event, kind)
        _set_peer(event, peer)
        _set_digest(event, digest)
        _set_tag(event, tag)
        _set_ok(event, ok)
        _set_contents(event, tuple(contents))
        self.events.append(event)
        return event

    def lines(self) -> list[str]:
        return [event.line(index) for index, event in enumerate(self.events)]

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
        endings, a missing final newline or a non-ASCII character, raises
        DecodeError, so a trace file and the trace read from it have the
        same digest."""
        if not text.isascii():
            raise DecodeError("trace text must be ASCII")
        trace = cls(TraceEvent.from_line(line, index)
                    for index, line in enumerate(text.splitlines()))
        if trace.text() != text:
            raise DecodeError("trace text is not canonical")
        return trace

    @classmethod
    def read(cls, path) -> "ProtocolTrace":
        # bytes keep line endings as written, and latin-1 maps every byte
        # to one character, for from_text to judge
        with open(path, "rb") as fh:
            return cls.from_text(fh.read().decode("latin-1"))

    def verifier_visible_sends(self) -> int:
        """Protocol messages a network observer at the verifier sees."""
        return sum(1 for e in self.events if e.kind == "send"
                   and VERIFIER_PRINCIPAL in (e.principal, e.peer))


# ---------------------------------------------------------------------------
# message bodies and channels
# ---------------------------------------------------------------------------

_CERT = nested(crypto.Certificate)

# each message type's wire code and body layout, for both ends of _transfer
MESSAGE_TYPES = {
    "vcek-info": (0x0101, Spec((1, "vcek_pub", RAW),
                               (2, "chain", nested(tee.CertChain)))),
    "cert-vcek-info": (0x0102, Spec((1, "cert", _CERT))),
    "cert-tee-info": (0x0103, Spec((1, "cert", _CERT))),
    "key-info": (0x0104, Spec((1, "aik_area", RAW), (2, "ek_pub", RAW),
                              (3, "ek_cert", _CERT))),
    "aik-challenge": (0x0105, Spec((1, "credential", nested(tpm.Credential)))),
    "nonce-info": (0x0106, Spec((1, "secret", RAW))),
    "cert-aik-info": (0x0107, Spec((1, "cert", _CERT))),
    "key-cert-info": (0x0108, Spec((1, "cert", _CERT), (2, "aik_area", RAW))),
    "pek-cert-info": (0x0109, Spec((1, "cert", _CERT))),
    "register-request": (0x010A, Spec((1, "report", nested(tee.TeeReport)),
                                      (2, "chain", nested(tee.CertChain)),
                                      (3, "identity_pub", RAW))),
    "identity-cert-info": (0x010B, Spec((1, "cert", _CERT),
                                        (2, "master_secret", RAW))),
    "attest-request": (0x0201, Spec((1, "session_id", RAW), (2, "nonce", RAW),
                                    (3, "policy_id", STR),
                                    (4, "selection", tpm.PCR_BITMAP),
                                    (5, "direction", STR))),
    "guest-report-request": (0x0202, Spec((1, "report_data", RAW),
                                          (2, "embedded", RAW),
                                          (3, "session_id", RAW))),
    # a signed layer travels as the bytes its device signed
    "tee-report": (0x0203, Spec((1, "report", RAW))),
    "quote-request": (0x0204, Spec((1, "selection", tpm.PCR_BITMAP),
                                   (2, "qualifying_data", RAW),
                                   (3, "embedded", RAW),
                                   (4, "session_id", RAW))),
    "tpm-report": (0x0205, Spec((1, "quote", RAW))),
    # the evidence envelope of any direction
    "total-report": (0x0206, Spec((1, "report", RAW))),
    "token-info": (0x0207, Spec((1, "token", RAW))),
}


def _wire_aad(mtype: int, sender: str, receiver: str, session_id: bytes) -> bytes:
    return (struct.pack("<H", mtype) + sender.encode() + b"|"
            + receiver.encode() + b"|" + session_id)


class ChannelTable:
    """Pairwise AEAD keys between principals.

    A message crosses as a clear header (type, sender, receiver, session)
    and a body sealed under the pair's key with the header as associated
    data, so open authenticates both. The table keeps key bytes, not
    ciphers: an AESGCM object holds about 2.5 KB for every channel of
    every node, and building one per message costs under 2 us.
    """

    def __init__(self, rng) -> None:
        self.rng = rng
        # a pair is keyed by its two names in sorted order
        self._keys: dict[tuple[str, str], bytes] = {}

    def set_key(self, a: str, b: str, key: bytes) -> None:
        if len(key) != crypto.AEAD_KEY_LEN:
            raise ValueError("channel keys are 32 bytes")
        self._keys[(a, b) if a < b else (b, a)] = key

    def key(self, a: str, b: str) -> bytes:
        try:
            return self._keys[(a, b) if a < b else (b, a)]
        except KeyError:
            raise AuthFailure(f"no channel between {a!r} and {b!r}") from None

    def seal(self, mtype: int, sender: str, receiver: str,
             session_id: bytes, body: bytes) -> bytes:
        """body sealed under its header, as nonce || ciphertext."""
        aad = _wire_aad(mtype, sender, receiver, session_id)
        return crypto.channel_seal(self.key(sender, receiver), body, aad,
                                   self.rng)

    def open(self, mtype: int, sender: str, receiver: str,
             session_id: bytes, sealed: bytes) -> bytes:
        """The body of sealed, once it authenticates under this header."""
        aad = _wire_aad(mtype, sender, receiver, session_id)
        return crypto.channel_open(self.key(sender, receiver), sealed, aad)


def _transfer(trace: ProtocolTrace, channels: ChannelTable, sender: str,
              receiver: str, mtype_name: str, fields: dict, *,
              session_id: bytes = b"",
              contents: tuple[str, ...] = ()) -> dict:
    """Encode, seal, 'transmit', open and decode one message body under
    its type's spec; the receiver opens the body under the header it was
    sealed under. Both endpoints trace one digest, as open authenticates
    the received body as the body sent. Returns the decoded fields."""
    mtype, spec = MESSAGE_TYPES[mtype_name]
    body = spec.encode(fields)
    sealed = channels.seal(mtype, sender, receiver, session_id, body)
    digest = crypto.sha256(body).hex()
    trace.emit(sender, "send", peer=receiver, digest=digest,
               tag=mtype_name, contents=contents)
    received = channels.open(mtype, sender, receiver, session_id, sealed)
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

    def sign_layer(self, kind: str, binding: bytes, embedded: bytes,
                   selection: tuple[int, ...] = ()):
        """One signed evidence layer of this node, carrying the embedded
        bytes verbatim: for "tee" a guest report under the chip key, with
        binding as its report_data; for "tpm" a quote of the selected PCRs
        under the AIK, with binding as its qualifying data. The only place
        a node's devices sign evidence."""
        if kind == "tee":
            return tee.guest_report(self.vcek, self.chip_id, self.tcb,
                                    self.tcb_version, binding, embedded)
        return tpm.cc_quote(self.state, selection, binding, self.aik_handle,
                            embedded)


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
    boot_report = actor.sign_layer(
        "tee", registration_report_data(actor.identity.public_bytes), b"")
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

def _send_attest_request(verifier_svc, actor, channels, trace, policy,
                         direction) -> tuple:
    """Verifier opens a session under the policy and sends the challenge,
    with the policy's PCR selection; returns the request and the
    attest-request fields as the platform agent sees them."""
    V, C = VERIFIER_PRINCIPAL, actor.agent
    request = verifier_svc.new_request(policy.policy_id, actor.node_id)
    session_hex = request.session_id.hex()
    trace.emit(V, "new", digest=crypto.sha256(request.nonce),
               tag="attest-nonce", contents=(f"session:{session_hex}",))
    rx = _transfer(trace, channels, V, C, "attest-request",
                   {"session_id": request.session_id, "nonce": request.nonce,
                    "policy_id": policy.policy_id,
                    "selection": policy.pcr_selection,
                    "direction": direction},
                   session_id=request.session_id,
                   contents=(f"session:{session_hex}",))
    return request, rx


# kind -> (request type, the request field the binding travels in, reply
# type, the reply field and content label of the signed layer): the
# agent's round trip to the device that signs that kind of layer
_LAYER_TRIPS = {
    "tee": ("guest-report-request", "report_data", "tee-report", "report"),
    "tpm": ("quote-request", "qualifying_data", "tpm-report", "quote"),
}


def _device_layer(actor, channels, trace, session_id, kind, binding,
                  embedded: bytes, selection, *, tag: str) -> bytes:
    """The agent asks its device "<node>/<kind>" for one signed layer of a
    session's evidence; returns the layer's bytes as the device encoded
    them, for the agent only embeds or submits them."""
    request, binding_field, reply, label = _LAYER_TRIPS[kind]
    C, device = actor.agent, f"{actor.node_id}/{kind}"
    session = (f"session:{session_id.hex()}",)
    rx = _transfer(trace, channels, C, device, request,
                   {binding_field: binding, "embedded": embedded,
                    "selection": selection, "session_id": session_id},
                   session_id=session_id, contents=session)
    layer = actor.sign_layer(kind, rx[binding_field], rx["embedded"],
                             rx.get("selection", ())).to_bytes()
    digest = crypto.sha256(layer)
    signed = (f"{label}:{digest.hex()}",)
    trace.emit(device, "sign", digest=digest, tag=tag,
               contents=session + signed)
    return _transfer(trace, channels, device, C, reply, {label: layer},
                     session_id=session_id,
                     contents=signed)[label]


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
                                       policy, direction)
    session_id, nonce = rx["session_id"], rx["nonce"]
    session_hex = session_id.hex()

    def make_layer(kind, binding, embedded, tag):
        return _device_layer(actor, channels, trace, session_id, kind,
                             binding, embedded, rx["selection"], tag=tag)

    envelope = CompositeReportEnvelope(
        direction, actor.node_id, session_id,
        build_evidence(direction, nonce, make_layer))
    if evidence_mutator is not None:
        envelope = evidence_mutator(envelope)
    wire = envelope.to_bytes()
    # one digest each for wire and the token record, sent and then received
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
    token_bytes = token.to_bytes()
    token_digest = crypto.sha256(token_bytes)
    token_content = (f"token:{token_digest.hex()}",)
    trace.emit(V, "sign", digest=token_digest, tag="token",
               contents=token_content + (f"session:{session_hex}",))
    _transfer(trace, channels, V, C, "token-info", {"token": token_bytes},
              session_id=session_id, contents=token_content)
    trace.emit(C, "decrypt", digest=token_digest, tag="token-info",
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


# The possession rule: label -> (property, signer, and the signer's own
# successful (kind, tag, key label) check, or None). A node's decrypt of
# label:hex follows the signer's sign of hex and its send of label:hex
# to that node; the check precedes the sign and names, under the key
# label, a key the sign names, so one node's check never vouches for
# another's certificate. The TEE-issued platform key cert is no row: no
# owner CA signature ever exists for it.
POSSESSION_RULES = {
    "cert-vcek": ("cert-provenance", OCA_PRINCIPAL,
                  ("verify", "vendor-chain", "vcek-pub")),
    "cert-aik": ("cert-provenance", OCA_PRINCIPAL,
                 ("match", "credential-nonce", "aik-pub")),
    "cert-identity": ("cert-provenance", OCA_PRINCIPAL,
                      ("verify", "registration-evidence", "identity-pub")),
    "token": ("token-provenance", VERIFIER_PRINCIPAL, None),
}

_PASS_REASONS = {
    "cert-provenance": "certificate possessions justified",
    "token-provenance": "token possessions justified",
    "attest-order": "evidence signatures in order",
}


def check_theorems(trace: ProtocolTrace) -> dict[str, TheoremVerdict]:
    """Check the three trust properties over a trace.

    cert-provenance: whoever holds an owner-CA certificate got it from a
    CA that signed it after its own successful check of the evidence for
    the key the certificate certifies, and that sent it to the holder.
    token-provenance: whoever holds an attestation token got it from the
    verifier, which signed it first. attest-order: evidence names a
    session, and the platform received the verifier's request for each
    session it names before signing it; no session is answered by two
    evidence signatures, nor given two tokens (Lowe's injective
    agreement, CSFW 1997); nobody but the verifier signs a token.

    Each is a PCL-style precedence claim (Datta, Derek, Mitchell and
    Roy, ENTCS 2007) checked by one forward pass, linear in the events:
    each sign and decrypt is judged against indexes of earlier events,
    then indexed. An event's index, and so each witness, is its
    position. Each property reports its first failure in event order,
    and within one event in row order.
    """
    verifier = VERIFIER_PRINCIPAL
    events = trace.events
    # per signer, its first sign of each digest, and its sends as
    # (holder node, content)
    signed: dict[str, dict[str, int]] = {
        signer: {} for _, signer, _ in POSSESSION_RULES.values()}
    sent: dict[str, set[tuple[str, str]]] = {s: set() for s in signed}
    # per (signer, kind, tag) of a rule's check: the key label, and the
    # check's first success naming each key under it
    checked: dict[tuple[str, str, str], tuple[str, dict[str, int]]] = {}
    justified: dict[str, list[int]] = {name: [] for name in _PASS_REASONS}
    rules = {}
    for rank, (label, (name, signer, check)) in enumerate(
            POSSESSION_RULES.items()):
        vouches = evidence = None
        if check:
            kind, evidence, key = check
            vouches = checked.setdefault((signer, kind, evidence),
                                         (key + ":", {}))[1]
        rules[label] = (rank, name, signer, signed[signer], sent[signer],
                        vouches, evidence, justified[name].append)
    rule_of = rules.get
    checkers = {signer for signer, _, _ in checked}
    # the receipts of the verifier's attest-requests, as (node, content),
    # the evidence sign that answered each session content, and the token
    # sign that closed it
    requested: set[tuple[str, str]] = set()
    answered: dict[str, int] = {}
    minted: dict[str, int] = {}
    failed: dict[str, TheoremVerdict] = {}
    in_order = justified["attest-order"].append
    misses: list[tuple] = []

    def fail(name: str, reason: str, *witness: int) -> None:
        failed.setdefault(name, TheoremVerdict(name, False, reason, witness))

    for index, event in enumerate(events):
        kind, principal = event.kind, event.principal
        if kind == "send":
            if principal in sent:
                sends, node = sent[principal], event.peer.partition("/")[0]
                for content in event.contents:
                    sends.add((node, content))
        elif kind == "receive":
            if event.tag == "attest-request" and event.peer == verifier:
                node = principal.partition("/")[0]
                for content in event.contents:
                    requested.add((node, content))
        elif kind == "sign":
            tag = event.tag
            if tag == "total-report":
                node = principal.partition("/")[0]
                unrequested = "?"   # the first session not requested
                twice = None        # the first one an earlier sign answered
                for content in event.contents:
                    if content.startswith("session:"):
                        if (node, content) not in requested:
                            unrequested = content[8:]
                            break
                        unrequested = None
                        # a failing sign's sessions are recorded too; the
                        # property has failed then, so they change nothing
                        if answered.setdefault(content, index) != index:
                            twice = twice or content
                if unrequested is not None:
                    fail("attest-order", f"{node} signed evidence for "
                         f"session {unrequested[:16]} before receiving "
                         "the request", index)
                elif twice is not None:
                    fail("attest-order", f"{node} signed second evidence "
                         f"for session {twice[8:24]}", answered[twice], index)
                else:
                    in_order(index)
            elif tag == "token":
                if principal != verifier:
                    fail("attest-order",
                         f"{principal} signed a token; only {verifier} may",
                         index)
                for content in event.contents:
                    if content.startswith("session:") \
                            and minted.setdefault(content, index) != index:
                        fail("attest-order", f"{verifier} signed a second "
                             f"token for session {content[8:24]}",
                             minted[content], index)
            if principal in signed:
                signed[principal].setdefault(event.digest, index)
        elif kind == "decrypt":
            node = principal.partition("/")[0]
            for content in event.contents:
                label, colon, value = content.partition(":")
                rule = rule_of(label)
                if rule is None or not colon:
                    continue
                (rank, name, signer, signs, sends, vouches, evidence,
                 justify) = rule
                at = signs.get(value)
                if at is None:
                    misses.append((rank, name, f"{node} holds {label} "
                                   f"{value[:16]} never signed by {signer}",
                                   index))
                    continue
                if vouches is not None:
                    for held in events[at].contents:
                        if held in vouches and vouches[held] < at:
                            break
                    else:
                        misses.append((rank, name, f"{signer} signed {label} "
                                       f"{value[:16]} without prior "
                                       f"{evidence} evidence", at, index))
                        continue
                if (node, content) not in sends:
                    misses.append((rank, name, f"{signer} never sent {label} "
                                   f"{value[:16]} to {node}", index))
                    continue
                justify(index)
            if misses:
                misses.sort(key=lambda miss: miss[0])
                for _rank, *miss in misses:
                    fail(*miss)
                misses.clear()
        elif event.ok and principal in checkers:
            check = checked.get((principal, kind, event.tag))
            if check is not None:
                key, vouches = check
                for content in event.contents:
                    if content.startswith(key) and content not in vouches:
                        vouches[content] = index
    return {name: failed.get(name) or TheoremVerdict(
                name, True, f"{len(justified[name])} {reason}",
                tuple(justified[name]))
            for name, reason in _PASS_REASONS.items()}
