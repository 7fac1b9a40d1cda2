"""Collaborative attestation protocol: flows, message bodies and
channels.

Principals are the platform agent (one per node), its TEE engine
("<node>/tee") and TPM ("<node>/tpm"), the owner CA ("owner-ca"), and the
verifier ("verifier"). Every message crosses an AES-GCM channel keyed by
two-phase ECDH, as a clear header (type, sender, receiver, session) and a
body sealed with that header as associated data, and every step appends a
structured event to a protocol trace, the model that ccxtrust.trace
defines and audits.

Evidence has one prover: build_evidence walks the verifier's LAYOUTS
table for any direction (the composite tpm-tee and tee-tpm embeddings,
the single-technology tee and tpm legs) and binds each layer with the
verifier's report_data_for rule, so prover and verifier read one layout.
NodeActor.evidence runs it without channels, for the boot report too;
NodeActor.sign_layer is the one place a node's TEE or TPM signs a layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import crypto, tee, tpm
from .encoding import RAW, STR, Record, Spec, nested
from .errors import AttestationRejected, AuthFailure
from .owner_ca import challenge_session_id
# perfbench wraps and calls protocol.ProtocolTrace and check_theorems by name
from .trace import (OCA_PRINCIPAL, VERIFIER_PRINCIPAL, ProtocolTrace,
                    check_theorems)
from .verifier import (LAYOUTS, AttestationToken, CompositeOutcome,
                       VerifierService, report_data_for)

# each verifier outcome's content label, one string for every verify event
_OUTCOME_LABELS = {o: f"outcome:{o.value}" for o in CompositeOutcome}


# ---------------------------------------------------------------------------
# message bodies and channels
# ---------------------------------------------------------------------------

_CERT = nested(crypto.Certificate)

# each message type's body layout, for both ends of _transfer
MESSAGE_TYPES = {
    "vcek-info": Spec((1, "chain", nested(tee.CertChain))),
    "cert-vcek-info": Spec((1, "cert", _CERT)),
    "cert-tee-info": Spec((1, "cert", _CERT)),
    "key-info": Spec((1, "aik_area", RAW), (2, "ek_cert", _CERT)),
    "aik-challenge": Spec((1, "credential", nested(tpm.Credential))),
    "nonce-info": Spec((1, "secret", RAW)),
    "cert-aik-info": Spec((1, "cert", _CERT)),
    "key-cert-info": Spec((1, "cert", _CERT)),
    "pek-cert-info": Spec((1, "cert", _CERT)),
    # the boot report travels as the bytes the TEE signed
    "register-request": Spec((1, "report", RAW),
                             (2, "chain", nested(tee.CertChain)),
                             (3, "identity_pub", RAW)),
    "identity-cert-info": Spec((1, "cert", _CERT), (2, "master_secret", RAW)),
    "attest-request": Spec((1, "session_id", RAW), (2, "nonce", RAW),
                           (3, "selection", tpm.PCR_BITMAP)),
    "guest-report-request": Spec((1, "report_data", RAW),
                                 (2, "embedded", RAW)),
    # a signed layer travels as the bytes its device signed
    "tee-report": Spec((1, "report", RAW)),
    "quote-request": Spec((1, "selection", tpm.PCR_BITMAP),
                          (2, "qualifying_data", RAW), (3, "embedded", RAW)),
    "tpm-report": Spec((1, "quote", RAW)),
    # the evidence envelope of any direction
    "total-report": Spec((1, "report", RAW)),
    "token-info": Spec((1, "token", RAW)),
}


def _wire_aad(name: str, sender: str, receiver: str, session_id: bytes) -> bytes:
    return (name.encode() + b"|" + sender.encode() + b"|"
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

    def seal(self, name: str, sender: str, receiver: str,
             session_id: bytes, body: bytes) -> bytes:
        """body sealed under its header, as nonce || ciphertext."""
        aad = _wire_aad(name, sender, receiver, session_id)
        return crypto.channel_seal(self.key(sender, receiver), body, aad,
                                   self.rng)

    def open(self, name: str, sender: str, receiver: str,
             session_id: bytes, sealed: bytes) -> bytes:
        """The body of sealed, once it authenticates under this header."""
        aad = _wire_aad(name, sender, receiver, session_id)
        return crypto.channel_open(self.key(sender, receiver), sealed, aad)


def _transfer(trace: ProtocolTrace, channels: ChannelTable, sender: str,
              receiver: str, mtype_name: str, fields: dict, *,
              session_id: bytes = b"",
              contents: tuple[str, ...] = ()) -> dict:
    """Encode, seal, 'transmit', open and decode one message body under
    its type's spec; the receiver opens the body under the header it was
    sealed under. Both endpoints trace one digest, as open authenticates
    the received body as the body sent. Returns the decoded fields."""
    spec = MESSAGE_TYPES[mtype_name]
    body = spec.encode(fields)
    sealed = channels.seal(mtype_name, sender, receiver, session_id, body)
    digest = crypto.sha256(body)
    trace.emit(sender, "send", peer=receiver, digest=digest,
               tag=mtype_name, contents=contents)
    received = channels.open(mtype_name, sender, receiver, session_id, sealed)
    trace.emit(receiver, "receive", peer=sender, digest=digest,
               tag=mtype_name, contents=contents)
    return spec.decode(received)


# ---------------------------------------------------------------------------
# platform actor and channel establishment
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class NodeActor:
    """Everything one platform brings to the protocol."""

    node_id: str
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
    pcr_selection: tuple[int, ...]
    identity: crypto.SigningKeyPair
    pek: crypto.SigningKeyPair
    vcek_cert: crypto.Certificate | None = None
    aik_cert: crypto.Certificate | None = None
    identity_cert: crypto.Certificate | None = None
    pek_cert: crypto.Certificate | None = None
    master_secret: crypto.Secret | None = None
    cvm_root_blob: tpm.KeyBlob | None = None
    # one string per device principal, for every event and channel key
    tee_name: str = field(init=False)
    tpm_name: str = field(init=False)

    def __post_init__(self) -> None:
        self.tee_name = self.node_id + "/tee"
        self.tpm_name = self.node_id + "/tpm"

    @property
    def agent(self) -> str:
        return self.node_id

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

    def evidence(self, direction: str, nonce: bytes) -> bytes:
        """Evidence of one LAYOUTS direction for nonce, each layer signed
        directly by this node's devices over its PCR selection."""
        def make_layer(kind, binding, embedded, _tag):
            return self.sign_layer(kind, binding, embedded,
                                   self.pcr_selection).to_bytes()
        return build_evidence(direction, nonce, make_layer)


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
        a_eph = crypto.SigningKeyPair.generate(rng)
        b_eph = crypto.SigningKeyPair.generate(rng)
        shared = crypto.ecdh_two_phase(a_key, b_key.public,
                                       a_eph, b_eph.public)
        channels.set_key(a, b, shared)

    def tpm_pair(peer: str, peer_key: crypto.SigningKeyPair) -> None:
        eph_pub, counter = tpm.ec_ephemeral(actor.state)
        peer_eph = crypto.SigningKeyPair.generate(rng)
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
              check: tuple[str, str, bytes], key: str, fields: dict,
              mtype_name: str) -> tuple[dict, tuple[str, ...]]:
    """The owner CA's successful check of a key, then its certificate for
    that key, fields["cert"], sent to the holder, which decrypts it. key
    is the key's content label as the holder's request carried it; the
    check and the sign both carry it, which binds the certificate to the
    evidence. The identity certificate brings the MasterSecret,
    fields["master_secret"], with it. The holder's decrypt names what it
    received. Returns the fields it received and the contents it named."""
    A = OCA_PRINCIPAL
    label = {"VCEK": "cert-vcek", "AIK": "cert-aik",
             "IDENTITY": "cert-identity"}[fields["cert"].role]

    def held(fields: dict) -> tuple[bytes, tuple[str, ...]]:
        digest = fields["cert"].digest
        contents = (f"{label}:{digest.hex()}",)
        if "master_secret" in fields:
            commit = crypto.sha256(b"master-secret:" + fields["master_secret"])
            contents += (f"master-secret:{commit.hex()}",)
        return digest, contents

    kind, tag, evidence = check
    trace.emit(A, kind, digest=evidence, tag=tag, ok=True, contents=(key,))
    digest, contents = sent = held(fields)
    trace.emit(A, "sign", digest=digest, tag=label,
               contents=contents[:1] + (key,))
    rx = _transfer(trace, channels, A, holder, mtype_name, fields,
                   contents=contents)
    # fields that arrived as sent keep the digests taken of them
    digest, contents = sent if rx == fields else held(rx)
    trace.emit(holder, "decrypt", digest=digest, tag=mtype_name,
               contents=contents)
    return rx, contents


def run_initialization(actor: NodeActor, oca, verifier_svc: VerifierService,
                       channels: ChannelTable, trace: ProtocolTrace) -> None:
    """Enroll one node end to end, tracing every step.

    Covers TEE chip-key endorsement, AIK certification through a
    credential-activation challenge, platform-encryption-key
    distribution, and final registration with identity certificate and
    MasterSecret delivery. Each key crosses once, inside its certificate:
    the owner CA reads the chip key and chip id from the vendor chain and
    the EK from its certificate. Afterwards the verifier holds the node's
    keys and chip id from the certificates it received.
    """
    E, P = actor.tee_name, actor.tpm_name
    A, V = OCA_PRINCIPAL, VERIFIER_PRINCIPAL

    # --- TEE chip key endorsement
    chain_bytes = actor.vendor_chain.to_bytes()
    # the channel authenticates what arrives as what was sent, so the
    # owner CA's events reuse the key labels the request carried
    vcek_key = _content("vcek-pub", actor.vcek.public_bytes)
    rx = _transfer(trace, channels, E, A, "vcek-info",
                   {"chain": actor.vendor_chain},
                   contents=(vcek_key, _content("vendor-chain", chain_bytes)))
    vcek_cert = oca.register_tee(rx["chain"], node_id=actor.node_id)
    rx, held = _hand_off(
        trace, channels, E,
        ("verify", "vendor-chain", crypto.sha256(chain_bytes)), vcek_key,
        {"cert": vcek_cert}, "cert-vcek-info")
    actor.vcek_cert = rx["cert"]
    vcek_rx = _transfer(trace, channels, E, V, "cert-tee-info",
                        {"cert": actor.vcek_cert}, contents=held)

    # --- AIK certification via credential activation
    area = actor.aik_blob.public_area()
    ek_cert = actor.state.ek_cert
    aik_key = _content("aik-pub", area)
    rx = _transfer(trace, channels, P, A, "key-info",
                   {"aik_area": area, "ek_cert": ek_cert},
                   contents=(aik_key, f"ek-cert:{ek_cert.digest.hex()}"))
    challenge = oca.aik_challenge(rx["aik_area"], rx["ek_cert"], actor.node_id)
    trace.emit(A, "verify", digest=rx["ek_cert"].digest, tag="ek-cert", ok=True)
    trace.emit(A, "new", digest=crypto.sha256(b"challenge:" + challenge.to_bytes()),
               tag="credential-nonce")
    rx = _transfer(trace, channels, A, P, "aik-challenge",
                   {"credential": challenge},
                   contents=(_content("credential", challenge.to_bytes()),))
    secret = tpm.activate_credential(
        rx["credential"], actor.aik_blob.name,
        tpm.loaded_keypair(actor.state, actor.ek_handle))
    answer = crypto.sha256(b"credential-nonce:" + secret.data)
    answer_label = (f"credential-nonce:{answer.hex()}",)
    trace.emit(P, "decrypt", digest=answer, tag="aik-challenge",
               contents=answer_label)
    rx = _transfer(trace, channels, P, A, "nonce-info", {"secret": secret.data},
                   contents=answer_label)
    aik_cert = oca.aik_answer(challenge_session_id(challenge),
                              crypto.Secret(rx["secret"]))
    rx, held = _hand_off(
        trace, channels, P, ("match", "credential-nonce", answer),
        aik_key, {"cert": aik_cert}, "cert-aik-info")
    actor.aik_cert = rx["cert"]
    aik_rx = _transfer(trace, channels, P, V, "key-cert-info",
                       {"cert": actor.aik_cert}, contents=held)

    # --- platform encryption key, endorsed inside the TEE by the chip key
    pek_cert = crypto.issue_certificate(actor.vcek, "PEK", 1,
                                        actor.pek.public_bytes)
    actor.pek_cert = pek_cert
    pek_label = (f"pek-cert:{pek_cert.digest.hex()}",)
    trace.emit(E, "sign", digest=pek_cert.digest, tag="pek-cert",
               contents=pek_label)
    _transfer(trace, channels, E, V, "pek-cert-info", {"cert": pek_cert},
              contents=pek_label)

    run_registration(actor, oca, channels, trace)

    verifier_svc.register_node_keys(actor.node_id, aik_rx["cert"],
                                    vcek_rx["cert"])


def run_registration(actor: NodeActor, oca, channels: ChannelTable,
                     trace: ProtocolTrace) -> None:
    """Final onboarding: fresh boot evidence, "tee" evidence for the nonce
    sha256(identity_pub), crosses as the bytes the TEE signed and buys the
    identity certificate and the MasterSecret."""
    C, A = actor.agent, OCA_PRINCIPAL
    boot_report = actor.evidence("tee",
                                 crypto.sha256(actor.identity.public_bytes))
    # open authenticates the report that arrives as these bytes
    report_digest = crypto.sha256(boot_report)
    identity_key = _content("identity-pub", actor.identity.public_bytes)
    rx = _transfer(trace, channels, C, A, "register-request",
                   {"report": boot_report, "chain": actor.vendor_chain,
                    "identity_pub": actor.identity.public_bytes},
                   contents=(identity_key,
                             f"boot-report:{report_digest.hex()}"))
    identity_cert, master_secret = oca.register_node(
        actor.node_id, rx["report"], rx["chain"], rx["identity_pub"])
    rx, _ = _hand_off(
        trace, channels, C,
        ("verify", "registration-evidence", report_digest),
        identity_key, {"cert": identity_cert,
                       "master_secret": master_secret.data},
        "identity-cert-info")
    actor.identity_cert = rx["cert"]
    actor.master_secret = crypto.Secret(rx["master_secret"])


# ---------------------------------------------------------------------------
# composite evidence envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
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

def _send_attest_request(verifier_svc, actor, channels, trace,
                         policy) -> tuple:
    """Verifier opens a session under the policy and sends the challenge,
    with the policy's PCR selection; returns the request, and the
    attest-request fields and session label as the agent received them."""
    V, C = VERIFIER_PRINCIPAL, actor.agent
    request = verifier_svc.new_request(policy.policy_id, actor.node_id)
    session = (f"session:{request.session_id.hex()}",)
    trace.emit(V, "new", digest=crypto.sha256(request.nonce),
               tag="attest-nonce", contents=session)
    rx = _transfer(trace, channels, V, C, "attest-request",
                   {"session_id": request.session_id, "nonce": request.nonce,
                    "selection": policy.pcr_selection},
                   session_id=request.session_id, contents=session)
    if rx["session_id"] != request.session_id:   # name what arrived
        session = (f"session:{rx['session_id'].hex()}",)
    return request, rx, session


# kind -> (request type, the request field the binding travels in, reply
# type, the reply field and content label of the signed layer): the
# agent's round trip to the device that signs that kind of layer
_LAYER_TRIPS = {
    "tee": ("guest-report-request", "report_data", "tee-report", "report"),
    "tpm": ("quote-request", "qualifying_data", "tpm-report", "quote"),
}


def _device_layer(actor, channels, trace, session_id, session, kind, binding,
                  embedded: bytes, selection, *, tag: str) -> bytes:
    """The agent asks its device for one signed layer of the evidence for
    session_id, labelled session; returns the layer's bytes as the device
    encoded them, for the agent only embeds or submits them."""
    request, binding_field, reply, label = _LAYER_TRIPS[kind]
    device = actor.tee_name if kind == "tee" else actor.tpm_name
    rx = _transfer(trace, channels, actor.agent, device, request,
                   {binding_field: binding, "embedded": embedded,
                    "selection": selection},
                   session_id=session_id, contents=session)
    layer = actor.sign_layer(kind, rx[binding_field], rx["embedded"],
                             rx.get("selection", ())).to_bytes()
    digest = crypto.sha256(layer)
    signed = (f"{label}:{digest.hex()}",)
    trace.emit(device, "sign", digest=digest, tag=tag,
               contents=session + signed)
    return _transfer(trace, channels, device, actor.agent, reply,
                     {label: layer}, session_id=session_id,
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
        tag = "total-report" if depth == len(layout) else _LAYER_TRIPS[kind][2]
        embedded = make_layer(kind, binding, embedded, tag)
    return embedded


def run_attest_composite(actor: NodeActor, verifier_svc: VerifierService,
                         channels: ChannelTable, trace: ProtocolTrace, *,
                         policy_id: str, direction: str = "tpm-tee",
                         evidence_mutator: Callable | None = None):
    """One attestation of any LAYOUTS direction: three verifier-visible
    messages, ending in the token the agent decodes from the last.

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
    request, rx, session = _send_attest_request(verifier_svc, actor,
                                                channels, trace, policy)
    session_id, nonce = rx["session_id"], rx["nonce"]

    def make_layer(kind, binding, embedded, tag):
        return _device_layer(actor, channels, trace, session_id, session,
                             kind, binding, embedded, rx["selection"], tag=tag)

    envelope = CompositeReportEnvelope(
        direction, actor.node_id, session_id,
        build_evidence(direction, nonce, make_layer))
    if evidence_mutator is not None:
        envelope = evidence_mutator(envelope)
    wire = envelope.to_bytes()
    # one digest each for wire and the token record, sent and then received
    wire_digest = crypto.sha256(wire)
    received = _transfer(trace, channels, C, V, "total-report",
                         {"report": wire}, session_id=session_id,
                         contents=session + (
                             f"envelope:{wire_digest.hex()}",))["report"]
    envelope = CompositeReportEnvelope.from_bytes(received)
    outcome, verified = verifier_svc.verify_composite(envelope, request,
                                                      policy)
    tag = ("composite-evidence" if len(LAYOUTS[direction]) > 1
           else f"{direction}-evidence")
    trace.emit(V, "verify", digest=wire_digest, tag=tag,
               ok=outcome is CompositeOutcome.OK,
               contents=session + (_OUTCOME_LABELS[outcome],))
    if outcome is not CompositeOutcome.OK:
        raise AttestationRejected(outcome, f"evidence rejected: {outcome.value}")

    token_bytes = verifier_svc.issue_token(verified).to_bytes()
    token_digest = crypto.sha256(token_bytes)
    token_content = (f"token:{token_digest.hex()}",)
    trace.emit(V, "sign", digest=token_digest, tag="token",
               contents=token_content + session)
    received = _transfer(trace, channels, V, C, "token-info",
                         {"token": token_bytes}, session_id=session_id,
                         contents=token_content)["token"]
    if received != token_bytes:   # name what arrived
        token_digest = crypto.sha256(received)
        token_content = (f"token:{token_digest.hex()}",)
    trace.emit(C, "decrypt", digest=token_digest, tag="token-info",
               contents=token_content)
    return AttestationToken.from_bytes(received)


def run_attest_independent(actor: NodeActor, verifier_svc: VerifierService,
                           channels: ChannelTable, trace: ProtocolTrace, *,
                           policy_id: str):
    """Baseline: two separate single-technology attestations (six
    verifier-visible messages), yielding two tokens that nothing binds
    to each other."""
    return [run_attest_composite(actor, verifier_svc, channels, trace,
                                 policy_id=policy_id, direction=technology)
            for technology in ("tee", "tpm")]
