"""Protocol layer: sealed channels, the initialization and attestation
flows, and the events they record. The trace codec and the audit of its
trust properties are tested in test_trace.py."""

import dataclasses
import sys
import threading

import pytest

from ccxtrust import crypto, harness, measurement, protocol, tpm, verifier
from ccxtrust.errors import (
    AttestationRejected,
    AuthFailure,
    BaselineRejected,
)
from ccxtrust.trace import (
    OCA_PRINCIPAL,
    VERIFIER_PRINCIPAL,
    ProtocolTrace,
    check_theorems,
)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def test_every_message_type_has_its_own_wire_code():
    codes = [code for code, _ in protocol.MESSAGE_TYPES.values()]
    assert len(set(codes)) == len(codes) == 18


def test_channel_seal_open_and_wrong_receiver(cluster):
    channels = cluster.channels
    actor = cluster.actor(0)
    mtype, _ = protocol.MESSAGE_TYPES["attest-request"]
    sealed = channels.seal(mtype, actor.agent, "verifier", b"sess", b"body")
    assert channels.open(mtype, actor.agent, "verifier", b"sess",
                         sealed) == b"body"
    with pytest.raises(AuthFailure):
        channels.open(mtype, actor.agent, actor.tee_name, b"sess", sealed)


def test_channel_sealed_body_tamper_rejected(cluster):
    channels = cluster.channels
    actor = cluster.actor(0)
    mtype, _ = protocol.MESSAGE_TYPES["attest-request"]
    sealed = bytearray(channels.seal(mtype, actor.agent, "verifier",
                                     b"sess", b"body"))
    sealed[-1] ^= 0x01
    with pytest.raises(AuthFailure):
        channels.open(mtype, actor.agent, "verifier", b"sess", bytes(sealed))


_HEADER = {"mtype": 0x0201, "sender": "node-0", "receiver": "verifier",
           "session_id": b"sess"}


@pytest.mark.parametrize("change", [
    {"mtype": 0x0202}, {"sender": "node-1"}, {"receiver": "owner-ca"},
    {"session_id": b"sesS"}, {"sender": "verifier", "receiver": "node-0"},
], ids=["mtype", "sender", "receiver", "session_id", "direction"])
def test_channel_open_under_another_header_raises(change):
    # every pair holds the same key, so only the header, as associated
    # data, tells the openings apart
    channels = protocol.ChannelTable(crypto.DeterministicRng(b"header"))
    for pair in (("node-0", "verifier"), ("node-1", "verifier"),
                 ("node-0", "owner-ca")):
        channels.set_key(*pair, bytes(range(32)))
    sealed = channels.seal(*_HEADER.values(), b"body")
    assert channels.open(*_HEADER.values(), sealed) == b"body"
    with pytest.raises(AuthFailure):
        channels.open(*dict(_HEADER, **change).values(), sealed)


def test_channel_missing_key_raises(cluster):
    with pytest.raises(AuthFailure):
        cluster.channels.key("nobody", "verifier")


def test_channel_cipher_follows_the_pair_key(cluster):
    channels = cluster.channels
    actor = cluster.actor(0)
    mtype, _ = protocol.MESSAGE_TYPES["attest-request"]
    pairs = ((actor.agent, VERIFIER_PRINCIPAL), (actor.tee_name, actor.agent),
             (actor.tpm_name, OCA_PRINCIPAL))
    sealed = [(a, b, channels.seal(mtype, a, b, b"s", a.encode()))
              for a, b in pairs * 2]
    for a, b, blob in reversed(sealed):
        assert channels.open(mtype, a, b, b"s", blob) == a.encode()
    # a body sealed under a replaced key no longer opens
    a, b = pairs[0]
    stale = channels.seal(mtype, a, b, b"s", b"old")
    channels.set_key(a, b, bytes(32))
    with pytest.raises(AuthFailure):
        channels.open(mtype, a, b, b"s", stale)
    fresh = channels.seal(mtype, a, b, b"s", b"new")
    assert channels.open(mtype, a, b, b"s", fresh) == b"new"


def test_channel_table_under_concurrent_pairs(cluster2):
    channels = cluster2.channels
    mtype, _ = protocol.MESSAGE_TYPES["attest-request"]
    pairs = [(actor.agent, peer) for actor in cluster2.actors.values()
             for peer in (VERIFIER_PRINCIPAL, OCA_PRINCIPAL, actor.tee_name)]
    failures = []

    def exchange(a, b):
        try:
            for round_ in range(150):
                body = f"{a}>{b}#{round_}".encode()
                sealed = channels.seal(mtype, a, b, b"s", body)
                if channels.open(mtype, a, b, b"s", sealed) != body:
                    failures.append((a, b))
        except AuthFailure:
            failures.append((a, b))

    threads = [threading.Thread(target=exchange, args=pair) for pair in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_tpm_backed_and_software_channels_coexist(cluster):
    actor = cluster.actor(0)
    for pair in ((actor.tpm_name, "verifier"), (actor.tee_name, actor.agent),
                 (actor.agent, protocol.OCA_PRINCIPAL)):
        key = cluster.channels.key(*pair)
        assert len(key) == 32
        assert cluster.channels.key(*reversed(pair)) == key
    # no flow sends between the owner CA and the verifier, so the pair
    # has no key
    with pytest.raises(AuthFailure):
        cluster.channels.key(OCA_PRINCIPAL, VERIFIER_PRINCIPAL)


# keyed pairs that no message flows on, by the two engines of one node,
# each with its reason
_KEYED_WITHOUT_TRAFFIC = {
    ("tpm", "tee"): "establish_channels keys it for every node, but the "
                    "agent carries each message between the two engines; "
                    "deleting it drops 5 ec_derive, 2 ECDH and 2 TPM ticks "
                    "per node, which moves perfbench's per-node 61 ec_derive "
                    "and 20 ECDH pins and the golden digests, so it waits "
                    "for a change to the benchmark",
}


def test_channel_table_keys_only_the_pairs_messages_flow_on(monkeypatch):
    sealed = set()
    real_seal = protocol.ChannelTable.seal

    def recording_seal(self, mtype, sender, receiver, session_id, body):
        sealed.add(frozenset((sender, receiver)))
        return real_seal(self, mtype, sender, receiver, session_id, body)

    monkeypatch.setattr(protocol.ChannelTable, "seal", recording_seal)
    c = harness.build_cluster(79, nodes=2)
    for actor in c.actors.values():
        for direction in verifier.LAYOUTS:
            protocol.run_attest_composite(
                actor, c.verifier_svc, c.channels, c.trace,
                policy_id=c.policy_id, direction=direction)
    keyed = {frozenset(pair) for pair in c.channels._keys}
    allowed = {frozenset((f"{actor.node_id}/{a}", f"{actor.node_id}/{b}"))
               for actor in c.actors.values()
               for a, b in _KEYED_WITHOUT_TRAFFIC}
    assert allowed <= keyed
    assert allowed.isdisjoint(sealed)
    assert keyed - allowed == sealed


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def test_initialization_registers_keys_and_certs(cluster):
    actor = cluster.actor(0)
    node = cluster.verifier_svc.node_keys(actor.node_id)
    assert node is not None
    assert node.aik.point == actor.aik_blob.public
    assert node.vcek.point == actor.vcek.public_bytes
    assert node.chip_id == actor.chip_id
    assert actor.vcek_cert is not None and actor.aik_cert is not None
    assert actor.identity_cert is not None and actor.pek_cert is not None
    assert actor.vcek_cert.verify(cluster.oca.key.public_bytes)
    assert actor.aik_cert.verify(cluster.oca.key.public_bytes)
    assert actor.identity_cert.verify(cluster.oca.key.public_bytes)
    # the platform endorsement cert chains to the chip key, not the CA
    assert actor.pek_cert.verify(actor.vcek.public_bytes)
    assert actor.master_secret is not None


def test_verifier_registers_the_certificates_it_was_sent(monkeypatch,
                                                         cluster):
    # the key-cert-info body carries another node's AIK certificate, and
    # the verifier's keys for the new node are the ones that arrived
    other = cluster.actor(0).aik_cert
    real_transfer = protocol._transfer

    def swapping_transfer(trace, channels, sender, receiver, mtype_name,
                          fields, **kwargs):
        if mtype_name == "key-cert-info":
            fields = {**fields, "cert": other}
        return real_transfer(trace, channels, sender, receiver, mtype_name,
                             fields, **kwargs)

    monkeypatch.setattr(protocol, "_transfer", swapping_transfer)
    actor = harness.add_node(cluster, 1)
    assert actor.aik_cert != other
    node = cluster.verifier_svc.node_keys(actor.node_id)
    assert node.aik.point == other.subject != actor.aik_blob.public
    assert node.vcek.point == actor.vcek_cert.subject


def test_holder_decrypt_names_the_certificate_it_received(monkeypatch,
                                                          cluster):
    # the cert-aik-info body carries another node's AIK certificate; the
    # TPM keeps the one that arrived, and its decrypt event names it
    other = cluster.actor(0).aik_cert
    real_transfer = protocol._transfer

    def swapping_transfer(trace, channels, sender, receiver, mtype_name,
                          fields, **kwargs):
        if mtype_name == "cert-aik-info":
            fields = {**fields, "cert": other}
        return real_transfer(trace, channels, sender, receiver, mtype_name,
                             fields, **kwargs)

    monkeypatch.setattr(protocol, "_transfer", swapping_transfer)
    trace = ProtocolTrace()
    actor = harness.add_node(cluster, 1, trace=trace)
    assert actor.aik_cert == other
    [decrypt] = [event for event in trace.events
                 if (event.kind, event.tag) == ("decrypt", "cert-aik-info")]
    assert decrypt.principal == actor.tpm_name
    assert decrypt.digest == other.digest.hex()
    assert decrypt.contents == (f"cert-aik:{other.digest.hex()}",)
    # the owner CA signed that certificate outside this trace
    assert not check_theorems(trace)["cert-provenance"].ok


def refused_at_registration(monkeypatch, cluster, outcome,
                            edit=lambda actor: None):
    """add_node of node 1, its actor edited by edit before enrollment, is
    refused at registration with outcome: the node gets no MasterSecret,
    the owner CA issues no identity certificate and does not read it
    active, and the verifier holds no keys for it. Returns the actor."""
    actors = []
    real_initialization = protocol.run_initialization

    def enrolling(actor, *args):
        actors.append(actor)
        edit(actor)
        return real_initialization(actor, *args)

    monkeypatch.setattr(protocol, "run_initialization", enrolling)
    with pytest.raises(BaselineRejected) as rejected:
        harness.add_node(cluster, 1)
    assert str(rejected.value) == (
        f"registration evidence rejected: {outcome.value}")
    [actor] = actors
    assert actor.master_secret is None and actor.identity_cert is None
    assert cluster.oca.nodes[actor.node_id].identity_cert is None
    assert (f"node {actor.node_id} status=aik-certified "
            in cluster.oca.snapshot())
    assert cluster.verifier_svc.node_keys(actor.node_id) is None
    return actor


def test_verifier_believes_the_certified_chip_id(monkeypatch, cluster):
    # the enrolling node asserts another chip id than its own and signs
    # its boot report under it; the owner CA appraises the report against
    # the chip id the vendor certified, so the node does not register
    asserted = crypto.sha256(b"asserted chip id")
    own = []

    def asserting(actor):
        own.append(actor.chip_id)
        actor.chip_id = asserted

    actor = refused_at_registration(
        monkeypatch, cluster, verifier.CompositeOutcome.IDENTITY_MISMATCH,
        asserting)
    assert actor.vendor_chain.vcek.hw_id == own[0] != asserted


def test_registration_refuses_a_node_below_the_tcb_floor(monkeypatch,
                                                          cluster):
    monkeypatch.setattr(harness, "STANDARD_TCB_VERSION",
                        harness.MIN_TCB_VERSION - 1)
    refused_at_registration(monkeypatch, cluster,
                            verifier.CompositeOutcome.TCB_REJECTED)


def test_registration_refuses_a_boot_report_that_embeds_evidence(
        monkeypatch, cluster):
    # a "tee" binding does not cover embedded bytes, so only the rule
    # that the innermost layer embeds nothing refuses them
    real_sign_layer = protocol.NodeActor.sign_layer

    def embedding(self, kind, binding, embedded, selection=()):
        return real_sign_layer(self, kind, binding, embedded or b"junk",
                               selection)

    monkeypatch.setattr(protocol.NodeActor, "sign_layer", embedding)
    refused_at_registration(monkeypatch, cluster,
                            verifier.CompositeOutcome.MALFORMED)


def test_one_pipeline_appraises_registration_and_attestation(monkeypatch,
                                                             cluster):
    directions = []
    real_appraise = verifier.appraise_layers

    def counting(direction, *args):
        directions.append(direction)
        return real_appraise(direction, *args)

    monkeypatch.setattr(verifier, "appraise_layers", counting)
    actor = harness.add_node(cluster, 1)
    assert directions == ["tee"]
    protocol.run_attest_composite(
        actor, cluster.verifier_svc, cluster.channels,
        ProtocolTrace(), policy_id=cluster.policy_id,
        direction="tpm-tee")
    assert directions == ["tee", "tpm-tee"]


def test_attest_returns_the_token_the_agent_received(monkeypatch, cluster):
    # the token-info body carries an earlier token of the same node, and
    # the token the agent holds is the one that arrived
    actor, svc = cluster.actor(0), cluster.verifier_svc
    earlier = protocol.run_attest_composite(
        actor, svc, cluster.channels, ProtocolTrace(),
        policy_id=cluster.policy_id, direction="tee")
    real_transfer = protocol._transfer

    def swapping_transfer(trace, channels, sender, receiver, mtype_name,
                          fields, **kwargs):
        if mtype_name == "token-info":
            fields = {**fields, "token": earlier.to_bytes()}
        return real_transfer(trace, channels, sender, receiver, mtype_name,
                             fields, **kwargs)

    monkeypatch.setattr(protocol, "_transfer", swapping_transfer)
    trace = ProtocolTrace()
    token = protocol.run_attest_composite(
        actor, svc, cluster.channels, trace,
        policy_id=cluster.policy_id, direction="tpm-tee")
    assert token == earlier
    assert token.token_type == "tee"
    # the trace's possession event names the token the agent holds
    decrypt = trace.events[-1]
    held = crypto.sha256(earlier.to_bytes()).hex()
    assert (decrypt.kind, decrypt.tag) == ("decrypt", "token-info")
    assert decrypt.digest == held
    assert decrypt.contents == (f"token:{held}",)
    # this trace holds no sign of that token, so the audit refuses it
    assert not check_theorems(trace)["token-provenance"].ok


class _ReadFields(dict):
    """A received body that records the fields read from it."""

    def __init__(self, fields: dict) -> None:
        super().__init__(fields)
        self.read: set[str] = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.read.add(name)
        return super().get(name, default)


class _ReadAttributes:
    """A received record that records the attributes read from it."""

    def __init__(self, record) -> None:
        self.record = record
        self.read: set[str] = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.record, name)


_ENVELOPE = "total-report envelope"

# (message, field) -> why no receiver reads it. Every other field of
# every MESSAGE_TYPES row, and of the envelope total-report carries, is
# read from each body that carries it.
_UNREAD_FIELDS = {
    ("pek-cert-info", "cert"):
        "channels are keyed with the PEK pair and the verifier drops its "
        "certificate; deleting it moves perfbench's per-node sign and "
        "ec_derive pins (ROADMAP item 3)",
    (_ENVELOPE, "node_id"):
        "the verifier reads the node off its own session entry; perfbench "
        "builds the envelope positionally (ROADMAP item 15)",
}


def test_every_received_field_is_read(monkeypatch):
    bodies = []
    real_transfer = protocol._transfer
    real_envelope = protocol.CompositeReportEnvelope.from_bytes

    def recording_transfer(trace, channels, sender, receiver, mtype_name,
                           fields, **kwargs):
        body = _ReadFields(real_transfer(trace, channels, sender, receiver,
                                         mtype_name, fields, **kwargs))
        bodies.append((mtype_name, body))
        return body

    def recording_envelope(raw):
        envelope = _ReadAttributes(real_envelope(raw))
        bodies.append((_ENVELOPE, envelope))
        return envelope

    monkeypatch.setattr(protocol, "_transfer", recording_transfer)
    monkeypatch.setattr(protocol.CompositeReportEnvelope, "from_bytes",
                        staticmethod(recording_envelope))
    cluster = harness.build_cluster(36, nodes=2)
    for index in range(2):
        for direction in verifier.LAYOUTS:
            protocol.run_attest_composite(
                cluster.actor(index), cluster.verifier_svc, cluster.channels,
                cluster.trace, policy_id=cluster.policy_id,
                direction=direction)
    layouts = {name: spec.attrs
               for name, (_code, spec) in protocol.MESSAGE_TYPES.items()}
    layouts[_ENVELOPE] = protocol.CompositeReportEnvelope.SPEC.attrs
    assert {name for name, _body in bodies} == layouts.keys()
    unread = {(name, field) for name, body in bodies
              for field in layouts[name] if field not in body.read}
    assert unread == _UNREAD_FIELDS.keys()


def test_attest_composite_both_directions(cluster):
    for direction in ("tpm-tee", "tee-tpm"):
        trace = ProtocolTrace()
        token = protocol.run_attest_composite(
            cluster.actor(0), cluster.verifier_svc, cluster.channels, trace,
            policy_id=cluster.policy_id, direction=direction)
        claims = cluster.verifier_svc.validate_token(token.compact())
        assert isinstance(claims, dict)
        assert claims["payload"]["type"] == direction
        assert trace.verifier_visible_sends() == 3


@pytest.mark.parametrize("direction", ["tpm-tee", "tee-tpm", "tee", "tpm"])
def test_attest_composite_builds_every_layout(cluster, direction):
    actor = cluster.actor(0)
    trace = ProtocolTrace()
    token = protocol.run_attest_composite(
        actor, cluster.verifier_svc, cluster.channels, trace,
        policy_id=cluster.policy_id, direction=direction)
    claims = cluster.verifier_svc.validate_token(token.compact())
    assert isinstance(claims, dict)
    assert claims["payload"]["type"] == direction
    assert trace.verifier_visible_sends() == 3
    # layers are signed innermost first; only the outermost is the total
    layout = verifier.LAYOUTS[direction]
    engine = {"tee": actor.tee_name, "tpm": actor.tpm_name}
    expected = [(engine[kind], f"{kind}-report")
                for kind in reversed(layout[1:])]
    expected.append((engine[layout[0]], "total-report"))
    assert [(e.principal, e.tag) for e in trace.events
            if e.kind == "sign" and e.principal != VERIFIER_PRINCIPAL] \
        == expected


@pytest.mark.parametrize("direction", ["tpm-tee", "tee-tpm"])
def test_attest_hashes_each_message_once(monkeypatch, cluster, direction):
    # one digest per transfer, per wire envelope and per token record
    calls = []
    real_sha256 = crypto.sha256

    def counting(data):
        calls.append(data)
        return real_sha256(data)

    monkeypatch.setattr(crypto, "sha256", counting)
    token = protocol.run_attest_composite(
        cluster.actor(0), cluster.verifier_svc, cluster.channels,
        ProtocolTrace(), policy_id=cluster.policy_id,
        direction=direction)
    assert isinstance(cluster.verifier_svc.validate_token(token), dict)
    assert len(calls) == 25
    # the token's key_id was hashed once, when the verifier was built
    assert cluster.verifier_svc.key.public_bytes not in calls


def test_receive_event_shares_the_send_events_digest(cluster):
    trace = ProtocolTrace()
    protocol.run_attest_composite(
        cluster.actor(0), cluster.verifier_svc, cluster.channels, trace,
        policy_id=cluster.policy_id)
    pairs = [(sent, received) for sent, received
             in zip(trace.events, trace.events[1:]) if sent.kind == "send"]
    assert len(pairs) == 7
    for sent, received in pairs:
        assert received.kind == "receive"
        assert received.digest is sent.digest


def _one_object_per_value(strings) -> int:
    """How many values strings holds, once each holds one object."""
    objects = {}
    for string in strings:
        assert objects.setdefault(string, string) is string, string
    return len(objects)


def test_each_traced_value_is_one_string_object(cluster):
    # a fleet trace keeps each value once: every event that names it
    # holds the object that the value's first event made
    actor, trace = cluster.actor(0), cluster.trace
    enrolled = len(trace.events)
    # each hand-off: the owner CA's check and sign, the send, receive and
    # decrypt of the certificate, and the holder's forward to the verifier
    deliveries = {"cert-vcek-info", "cert-aik-info", "identity-cert-info",
                  "cert-tee-info", "key-cert-info"}
    handed = [e for e in trace.events[:enrolled]
              if e.tag in deliveries or (e.principal == OCA_PRINCIPAL and
                                         e.kind in ("verify", "match", "sign"))]
    assert len(handed) == 3 * 5 + 2 * 2 + 1     # and the ek-cert verify
    # three key labels, three certificate labels and the MasterSecret's,
    # and the three certificates' digests
    assert _one_object_per_value(
        [c for e in handed for c in e.contents]
        + [e.digest for e in handed if e.kind in ("sign", "decrypt")]) == 10
    for direction in ("tpm-tee", "tee-tpm"):
        mark = len(trace.events)
        protocol.run_attest_composite(
            actor, cluster.verifier_svc, cluster.channels, trace,
            policy_id=cluster.policy_id, direction=direction)
        attest = trace.events[mark:]
        sessions = [c for e in attest for c in e.contents
                    if c.startswith("session:")]
        assert len(sessions) == 13
        assert _one_object_per_value(sessions) == 1
        tokens = [e for e in attest if "token" in e.tag]
        assert _one_object_per_value(
            [c for e in tokens for c in e.contents if c.startswith("token:")]
            + [e.digest for e in tokens if e.kind in ("sign", "decrypt")]) == 2
    # each device principal is one object in every event and channel key
    names = [name for e in trace.events for name in (e.principal, e.peer)]
    names += [name for pair in cluster.channels._keys for name in pair]
    for device in (actor.tee_name, actor.tpm_name):
        assert sum(name == device for name in names) > 20
        assert all(name is device for name in names if name == device)


def test_attest_composite_unknown_direction_opens_no_session(cluster):
    before = cluster.verifier_svc.nonces_issued
    trace = ProtocolTrace()
    with pytest.raises(ValueError, match="unknown direction"):
        protocol.run_attest_composite(
            cluster.actor(0), cluster.verifier_svc, cluster.channels, trace,
            policy_id=cluster.policy_id, direction="tee-tee")
    assert cluster.verifier_svc.nonces_issued == before
    assert trace.events == []


def test_attest_single_and_independent(cluster):
    trace = ProtocolTrace()
    tokens = protocol.run_attest_independent(
        cluster.actor(0), cluster.verifier_svc, cluster.channels, trace,
        policy_id=cluster.policy_id)
    assert [t.token_type for t in tokens] == ["tee", "tpm"]
    assert trace.verifier_visible_sends() == 6
    for token in tokens:
        assert isinstance(cluster.verifier_svc.validate_token(token.compact()),
                          dict)


def test_golden_trace_and_token_digests():
    # signatures commit to the encoding, so a refactor of the attestation
    # flows must leave both the trace bytes and the token bytes unchanged
    c = harness.build_cluster(4242, nodes=2)
    tokens = [
        protocol.run_attest_composite(
            c.actor(0), c.verifier_svc, c.channels, c.trace,
            policy_id=c.policy_id, direction="tpm-tee"),
        protocol.run_attest_composite(
            c.actor(1), c.verifier_svc, c.channels, c.trace,
            policy_id=c.policy_id, direction="tee-tpm"),
    ]
    tokens += protocol.run_attest_independent(
        c.actor(0), c.verifier_svc, c.channels, c.trace,
        policy_id=c.policy_id)
    assert len(c.trace.events) == 140
    assert c.trace.digest().hex() == (
        "a77b4e70b62de2849bc2168f452a266acb66fdb87b44a35e337fb4f8669c4435")
    assert crypto.sha256("".join(t.compact() for t in tokens).encode()).hex() \
        == "6910a878c56f96bb370ceb0679e409e131fc204c78dca1a6564088f38bc6d18f"


def test_golden_structure_encodings(tpm_snapshot):
    # the structures the golden trace never puts on the wire whole: a key
    # blob with its envelope, sealed data, a credential, a signed
    # manifest, the vendor chain, and a snapshot of the node's TPM state
    c = harness.build_cluster(4242, nodes=2)
    a = c.actor(0)
    encodings = {
        "aik-blob": a.aik_blob.to_bytes(),
        "tpm-state": tpm_snapshot(a.state),
        "sealed-blob": tpm.seal(a.state, b"pinned disk key",
                                (0, 4, 7)).to_bytes(),
        "credential": tpm.make_credential(
            crypto.Secret(bytes(range(32))), a.aik_blob.name,
            a.state.ek_blob.public,
            crypto.DeterministicRng(b"pinned-credential")).to_bytes(),
        "manifest": measurement.sign_manifest(
            c.publisher, "kernel", b"pinned kernel").to_bytes(),
        "cert-chain": a.vendor_chain.to_bytes(),
        # a blob from each creator: the primaries of three hierarchies and
        # a CVM root under each scheme
        "ek-blob": a.state.ek_blob.to_bytes(),
        "srk-blob": tpm.create_primary(a.state, "storage").to_bytes(),
        "cvm-srk-blob-storage": a.cvm_root_blob.to_bytes(),
    }
    cc_srk = tpm.create_primary(a.state, "cc")
    encodings["cc-srk-blob"] = cc_srk.to_bytes()
    encodings["cvm-srk-blob-cc"] = tpm.create_cvm_root_key(
        a.state, tpm.create_cvm_key(a.state, b"pinned-vm"),
        tpm.load_key(a.state, cc_srk), cvm_id=b"pinned-vm").to_bytes()
    assert {name: crypto.sha256(raw).hex()
            for name, raw in encodings.items()} == {
        "aik-blob": "2c7ad09452337c8b6f15ca0f91796819cd5e33ae96f524cdbcace6a0220b0139",
        "tpm-state": "5ed8a2223b35104475d9a43d490f5652b3f1392c68a12eb17cfe904e2fea7a21",
        "sealed-blob": "3ce4d9d8b2094f3d99b24a985a404410da9d00d77f940afb20173de0475da5f1",
        "credential": "32b5b1fadfe9aad0ac6821662c5a5283495967c6be447b1aa1237d1d1643b625",
        "manifest": "2388c8f28f47aa6afc40b766d8bb7edbd1abbe29503b010b440eed2b5ccaeae2",
        "cert-chain": "3d072c1dd7a32d0c4839ea974d1aeb31932a52a3d7e859a5fae9ea13ae1be806",
        "ek-blob": "7f43bb11ebcbd24a9eb335e3244b811f132aa793816dcbf2e2565c02c76d9671",
        "srk-blob": "eed5cfb81ce7bd5983010401904709bb2e0f33ab872cc4e2d2ff7b94b34db72e",
        "cvm-srk-blob-storage": "6d33ad7dddac81fc8b22f83b8d82f1bedea0bd5fa2f243948d62f4287d76e2c3",
        "cc-srk-blob": "0df1e1485f93d7d4e507e9f0d2b07a5c8f57523e65e83dd99aea60f33a59ca7f",
        "cvm-srk-blob-cc": "2aed57ceebcc24930cf5b8758a298ca654e279af8d239cc5326493179aa69ab5",
    }


def test_attest_rejection_raises_with_outcome(cluster):
    def sabotage(envelope):
        return dataclasses.replace(envelope, evidence=b"junk")

    trace = ProtocolTrace()
    with pytest.raises(AttestationRejected) as info:
        protocol.run_attest_composite(
            cluster.actor(0), cluster.verifier_svc, cluster.channels, trace,
            policy_id=cluster.policy_id, evidence_mutator=sabotage)
    assert info.value.cause is verifier.CompositeOutcome.MALFORMED
