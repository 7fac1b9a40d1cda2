"""Protocol layer: trace recording, sealed channels, the initialization
and attestation flows, and the trace-property checker."""

import dataclasses
import random
import sys
import threading
from collections import Counter

import pytest

from ccxtrust import crypto, harness, measurement, protocol, tpm, verifier
from ccxtrust.errors import (
    AttestationRejected,
    AuthFailure,
    BaselineRejected,
    DecodeError,
)
from ccxtrust.trace import (
    OCA_PRINCIPAL,
    VERIFIER_PRINCIPAL,
    ProtocolTrace,
    TheoremVerdict,
    TraceEvent,
    check_theorems,
)


def read_text(tmp_path, text: str) -> ProtocolTrace:
    """The trace read from a file that holds text, UTF-8 encoded."""
    path = tmp_path / "text.log"
    path.write_bytes(text.encode())
    return ProtocolTrace.read(path)


@pytest.fixture()
def cluster():
    return harness.build_cluster(77, nodes=1)


@pytest.fixture()
def cluster2():
    return harness.build_cluster(78, nodes=2)


# ---------------------------------------------------------------------------
# trace events
# ---------------------------------------------------------------------------

def test_trace_event_line_round_trip():
    event = TraceEvent(
        "node0000/tpm", "sign", peer="-",
        digest=crypto.sha256(b"x").hex(), tag="total-report", ok=True,
        contents=("session:" + "ab" * 32, "quote:" + "cd" * 32))
    parsed = TraceEvent.from_line(event.line(3), 3)
    assert parsed == event


def test_trace_event_defaults_round_trip():
    event = TraceEvent("verifier", "new")
    parsed = TraceEvent.from_line(event.line(0), 0)
    assert parsed == event
    assert parsed.peer == "-"
    assert parsed.ok is None
    assert parsed.contents == ()


@pytest.mark.parametrize("line, index, reason", [
    ("0 verifier forge - - - - -", 0, "unknown event kind 'forge'"),
    ("3 verifier new - - - - -", 2, "contiguous, got 3 at position 2"),
    # every column parses, and the line still is not what line() writes
    ("01 verifier new - - - - -", 1, "not canonical"),
], ids=["unknown-kind", "index-not-position", "non-canonical"])
def test_trace_line_decode_errors(line, index, reason):
    with pytest.raises(DecodeError, match=reason):
        TraceEvent.from_line(line, index)


def test_trace_text_round_trip_and_digest(tmp_path, cluster):
    trace = cluster.trace
    assert len(trace.events) > 0
    text = trace.text()
    parsed = read_text(tmp_path, text)
    assert parsed.events == trace.events
    assert parsed.digest() == trace.digest()


def test_trace_read_rejects_gap(tmp_path, cluster):
    lines = cluster.trace.lines()
    gap = lines[:2] + lines[3:]
    bad_index = lines + ["x verifier send - - - - -"]
    bad_ok = lines + [f"{len(lines)} verifier send - - - 2 -"]
    plus_index = lines + [f"+{len(lines)} verifier send - - - - -"]
    for broken in (gap, bad_index, bad_ok, plus_index):
        with pytest.raises(DecodeError):
            read_text(tmp_path, "\n".join(broken) + "\n")


def test_trace_read_accepts_only_canonical_text(tmp_path, cluster):
    text = cluster.trace.text()
    first, rest = text.split("\n", 1)
    for broken in (first + "\n\n" + rest,         # blank line
                   text + "  \t\n",               # whitespace-only line
                   text.replace("\n", "\r\n"),    # CRLF line endings
                   text[:-1],                      # no final newline
                   # a line break other than "\n" stays inside its line
                   first + "\r" + rest,
                   first + "\x0c" + rest,
                   first + "\x1e" + rest):
        with pytest.raises(DecodeError):
            read_text(tmp_path, broken)
    assert read_text(tmp_path, text).events == cluster.trace.events
    assert read_text(tmp_path, "").events == []


def test_trace_reader_checks_lines_and_holds_each_value_once(
        tmp_path, monkeypatch, cluster):
    # each line is checked as it is parsed, so no reader builds text();
    # every principal, kind, peer, digest, tag and content label of the
    # trace read is one string object per value, across all its events
    path = tmp_path / "trace.log"
    cluster.trace.write(path)

    def whole_text(self):
        raise AssertionError("the reader rendered text()")

    monkeypatch.setattr(ProtocolTrace, "text", whole_text)
    loaded = ProtocolTrace.read(path)
    assert loaded.events == cluster.trace.events
    assert loaded.digest() == cluster.trace.digest()
    objects: dict[str, set[int]] = {}
    for event in loaded.events:
        for value in (event.principal, event.kind, event.peer,
                      event.digest, event.tag, *event.contents):
            objects.setdefault(value, set()).add(id(value))
    assert len(objects) > 20
    assert {value: len(ids) for value, ids in objects.items()
            if len(ids) > 1} == {}


def test_trace_write_read(tmp_path, cluster):
    path = tmp_path / "trace.log"
    cluster.trace.write(path)
    loaded = ProtocolTrace.read(path)
    assert loaded.digest() == cluster.trace.digest()


def test_digest_and_write_stream_exactly_the_text(tmp_path, honest31):
    # digest() and write() take the text a line at a time; each gives
    # what the whole text() gives, final newline and empty trace included
    honest = ProtocolTrace(honest31)
    traces = [ProtocolTrace(), honest,
              read_text(tmp_path, honest.text())]
    traces += [ProtocolTrace(edit(honest31))
               for _title, edit, _violated in harness.FAULT_TRACES.values()]
    path = tmp_path / "trace.log"
    for trace in traces:
        text = trace.text()
        assert text.endswith("\n") == bool(trace.events)
        assert trace.digest() == crypto.sha256(text.encode())
        trace.write(path)
        assert path.read_bytes() == text.encode()
    assert traces[0].digest() == crypto.sha256(b"")
    assert honest.digest().hex().startswith("8ae10792")


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
    from ccxtrust import verifier

    def sabotage(envelope):
        import dataclasses
        return dataclasses.replace(envelope, evidence=b"junk")

    trace = ProtocolTrace()
    with pytest.raises(AttestationRejected) as info:
        protocol.run_attest_composite(
            cluster.actor(0), cluster.verifier_svc, cluster.channels, trace,
            policy_id=cluster.policy_id, evidence_mutator=sabotage)
    assert info.value.cause is verifier.CompositeOutcome.MALFORMED


# ---------------------------------------------------------------------------
# theorem checking
# ---------------------------------------------------------------------------

def attested_trace(cluster):
    trace = ProtocolTrace(cluster.trace.events)
    protocol.run_attest_composite(
        cluster.actor(0), cluster.verifier_svc, cluster.channels, trace,
        policy_id=cluster.policy_id)
    return trace


def test_honest_trace_passes_all_theorems(cluster):
    verdicts = check_theorems(attested_trace(cluster))
    assert set(verdicts) == {"cert-provenance", "token-provenance",
                             "attest-order"}
    for verdict in verdicts.values():
        assert verdict.ok, verdict.line()


def test_theorem_verdict_lines_are_parseable(cluster):
    for verdict in check_theorems(attested_trace(cluster)).values():
        line = verdict.line()
        assert line.split()[0] == verdict.name
        assert line.split()[1] == "pass"


def test_checker_works_from_serialized_trace(tmp_path, cluster):
    text = attested_trace(cluster).text()
    reloaded = read_text(tmp_path, text)
    verdicts = check_theorems(reloaded)
    assert all(v.ok for v in verdicts.values())


def _edit_kind(before: list, after: list) -> str | None:
    """How after differs from before in one event: "deletion", "move",
    or the one field of one event that changed; None for anything else."""
    both = min(len(before), len(after))
    head = next((i for i in range(both) if before[i] != after[i]), both)
    tail = next((i for i in range(both - head)
                 if before[-1 - i] != after[-1 - i]), both - head)
    was, now = before[head:len(before) - tail], after[head:len(after) - tail]
    if len(was) == 1 and not now:
        return "deletion"
    if len(was) == len(now) == 1:
        changed = [f.name for f in dataclasses.fields(TraceEvent)
                   if getattr(was[0], f.name) != getattr(now[0], f.name)]
        return changed[0] if len(changed) == 1 else None
    if len(was) == len(now) > 1 and now in (was[1:] + was[:1],
                                             was[-1:] + was[:-1]):
        return "move"
    return None


_FAULT_EDITS = {"forged-cert": "principal", "forged-token": "deletion",
                "reordered-sign": "move", "unvouched-identity": "deletion"}


@pytest.mark.parametrize("seed,nodes", [(31, 2), (45, 2), (99, 3)],
                         ids=["31x2", "45x2", "99x3"])
def test_each_fault_is_one_edit_failing_only_its_property(seed, nodes):
    honest = harness.run_scenario(seed, nodes=nodes).trace.events
    assert all(v.ok for v in check_theorems(ProtocolTrace(honest)).values())
    assert _FAULT_EDITS.keys() == harness.FAULT_TRACES.keys()
    for name, (_title, edit, violated) in harness.FAULT_TRACES.items():
        events = edit(honest)
        assert _edit_kind(honest, events) == _FAULT_EDITS[name], name
        verdicts = check_theorems(ProtocolTrace(events))
        assert [n for n, v in verdicts.items() if not v.ok] == [violated], name
        assert verdicts[violated].witness, name


@pytest.fixture(scope="module")
def honest31():
    return harness.run_scenario(31, nodes=2).trace.events


def _fault(honest, name):
    """The named gallery fault as an edit of honest, with its verdicts."""
    _title, edit, _violated = harness.FAULT_TRACES[name]
    events = edit(honest)
    return events, check_theorems(ProtocolTrace(events))


def test_forged_cert_fails_exactly_cert_provenance(honest31):
    events, verdicts = _fault(honest31, "forged-cert")
    assert not verdicts["cert-provenance"].ok
    assert verdicts["token-provenance"].ok
    assert verdicts["attest-order"].ok
    # the witness holds the certificate the re-attributed sign produced
    forged = next(e for e in events if e.principal == "mallory")
    (held,) = (events[i] for i in verdicts["cert-provenance"].witness)
    assert (forged.kind, forged.tag) == ("sign", "cert-vcek")
    assert held.kind == "decrypt" and held.digest == forged.digest


def test_forged_token_fails_exactly_token_provenance(honest31):
    events, verdicts = _fault(honest31, "forged-token")
    assert verdicts["cert-provenance"].ok
    assert not verdicts["token-provenance"].ok
    assert verdicts["attest-order"].ok
    # the witness holds the token whose verifier sign was deleted
    deleted = next(e for e in honest31 if e not in events)
    (held,) = (events[i] for i in verdicts["token-provenance"].witness)
    assert (deleted.principal, deleted.kind, deleted.tag) == (
        VERIFIER_PRINCIPAL, "sign", "token")
    assert held.kind == "decrypt" and held.digest == deleted.digest


def test_reordered_sign_fails_exactly_attest_order(honest31):
    events, verdicts = _fault(honest31, "reordered-sign")
    assert verdicts["cert-provenance"].ok
    assert verdicts["token-provenance"].ok
    assert not verdicts["attest-order"].ok
    # the witness is the evidence sign moved ahead of its request
    assert verdicts["attest-order"].witness == (0,)
    assert (events[0].kind, events[0].tag) == ("sign", "total-report")


@pytest.mark.parametrize("tag,key,label", [
    ("registration-evidence", "identity-pub", "cert-identity"),
    ("vendor-chain", "vcek-pub", "cert-vcek"),
])
def test_one_nodes_check_does_not_vouch_for_another(cluster2, tag, key,
                                                    label):
    # the enrollment trace without the owner CA's check of the second
    # node's key: the first node's check of the same tag names another key
    actor = cluster2.actor(1)
    public = actor.identity if key == "identity-pub" else actor.vcek
    named = f"{key}:{crypto.sha256(public.public_bytes).hex()}"
    trace = ProtocolTrace(
        e for e in cluster2.trace.events
        if e.kind != "verify" or named not in e.contents)
    assert len(trace.events) == len(cluster2.trace.events) - 1
    verdicts = check_theorems(trace)
    assert verdicts["token-provenance"].ok and verdicts["attest-order"].ok
    verdict = verdicts["cert-provenance"]
    sign, decrypt = (trace.events[i] for i in verdict.witness)
    assert not verdict.ok
    assert (sign.principal, sign.kind, sign.tag) == (OCA_PRINCIPAL, "sign",
                                                     label)
    assert decrypt.kind == "decrypt" and decrypt.principal.startswith(
        actor.node_id)
    assert verdict.reason == (f"{OCA_PRINCIPAL} signed {label} "
                              f"{sign.digest[:16]} without prior {tag} "
                              "evidence")
    if tag == "registration-evidence":
        _title, edit, _violated = harness.FAULT_TRACES["unvouched-identity"]
        assert trace.events == edit(cluster2.trace.events)


def test_an_edited_event_list_judges_by_position(tmp_path, cluster):
    # a move, a deletion and a duplicate of one event of an honest trace
    # judge as the edited trace read back from its own text
    honest = attested_trace(cluster).events
    sign = next(i for i, e in enumerate(honest)
                if e.kind == "sign" and e.tag == "total-report")
    edits = {"move": [honest[sign], *honest[:sign], *honest[sign + 1:]],
             "deletion": honest[1:],
             "duplicate": [*honest, honest[sign]]}
    for name, events in edits.items():
        trace = ProtocolTrace(events)
        reread = read_text(tmp_path, trace.text())
        assert reread.events == events, name
        assert check_theorems(trace) == check_theorems(reread), name
    # deleting the first event moves every witness one place earlier
    verdicts = check_theorems(ProtocolTrace(honest))
    shifted = check_theorems(ProtocolTrace(honest[1:]))
    for name, verdict in verdicts.items():
        assert verdict.ok and verdict.witness, name
        assert shifted[name] == dataclasses.replace(
            verdict, witness=tuple(i - 1 for i in verdict.witness)), name
    assert not check_theorems(ProtocolTrace(edits["move"]))["attest-order"].ok


_CERT_HEX = "ab" * 32
_VCEK_KEY = f"vcek-pub:{'12' * 32}"


def _vcek_cert_trace(tmp_path, holder: str) -> ProtocolTrace:
    """The owner CA checks a vendor chain for a chip key, signs a VCEK
    certificate for that key and sends it to node0001's TEE; then the
    holder decrypts it."""
    cert = f"cert-vcek:{_CERT_HEX}"
    return read_text(
        tmp_path,
        f"0 owner-ca verify - {'cd' * 32} vendor-chain 1 {_VCEK_KEY}\n"
        f"1 owner-ca sign - {_CERT_HEX} cert-vcek - {cert},{_VCEK_KEY}\n"
        f"2 owner-ca send node0001/tee {'ef' * 32} cert-vcek-info - {cert}\n"
        f"3 {holder} decrypt - {_CERT_HEX} cert-vcek-info - {cert}\n")


def test_base_principal_folds_engine_names(tmp_path):
    # a send to one engine of a node justifies the node and each engine
    for holder in ("node0001/tee", "node0001/tpm", "node0001"):
        verdict = check_theorems(
            _vcek_cert_trace(tmp_path, holder))["cert-provenance"]
        assert verdict.ok and verdict.witness == (3,), holder
    verdict = check_theorems(
        _vcek_cert_trace(tmp_path, "node0002/tee"))["cert-provenance"]
    assert verdict == TheoremVerdict(
        "cert-provenance", False,
        f"owner-ca never sent cert-vcek {_CERT_HEX[:16]} to node0002", (3,))


def test_prior_check_vouches_only_before_for_the_key_it_names(tmp_path):
    # the vendor-chain check names another chip key; or the certificate,
    # not under the key's label; or it comes after the sign
    lines = _vcek_cert_trace(tmp_path, "node0001/tee").lines()
    other_key = lines[0].replace(_VCEK_KEY, f"vcek-pub:{'34' * 32}")
    the_cert = lines[0].replace(_VCEK_KEY, f"cert-vcek:{_CERT_HEX}")
    for edited, sign in (([other_key] + lines[1:], 1),
                         ([the_cert] + lines[1:], 1),
                         ([lines[1], lines[0]] + lines[2:], 0)):
        text = "".join(f"{i} {line.split(' ', 1)[1]}\n"
                       for i, line in enumerate(edited))
        verdict = check_theorems(
            read_text(tmp_path, text))["cert-provenance"]
        assert verdict == TheoremVerdict(
            "cert-provenance", False,
            f"owner-ca signed cert-vcek {_CERT_HEX[:16]} without prior "
            "vendor-chain evidence", (sign, 3)), text


def _early_sign_trace():
    """One node attested twice (tpm-tee, build_cluster(5, 1)), its second
    total-report sign moved before its attest-request receipt and naming
    the first, requested session too; and the session it was made for."""
    cluster = harness.build_cluster(5, 1)
    trace = ProtocolTrace()
    for _ in range(2):
        protocol.run_attest_composite(
            cluster.actor(0), cluster.verifier_svc, cluster.channels, trace,
            policy_id=cluster.policy_id, direction="tpm-tee")
    events = trace.events
    first, second = (e for e in events
                     if e.kind == "sign" and e.tag == "total-report")
    receipt = [e for e in events if e.kind == "receive"
               and e.tag == "attest-request"][1]
    session = next(c for c in second.contents if c.startswith("session:"))
    assert session in receipt.contents
    earlier = next(c for c in first.contents if c.startswith("session:"))
    moved = dataclasses.replace(second, contents=(*second.contents, earlier))
    at = events.index(receipt)
    early = ProtocolTrace(events[:at] + [moved] + [
        e for e in events[at:] if e is not second])
    return early, session.partition(":")[2]


def test_evidence_needs_a_request_for_every_session_it_names():
    # naming an earlier, requested session does not excuse evidence
    # signed before the request for its own session arrived
    trace, session = _early_sign_trace()
    assert check_theorems(trace)["attest-order"] == TheoremVerdict(
        "attest-order", False, f"node0000 signed evidence for session "
        f"{session[:16]} before receiving the request", (22,))


def _second_sign_trace(tag: str):
    """The honest run_scenario(31) trace with a copy of its first sign of
    tag appended: a second evidence signature (total-report) or a second
    token (token) for a session that has one; and that first sign."""
    trace = harness.run_scenario(31).trace
    first = next(e for e in trace.events if e.kind == "sign" and e.tag == tag)
    return ProtocolTrace([*trace.events, first]), first


def test_each_session_is_answered_by_one_evidence_signature():
    # Lowe's injective agreement: a request buys at most one evidence
    # signature, so a copy of an answered session's sign fails
    trace, first = _second_sign_trace("total-report")
    session = next(c for c in first.contents if c.startswith("session:"))
    assert check_theorems(trace)["attest-order"] == TheoremVerdict(
        "attest-order", False, "node0000 signed second evidence for "
        f"session {session[8:24]}",
        (trace.events.index(first), len(trace.events) - 1))


def test_each_session_is_given_one_token():
    # injective agreement for tokens: a session's one appraisal buys one
    # token, so a copy of a session's token sign fails
    trace, first = _second_sign_trace("token")
    session = next(c for c in first.contents if c.startswith("session:"))
    verdicts = check_theorems(trace)
    assert verdicts["attest-order"] == TheoremVerdict(
        "attest-order", False, f"{VERIFIER_PRINCIPAL} signed a second token "
        f"for session {session[8:24]}",
        (trace.events.index(first), len(trace.events) - 1))
    assert verdicts["cert-provenance"].ok and verdicts["token-provenance"].ok


# The exact verdict lines, reasons and witnesses included, that
# check_theorems gives the honest run_scenario(31) trace and each fault
# of the gallery, an edit of that trace.
_PINNED_VERDICT_LINES = {
    "forged-cert": (
        "cert-provenance FAIL witness=6 node0000 holds cert-vcek "
        "22131b2bdb54129d never signed by owner-ca",
        "token-provenance pass witness=89,109 2 token possessions justified",
        "attest-order pass witness=80,100 2 evidence signatures in order"),
    "forged-token": (
        "cert-provenance pass witness=6,22,34,41,57,69 6 certificate "
        "possessions justified",
        "token-provenance FAIL witness=88 node0000 holds token "
        "5fd0220990d7ee68 never signed by verifier",
        "attest-order pass witness=80,99 2 evidence signatures in order"),
    "reordered-sign": (
        "cert-provenance pass witness=7,23,35,42,58,70 6 certificate "
        "possessions justified",
        "token-provenance pass witness=89,109 2 token possessions justified",
        "attest-order FAIL witness=0 node0000 signed evidence for session "
        "711d762b310276c2 before receiving the request"),
    "unvouched-identity": (
        "cert-provenance FAIL witness=65,68 owner-ca signed cert-identity "
        "9701ba1bd800d185 without prior registration-evidence evidence",
        "token-provenance pass witness=88,108 2 token possessions justified",
        "attest-order pass witness=79,99 2 evidence signatures in order"),
    "honest": (
        "cert-provenance pass witness=6,22,34,41,57,69 6 certificate "
        "possessions justified",
        "token-provenance pass witness=89,109 2 token possessions justified",
        "attest-order pass witness=80,100 2 evidence signatures in order"),
}


@pytest.mark.parametrize("name", [*harness.FAULT_TRACES, "honest"])
def test_checker_prints_the_pinned_verdict_lines(name):
    trace = harness.run_scenario(31).trace
    if name != "honest":
        trace = ProtocolTrace(
            harness.FAULT_TRACES[name][1](trace.events))
    lines = tuple(v.line() for v in check_theorems(trace).values())
    assert lines == _PINNED_VERDICT_LINES[name]


# ---------------------------------------------------------------------------
# differential check against the quadratic reference checker
# ---------------------------------------------------------------------------

# The checker before it became one indexed pass: every possession and
# every evidence signature rescans all earlier events. Kept as the oracle
# the single-pass check_theorems must match verdict for verdict.

_ORACLE_CERT_LABELS = ("cert-vcek", "cert-aik", "cert-identity")

# label -> the owner CA's check, and the label of the key both it and the
# certificate's sign must name
_ORACLE_CERT_EVIDENCE = {
    "cert-vcek": ("verify", "vendor-chain", "vcek-pub"),
    "cert-aik": ("match", "credential-nonce", "aik-pub"),
    "cert-identity": ("verify", "registration-evidence", "identity-pub"),
}


def base_principal(principal: str) -> str:
    """Platform identity of a principal: engines fold into their node."""
    return principal.split("/", 1)[0]


def _labeled(event, label: str) -> list[str]:
    """Hex digests an event carries under a given content label."""
    prefix = label + ":"
    return [c[len(prefix):] for c in event.contents if c.startswith(prefix)]


def _oracle_check_theorems(trace, *, oca=OCA_PRINCIPAL,
                           verifier=VERIFIER_PRINCIPAL):
    events = trace.events
    return {
        "cert-provenance": _check_cert_provenance(events, oca),
        "token-provenance": _check_token_provenance(events, verifier),
        "attest-order": _check_attest_order(events, verifier),
    }


def _possessions(events, labels) -> list[tuple[int, TraceEvent, str, str]]:
    """(index, event, label, hex) for every labeled value a principal
    takes possession of by decrypting."""
    found = []
    for index, event in enumerate(events):
        if event.kind != "decrypt":
            continue
        for label in labels:
            for hexdigest in _labeled(event, label):
                found.append((index, event, label, hexdigest))
    return found


def _check_cert_provenance(events, oca) -> TheoremVerdict:
    witnesses = []
    for index, event, label, hexdigest in _possessions(events,
                                                       _ORACLE_CERT_LABELS):
        holder = base_principal(event.principal)
        earlier = events[:index]
        signed = [i for i, e in enumerate(earlier)
                  if e.kind == "sign" and e.principal == oca
                  and e.digest == hexdigest]
        if not signed:
            return TheoremVerdict(
                "cert-provenance", False,
                f"{holder} holds {label} {hexdigest[:16]} never signed by {oca}",
                (index,))
        sign_index = signed[0]
        evidence_kind, evidence_tag, key = _ORACLE_CERT_EVIDENCE[label]
        # the check must name a key that the first sign certifies
        keys = {f"{key}:{k}" for k in _labeled(events[sign_index], key)}
        vouched = any(e.kind == evidence_kind and e.tag == evidence_tag
                      and e.principal == oca and e.ok
                      and keys.intersection(e.contents)
                      for e in events[:sign_index])
        if not vouched:
            return TheoremVerdict(
                "cert-provenance", False,
                f"{oca} signed {label} {hexdigest[:16]} without prior "
                f"{evidence_tag} evidence", (sign_index, index))
        delivered = any(e.kind == "send" and e.principal == oca
                        and base_principal(e.peer) == holder
                        and f"{label}:{hexdigest}" in e.contents
                        for e in earlier)
        if not delivered:
            return TheoremVerdict(
                "cert-provenance", False,
                f"{oca} never sent {label} {hexdigest[:16]} to {holder}",
                (index,))
        witnesses.append(index)
    return TheoremVerdict("cert-provenance", True,
                          f"{len(witnesses)} certificate possessions justified",
                          tuple(witnesses))


def _check_token_provenance(events, verifier) -> TheoremVerdict:
    witnesses = []
    for index, event, _label, hexdigest in _possessions(events, ("token",)):
        holder = base_principal(event.principal)
        earlier = events[:index]
        signed = any(e.kind == "sign" and e.principal == verifier
                     and e.digest == hexdigest for e in earlier)
        if not signed:
            return TheoremVerdict(
                "token-provenance", False,
                f"{holder} holds token {hexdigest[:16]} never signed by "
                f"{verifier}", (index,))
        delivered = any(e.kind == "send" and e.principal == verifier
                        and base_principal(e.peer) == holder
                        and f"token:{hexdigest}" in e.contents
                        for e in earlier)
        if not delivered:
            return TheoremVerdict(
                "token-provenance", False,
                f"{verifier} never sent token {hexdigest[:16]} to {holder}",
                (index,))
        witnesses.append(index)
    return TheoremVerdict("token-provenance", True,
                          f"{len(witnesses)} token possessions justified",
                          tuple(witnesses))


def _check_attest_order(events, verifier) -> TheoremVerdict:
    checked = []
    for index, event in enumerate(events):
        if event.kind == "sign" and event.tag == "token" \
                and event.principal != verifier:
            return TheoremVerdict(
                "attest-order", False,
                f"{event.principal} signed a token; only {verifier} may",
                (index,))
        if event.kind == "sign" and event.tag == "token":
            # and no session it names given a token by an earlier sign
            for session in _labeled(event, "session"):
                minted = [i for i, e in enumerate(events[:index])
                          if e.kind == "sign" and e.tag == "token"
                          and session in _labeled(e, "session")]
                if minted:
                    return TheoremVerdict(
                        "attest-order", False,
                        f"{verifier} signed a second token for session "
                        f"{session[:16]}", (minted[0], index))
            continue
        if event.kind != "sign" or event.tag != "total-report":
            continue
        prover = base_principal(event.principal)
        sessions = _labeled(event, "session")
        # every session the evidence names, and at least one, requested
        unrequested = [s for s in sessions if not any(
            e.kind == "receive" and e.tag == "attest-request"
            and base_principal(e.principal) == prover
            and e.peer == verifier and s in _labeled(e, "session")
            for e in events[:index])]
        if unrequested or not sessions:
            return TheoremVerdict(
                "attest-order", False,
                f"{prover} signed evidence for session "
                f"{(*unrequested, '?')[0][:16]} before receiving "
                f"the request", (index,))
        # and no session it names answered by an earlier evidence sign
        for session in sessions:
            answered = [i for i, e in enumerate(events[:index])
                        if e.kind == "sign" and e.tag == "total-report"
                        and session in _labeled(e, "session")]
            if answered:
                return TheoremVerdict(
                    "attest-order", False,
                    f"{prover} signed second evidence for session "
                    f"{session[:16]}", (answered[0], index))
        checked.append(index)
    return TheoremVerdict("attest-order", True,
                          f"{len(checked)} evidence signatures in order",
                          tuple(checked))


def _mutate(events, rng, pool):
    """One seeded edit of an event list: drop, duplicate, swap adjacent,
    move, or relabel one label:hex content."""
    events = list(events)
    pos = rng.randrange(len(events))
    op = rng.choice(("drop", "duplicate", "swap", "move", "relabel"))
    if op == "drop":
        del events[pos]
    elif op == "duplicate":
        events.insert(rng.randrange(len(events) + 1), events[pos])
    elif op == "swap" and pos + 1 < len(events):
        events[pos], events[pos + 1] = events[pos + 1], events[pos]
    elif op == "move":
        event = events.pop(pos)
        events.insert(rng.randrange(len(events) + 1), event)
    elif op == "relabel":
        with_contents = [i for i, e in enumerate(events) if e.contents]
        pos = rng.choice(with_contents)
        event = events[pos]
        which = rng.randrange(len(event.contents))
        _label, hexdigest = event.contents[which].split(":", 1)
        contents = list(event.contents)
        contents[which] = f"{rng.choice(pool)}:{hexdigest}"
        events[pos] = dataclasses.replace(event, contents=tuple(contents))
    return events


def test_trace_event_is_slotted_and_frozen():
    event = TraceEvent("verifier", "new")
    assert "__slots__" in vars(TraceEvent)
    assert not hasattr(event, "__dict__")
    edited = dataclasses.replace(event, contents=("session:ab",))
    assert edited.line(3) == "3 verifier new - - - - session:ab"
    assert edited == TraceEvent.from_line(edited.line(3), 3)
    assert event.contents == () and event != edited
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.kind = "sign"


def _with_decrypt(tmp_path, trace, principal, *contents) -> ProtocolTrace:
    """The trace, read back from its text with one decrypt appended."""
    event = TraceEvent(principal, "decrypt", tag="cert-vcek-info",
                       contents=contents)
    return read_text(tmp_path,
                     trace.text() + event.line(len(trace.events)) + "\n")


def _rare_checker_cases(tmp_path, trace, holder):
    """Traces that random edits of an honest trace rarely build: one
    decrypt holding two unsigned certificates, listed out of label
    order; one holding both an unsigned certificate and an unsigned
    token; one whose labels carry no ":" and so name no possession."""
    return {
        "two-certs": _with_decrypt(tmp_path, trace, holder,
                                   f"cert-aik:{'11' * 32}",
                                   f"cert-vcek:{'22' * 32}"),
        "cert-and-token": _with_decrypt(tmp_path, trace, holder,
                                        f"token:{'33' * 32}",
                                        f"cert-identity:{'44' * 32}"),
        "no-colon": _with_decrypt(tmp_path, trace, holder, "token",
                                  "cert-vcek"),
    }


def test_single_pass_checker_matches_quadratic_oracle(tmp_path, cluster2):
    honest = ProtocolTrace(cluster2.trace.events)
    for index, direction in ((0, "tpm-tee"), (1, "tee-tpm")):
        protocol.run_attest_composite(
            cluster2.actor(index), cluster2.verifier_svc, cluster2.channels,
            honest, policy_id=cluster2.policy_id, direction=direction)
    labels = sorted({c.split(":", 1)[0] for e in honest.events
                     for c in e.contents})
    rng = random.Random(20261018)
    # no content edit makes a node sign a token, so one case does it
    token_sign = next(i for i, e in enumerate(honest.events)
                      if e.kind == "sign" and e.tag == "token")
    node_signs_token = ProtocolTrace(
        honest.events[:token_sign]
        + [dataclasses.replace(honest.events[token_sign],
                               principal=cluster2.actor(0).agent)]
        + honest.events[token_sign + 1:])
    holder = cluster2.actor(0).agent
    rare = _rare_checker_cases(tmp_path, honest, holder)
    rare["early-sign-names-a-requested-session"] = _early_sign_trace()[0]
    rare["session-answered-twice"] = _second_sign_trace("total-report")[0]
    rare["session-given-two-tokens"] = _second_sign_trace("token")[0]
    traces = [honest, node_signs_token,
              *(ProtocolTrace(edit(honest.events))
                for _title, edit, _violated in harness.FAULT_TRACES.values()),
              *rare.values()]
    for _case in range(1500):
        events = honest.events
        for _edit in range(rng.randint(1, 3)):
            events = _mutate(events, rng, labels)
        traces.append(ProtocolTrace(events))
    failures = Counter()
    for trace in traces:
        verdicts = check_theorems(trace)
        assert verdicts == _oracle_check_theorems(trace), trace.text()
        failures.update(name for name, v in verdicts.items() if not v.ok)
    # every property must be tripped by some mutation, so the comparison
    # covers failure reasons and witnesses, not only passing verdicts
    assert all(failures[name] >= 20 for name in (
        "cert-provenance", "token-provenance", "attest-order")), failures
    # each rare case reaches what it is built for: within one event the
    # first failure follows the label order, one event fails both
    # provenance properties, a label without ":" names no possession,
    # evidence naming a requested session fails for its unrequested one,
    # and a second evidence sign or token sign for a session fails
    first = check_theorems(rare["two-certs"])["cert-provenance"]
    assert first.reason == (f"{holder} holds cert-vcek {'22' * 8} never "
                            f"signed by {OCA_PRINCIPAL}")
    both = check_theorems(rare["cert-and-token"])
    assert not both["cert-provenance"].ok and not both["token-provenance"].ok
    assert check_theorems(rare["no-colon"]) == \
        check_theorems(honest)
    assert not check_theorems(
        rare["early-sign-names-a-requested-session"])["attest-order"].ok
    assert "second evidence" in check_theorems(
        rare["session-answered-twice"])["attest-order"].reason
    assert "second token" in check_theorems(
        rare["session-given-two-tokens"])["attest-order"].reason
