"""Owner CA: enrollment, credential-activation challenges, baselines,
registration and revocation."""

import dataclasses

import pytest

from ccxtrust import crypto, measurement, owner_ca, tee, tpm, verifier
from ccxtrust.clock import VirtualClock
from ccxtrust.errors import (
    BaselineRejected,
    ChainInvalid,
    ChallengeFailed,
    NodeRevoked,
    NodeUnknown,
    NotInitialized,
    SessionInvalid,
    UntrustedImage,
)

CHIP = crypto.sha256(b"chip-ca")


def bound_to(identity_pub: bytes) -> bytes:
    """The report_data of a boot report that registers identity_pub."""
    return verifier.report_data_for("tee", crypto.sha256(identity_pub), b"")


class Rig:
    """One vendor, one TPM, one TEE key, one CA, wired together."""

    def __init__(self, seed: bytes = b"owner-ca-test-seed"):
        self.clock = VirtualClock(5000.0)
        self.rng = crypto.DeterministicRng(seed)
        self.vendor = tee.TeeVendor(b"rig-vendor-seed!")
        self.tcb = tee.TeeTcb(crypto.sha256(b"o"), crypto.sha256(b"k"),
                              crypto.sha256(b"i"), crypto.sha256(b"c"))
        self.vcek, self.chain = self.vendor.derive_vcek(CHIP, 7)
        # the reference values a boot report is appraised against
        self.reference = verifier.PolicyBaseline(
            "rig", tee.launch_measure(self.tcb), (), b"", min_tcb_version=7)
        self.state = tpm.tpm_manufacture(self.rng.random_bytes(32))
        srk = tpm.load_key(self.state, tpm.create_primary(self.state, "storage"))
        self.aik_blob = tpm.create_signing_key(self.state, srk, role="AIK")
        self.aik_handle = tpm.load_key(self.state, self.aik_blob)
        self.ca = owner_ca.OwnerCa(trusted_tee_root=self.vendor.root_pub,
                                   trusted_tpm_root=tpm.tpm_vendor_root_pub(),
                                   clock=self.clock,
                                   rng=self.rng.fork("ca"))

    def report(self, report_data: bytes | None = None) -> tee.TeeReport:
        data = report_data if report_data is not None else bytes(64)
        return tee.guest_report(self.vcek, CHIP, self.tcb, 7, data)

    def enroll_tee(self, node_id: str = "node-a") -> crypto.Certificate:
        return self.ca.register_tee(self.chain, node_id=node_id)

    def certify_aik(self, node_id: str = "node-a") -> crypto.Certificate:
        challenge = self.ca.aik_challenge(self.aik_blob.public_area(),
                                          self.state.ek_cert, node_id)
        ek_priv = tpm.loaded_keypair(self.state,
                                     tpm.load_key(self.state, self.state.ek_blob))
        answer = tpm.activate_credential(challenge, self.aik_blob.name, ek_priv)
        return self.ca.aik_answer(owner_ca.challenge_session_id(challenge),
                                  answer)

    def prepare(self, node_id: str = "node-a") -> None:
        """Every onboarding step before registration."""
        self.enroll_tee(node_id)
        self.certify_aik(node_id)
        self.ca.set_trust_baseline(node_id, self.reference)

    def activate(self, node_id: str = "node-a"):
        self.prepare(node_id)
        identity = crypto.SigningKeyPair.generate("IDENTITY", self.rng)
        bound = self.report(bound_to(identity.public_bytes))
        cert, ms = self.ca.register_node(node_id, bound, self.chain,
                                         identity.public_bytes)
        return cert, ms


# ---------------------------------------------------------------------------
# TEE enrollment
# ---------------------------------------------------------------------------

def test_register_tee_issues_vcek_cert():
    rig = Rig()
    cert = rig.enroll_tee()
    assert cert.role == "VCEK"
    assert cert.subject == rig.vcek.public_bytes
    assert cert.verify(rig.ca.key.public_bytes)
    assert rig.ca.nodes["node-a"].status is owner_ca.NodeStatus.TEE_REGISTERED


def test_register_tee_rejects_bad_chain():
    rig = Rig()
    foreign = tee.TeeVendor(b"foreign-vendor-x")
    _, foreign_chain = foreign.derive_vcek(CHIP, 7)
    with pytest.raises(ChainInvalid):
        rig.ca.register_tee(foreign_chain, "node-a")
    key, chain = foreign.derive_vcek(crypto.sha256(b"other"), 7)
    with pytest.raises(ChainInvalid):
        rig.ca.register_tee(chain, "node-a")
    assert rig.ca.nodes == {}


def test_reregistration_bumps_serial():
    rig = Rig()
    first = rig.enroll_tee()
    second = rig.enroll_tee()
    assert second.serial > first.serial
    assert rig.ca.nodes["node-a"].vcek_cert == second


def test_register_tee_refuses_another_chip_key_for_a_node():
    rig = Rig()
    rig.activate()
    record = rig.ca.nodes["node-a"]
    before = record.vcek_cert, record.status, rig.ca._next_serial
    _, chain = rig.vendor.derive_vcek(crypto.sha256(b"other-chip"), 7)
    with pytest.raises(ChainInvalid):
        rig.ca.register_tee(chain, "node-a")
    assert (record.vcek_cert, record.status, rig.ca._next_serial) == before
    # the node's own chip key still re-registers
    assert rig.enroll_tee().serial == before[2]


# ---------------------------------------------------------------------------
# AIK certification
# ---------------------------------------------------------------------------

def test_full_challenge_flow_issues_aik_cert():
    rig = Rig()
    rig.enroll_tee()
    cert = rig.certify_aik()
    assert cert.role == "AIK"
    assert cert.subject == rig.aik_blob.public
    assert cert.verify(rig.ca.key.public_bytes)
    assert rig.ca.nodes["node-a"].status is owner_ca.NodeStatus.AIK_CERTIFIED


def test_challenge_requires_tee_registration_first():
    rig = Rig()
    with pytest.raises(NodeUnknown):
        rig.ca.aik_challenge(rig.aik_blob.public_area(),
                             rig.state.ek_cert, "node-a")


def test_challenge_rejects_unendorsed_ek():
    rig = Rig()
    rig.enroll_tee()
    rogue = crypto.SigningKeyPair.generate("EK", rig.rng)
    rogue_cert = crypto.issue_certificate(rogue, "EK", 1, rogue.public_bytes)
    with pytest.raises(ChainInvalid):
        rig.ca.aik_challenge(rig.aik_blob.public_area(), rogue_cert, "node-a")


def test_challenge_session_is_one_shot():
    rig = Rig()
    rig.enroll_tee()
    challenge = rig.ca.aik_challenge(rig.aik_blob.public_area(),
                                     rig.state.ek_cert, "node-a")
    sid = owner_ca.challenge_session_id(challenge)
    with pytest.raises(ChallengeFailed):
        rig.ca.aik_answer(sid, crypto.Secret(bytes(32)))
    # burned: even the right answer is refused now
    ek_priv = tpm.loaded_keypair(rig.state,
                                 tpm.load_key(rig.state, rig.state.ek_blob))
    answer = tpm.activate_credential(challenge, rig.aik_blob.name, ek_priv)
    with pytest.raises(SessionInvalid):
        rig.ca.aik_answer(sid, answer)


def test_challenge_session_expires():
    rig = Rig()
    rig.enroll_tee()
    challenge = rig.ca.aik_challenge(rig.aik_blob.public_area(),
                                     rig.state.ek_cert, "node-a")
    ek_priv = tpm.loaded_keypair(rig.state,
                                 tpm.load_key(rig.state, rig.state.ek_blob))
    answer = tpm.activate_credential(challenge, rig.aik_blob.name, ek_priv)
    rig.clock.advance(owner_ca.CHALLENGE_TTL + 1)
    with pytest.raises(SessionInvalid):
        rig.ca.aik_answer(owner_ca.challenge_session_id(challenge), answer)


def _open_challenge(rig):
    challenge = rig.ca.aik_challenge(rig.aik_blob.public_area(),
                                     rig.state.ek_cert, "node-a")
    return owner_ca.challenge_session_id(challenge)


def test_challenge_table_drops_sessions_past_their_ttl():
    rig = Rig()
    rig.enroll_tee()
    rig.certify_aik()
    stale = [_open_challenge(rig) for _ in range(3)]
    sessions = rig.ca._sessions
    assert len(sessions) == 4
    # a consumed session stays until its TTL passes, its nonce wiped
    burned = sessions[stale[0]]
    with pytest.raises(ChallengeFailed):
        rig.ca.aik_answer(stale[0], crypto.Secret(bytes(32)))
    assert burned.nonce.data == bytes(32)
    with pytest.raises(SessionInvalid, match="already consumed"):
        rig.ca.aik_answer(stale[0], crypto.Secret(bytes(32)))
    dropped = list(sessions.values())
    rig.clock.advance(owner_ca.CHALLENGE_TTL + 1)
    live = _open_challenge(rig)
    assert list(sessions) == [live]
    assert all(s.nonce.data == bytes(32) for s in dropped)
    with pytest.raises(SessionInvalid, match="unknown"):
        rig.ca.aik_answer(stale[1], crypto.Secret(bytes(32)))


def test_unknown_session_rejected():
    rig = Rig()
    with pytest.raises(SessionInvalid):
        rig.ca.aik_answer(crypto.sha256(b"nope"), crypto.Secret(bytes(32)))


# ---------------------------------------------------------------------------
# node registration
# ---------------------------------------------------------------------------

def test_register_node_requires_completed_flows_and_baseline():
    rig = Rig()
    identity = crypto.SigningKeyPair.generate("IDENTITY", rig.rng)
    rig.enroll_tee()
    with pytest.raises(NotInitialized):
        rig.ca.register_node("node-a", rig.report(), rig.chain,
                             identity.public_bytes)
    rig.certify_aik()
    with pytest.raises(NotInitialized):
        rig.ca.register_node("node-a", rig.report(), rig.chain,
                             identity.public_bytes)


def test_register_node_refuses_a_node_whose_aik_is_not_certified():
    # the baseline is set, so only the flows check stands in the way
    rig = Rig()
    rig.enroll_tee()
    rig.ca.set_trust_baseline("node-a", rig.reference)
    identity = crypto.SigningKeyPair.generate("IDENTITY", rig.rng)
    bound = rig.report(bound_to(identity.public_bytes))
    with pytest.raises(NotInitialized):
        rig.ca.register_node("node-a", bound, rig.chain, identity.public_bytes)
    assert rig.ca.nodes["node-a"].identity_cert is None


def test_register_node_refuses_evidence_from_an_unregistered_chip():
    # a valid vendor chain for another chip, beside a bound report of
    # that chip or of the node's own
    rig = Rig()
    rig.prepare()
    chip_b = crypto.sha256(b"chip-b")
    vcek_b, chain_b = rig.vendor.derive_vcek(chip_b, 7)
    identity = crypto.SigningKeyPair.generate("IDENTITY", rig.rng)
    bound = bound_to(identity.public_bytes)
    for report in (tee.guest_report(vcek_b, chip_b, rig.tcb, 7, bound),
                   rig.report(bound)):
        with pytest.raises(BaselineRejected, match="unregistered chip key"):
            rig.ca.register_node("node-a", report, chain_b,
                                 identity.public_bytes)
    assert rig.ca.nodes["node-a"].identity_cert is None


def test_register_node_issues_identity_and_master_secret():
    rig = Rig()
    cert, ms = rig.activate()
    assert cert.role == "IDENTITY"
    assert cert.verify(rig.ca.key.public_bytes)
    assert len(ms) == 32
    record = rig.ca.nodes["node-a"]
    assert record.status is owner_ca.NodeStatus.ACTIVE


def test_register_node_rejects_wrong_measurement():
    rig = Rig()
    rig.enroll_tee()
    rig.certify_aik()
    rig.ca.set_trust_baseline("node-a", dataclasses.replace(
        rig.reference, expected_measurement=bytes(32)))
    identity = crypto.SigningKeyPair.generate("IDENTITY", rig.rng)
    with pytest.raises(BaselineRejected, match="measurement-mismatch"):
        rig.ca.register_node("node-a", rig.report(bound_to(
            identity.public_bytes)), rig.chain, identity.public_bytes)


def test_register_node_registers_a_node_once():
    # the same bound boot report, passed again for the active node, buys no
    # second identity certificate or MasterSecret, and leaves no record
    rig = Rig()
    rig.prepare()
    identity = crypto.SigningKeyPair.generate("IDENTITY", rig.rng)
    bound = rig.report(bound_to(identity.public_bytes))
    cert, _ = rig.ca.register_node("node-a", bound, rig.chain,
                                   identity.public_bytes)
    before = rig.ca.snapshot(), rig.ca.record_log, rig.ca._next_serial
    with pytest.raises(BaselineRejected):
        rig.ca.register_node("node-a", bound, rig.chain,
                             identity.public_bytes)
    assert (rig.ca.snapshot(), rig.ca.record_log,
            rig.ca._next_serial) == before
    assert rig.ca.nodes["node-a"].identity_cert == cert


def test_register_node_names_the_first_failing_evidence_layer():
    # each report fails its own check and every check after it, so only
    # the order of the checks decides which rejection is named: the vendor
    # chain and its chip key, then appraise_layers in the verifier's order
    rig = Rig()
    rig.prepare()
    identity = crypto.SigningKeyPair.generate("IDENTITY", rig.rng)
    bound = bound_to(identity.public_bytes)
    foreign_vcek, foreign_chain = tee.TeeVendor(
        b"foreign-vendor-x").derive_vcek(CHIP, 7)
    chip_b = crypto.sha256(b"chip-b")
    _, chain_b = rig.vendor.derive_vcek(chip_b, 7)
    other_tcb = dataclasses.replace(rig.tcb, kernel=crypto.sha256(b"k2"))

    def report(vcek=rig.vcek, chip=CHIP, tcb=rig.tcb, data=bound,
               embedded=b""):
        # below the reference's TCB floor of 7
        return tee.guest_report(vcek, chip, tcb, 6, data, embedded)

    rejected = "registration evidence rejected: "
    for message, chain, boot_report in (
        (rejected + "chain-invalid", foreign_chain,
         report(foreign_vcek, chip_b, other_tcb, bytes(64), b"junk")),
        ("evidence signed by an unregistered chip key", chain_b,
         report(foreign_vcek, chip_b, other_tcb, bytes(64), b"junk")),
        (rejected + "malformed", rig.chain,
         report(foreign_vcek, chip_b, other_tcb, bytes(64), b"junk")),
        (rejected + "nonce-mismatch", rig.chain,
         report(foreign_vcek, chip_b, other_tcb, bytes(64))),
        (rejected + "identity-mismatch", rig.chain,
         report(foreign_vcek, chip_b, other_tcb)),
        (rejected + "outer-signature-invalid", rig.chain,
         report(foreign_vcek, tcb=other_tcb)),
        (rejected + "measurement-mismatch", rig.chain, report(tcb=other_tcb)),
        (rejected + "tcb-rejected", rig.chain, report()),
    ):
        with pytest.raises(BaselineRejected) as info:
            rig.ca.register_node("node-a", boot_report, chain,
                                 identity.public_bytes)
        assert str(info.value) == message
    assert rig.ca.nodes["node-a"].identity_cert is None


@pytest.mark.parametrize("report_data", [
    bytes(64),
    bound_to(b"some other identity key"),
], ids=["zero-report-data", "other-key"])
def test_register_node_rejects_report_not_bound_to_identity(report_data):
    rig = Rig()
    rig.prepare()
    identity = crypto.SigningKeyPair.generate("IDENTITY", rig.rng)
    with pytest.raises(BaselineRejected):
        rig.ca.register_node("node-a", rig.report(report_data), rig.chain,
                             identity.public_bytes)
    assert rig.ca.nodes["node-a"].identity_cert is None


# ---------------------------------------------------------------------------
# signatures that are not DER at all
# ---------------------------------------------------------------------------

def _not_der(record):
    return dataclasses.replace(record, signature=b"\x00\x01")


def _launch_garbled_manifest(rig):
    publisher = crypto.SigningKeyPair.from_seed("PUBLISHER", b"\x31" * 32)
    epoch = measurement.MeasurementEpoch(rig.state, publisher.public)
    epoch.run_host_stage([("bios", b"bios-v1")])
    manifest = measurement.sign_manifest(publisher, "guest-os", b"bits")
    epoch.run_launch_stage([(_not_der(manifest), b"bits")], rig.tcb)


def _register_tee_garbled_vcek_cert(rig):
    chain = dataclasses.replace(rig.chain, vcek=_not_der(rig.chain.vcek))
    rig.ca.register_tee(chain, "node-a")


def _register_node_garbled_boot_report(rig):
    rig.prepare()
    identity = crypto.SigningKeyPair.generate("IDENTITY", rig.rng)
    report = _not_der(rig.report(bound_to(identity.public_bytes)))
    assert not report.verify(rig.chain.vcek.subject)
    rig.ca.register_node("node-a", report, rig.chain, identity.public_bytes)


def _register_node_keys_garbled_aik_cert(rig):
    rig.prepare()
    svc = verifier.VerifierService(owner_ca=rig.ca, clock=rig.clock,
                                   rng=rig.rng.fork("verifier"))
    record = rig.ca.nodes["node-a"]
    svc.register_node_keys("node-a", _not_der(record.aik_cert),
                           record.vcek_cert)


@pytest.mark.parametrize("refused, error", [
    (_launch_garbled_manifest, UntrustedImage),
    (_register_tee_garbled_vcek_cert, ChainInvalid),
    (_register_node_garbled_boot_report, BaselineRejected),
    (_register_node_keys_garbled_aik_cert, ChainInvalid),
], ids=["manifest", "vcek-cert", "boot-report", "aik-cert"])
def test_a_signature_that_is_not_der_gets_the_documented_refusal(refused,
                                                                 error):
    with pytest.raises(error):
        refused(Rig())


# ---------------------------------------------------------------------------
# revocation
# ---------------------------------------------------------------------------

def test_revocation_list_versioned_and_idempotent():
    rig = Rig()
    cert, _ = rig.activate()
    v0, serials0, nodes0 = rig.ca.revocation_list()
    rig.ca.revoke("node-a", "compromise")
    v1, serials1, nodes1 = rig.ca.revocation_list()
    assert v1 == v0 + 1
    assert "node-a" in nodes1
    assert cert.serial in serials1
    rig.ca.revoke("node-a", "again")
    v2, _, _ = rig.ca.revocation_list()
    assert v2 == v1  # no change, no version bump


def test_revoked_node_gets_no_certificate():
    rig = Rig()
    rig.activate()
    # a challenge opened before the revocation buys no AIK certificate
    challenge = rig.ca.aik_challenge(rig.aik_blob.public_area(),
                                     rig.state.ek_cert, "node-a")
    answer = tpm.activate_credential(
        challenge, rig.aik_blob.name,
        tpm.loaded_keypair(rig.state, tpm.load_key(rig.state,
                                                   rig.state.ek_blob)))
    rig.ca.revoke("node-a", "compromise")
    identity = crypto.SigningKeyPair.generate("IDENTITY", rig.rng)
    bound = rig.report(bound_to(identity.public_bytes))
    before = rig.ca.revocation_list(), rig.ca.snapshot()
    with pytest.raises(NodeRevoked):
        rig.enroll_tee()
    with pytest.raises(NodeRevoked):
        rig.ca.aik_answer(owner_ca.challenge_session_id(challenge), answer)
    with pytest.raises(NodeRevoked):
        rig.ca.register_node("node-a", bound, rig.chain,
                             identity.public_bytes)
    # no serial was taken, and the node is neither resurrected nor rebound
    assert (rig.ca.revocation_list(), rig.ca.snapshot()) == before
    assert rig.ca.nodes["node-a"].status is owner_ca.NodeStatus.REVOKED


def test_revoked_node_is_refused_before_any_work(monkeypatch):
    rig = Rig()
    rig.activate()
    rig.ca.revoke("node-a", "compromise")
    calls = []
    for module, name in ((crypto, "verify"), (tpm, "make_credential")):
        def counting(*args, _original=getattr(module, name), _name=name,
                     **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    records, sessions = len(rig.ca.record_log), dict(rig.ca._sessions)
    with pytest.raises(NodeRevoked):
        rig.enroll_tee()
    with pytest.raises(NodeRevoked):
        rig.ca.aik_challenge(rig.aik_blob.public_area(),
                             rig.state.ek_cert, "node-a")
    assert calls == []
    assert len(rig.ca.record_log) == records
    assert rig.ca._sessions == sessions


def test_revoked_node_gets_no_new_baseline():
    rig = Rig()
    rig.prepare()
    rig.ca.revoke("node-a", "compromise")
    baseline, records = rig.ca.nodes["node-a"].baseline, rig.ca.record_log
    with pytest.raises(NodeRevoked):
        rig.ca.set_trust_baseline("node-a", dataclasses.replace(
            rig.reference, min_tcb_version=0))
    assert rig.ca.nodes["node-a"].baseline == baseline
    assert rig.ca.record_log == records


def test_record_log_mentions_lifecycle():
    rig = Rig()
    rig.activate()
    rig.ca.revoke("node-a", "compromise")
    log = "\n".join(rig.ca.record_log)
    for stem in ("register-tee", "aik-challenge", "aik-answer",
                 "set-baseline", "register-node", "revoke"):
        assert stem in log
    assert rig.ca.record_log[-1].endswith(" revoke node-a reason=compromise")


def test_snapshot_and_record_log_text_of_a_lifecycle():
    # node-a active (its chip re-registered after activation), node-b
    # revoked after activation, node-c stopped after AIK certification,
    # node-d stopped after TEE registration
    rig = Rig()
    rig.activate("node-a")
    rig.enroll_tee("node-a")
    rig.activate("node-b")
    rig.ca.revoke("node-b", "compromise")
    rig.enroll_tee("node-c")
    rig.certify_aik("node-c")
    rig.enroll_tee("node-d")
    assert rig.ca.snapshot() == (
        "snapshot records=16 revocation-version=1\n"
        "node node-a status=active vcek=4 aik=2 identity=3 provisioned=1\n"
        "node node-b status=revoked vcek=5 aik=6 identity=7 provisioned=1\n"
        "node node-c status=aik-certified vcek=8 aik=9 identity=- "
        "provisioned=0\n"
        "node node-d status=tee-registered vcek=10 aik=- identity=- "
        "provisioned=0\n"
        "revoked-serials 5,6,7\n")
    assert rig.ca.record_log == (
        "0 5000.000 register-tee node-a serial=1",
        "1 5000.000 aik-challenge node-a "
        "session=db3b5f75e534cdf89c9a46ee1fa2d904",
        "2 5000.000 aik-answer node-a serial=2",
        "3 5000.000 set-baseline node-a",
        "4 5000.000 register-node node-a serial=3",
        "5 5000.000 register-tee node-a serial=4",
        "6 5000.000 register-tee node-b serial=5",
        "7 5000.000 aik-challenge node-b "
        "session=572102822c356c79e792f4848047ef29",
        "8 5000.000 aik-answer node-b serial=6",
        "9 5000.000 set-baseline node-b",
        "10 5000.000 register-node node-b serial=7",
        "11 5000.000 revoke node-b reason=compromise",
        "12 5000.000 register-tee node-c serial=8",
        "13 5000.000 aik-challenge node-c "
        "session=d980f0d12becd20845278924aa8da786",
        "14 5000.000 aik-answer node-c serial=9",
        "15 5000.000 register-tee node-d serial=10",
    )
