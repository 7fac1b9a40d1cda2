"""Attestation verifier: composite verification in both embedding
directions, every rejection class, the verified-report type gate, and
the token lifecycle."""

import base64
import dataclasses
import threading

import pytest

from ccxtrust import crypto, harness, protocol, tee, tpm, verifier
from ccxtrust.encoding import (
    RAW,
    STR,
    U16,
    U64,
    Spec,
    b64url_decode,
    encode_field,
)
from ccxtrust.errors import (
    CcxError,
    ChainInvalid,
    DecodeError,
    NodeRevoked,
    PolicyUnknown,
)


@pytest.fixture()
def cluster():
    return harness.build_cluster(101, nodes=2)


def honest(cluster, direction, node_index=0, policy_id=None):
    """Open a session and build matching evidence without submitting it."""
    actor = cluster.actor(node_index)
    request = cluster.verifier_svc.new_request(
        policy_id or cluster.policy_id, actor.node_id)
    envelope = protocol.CompositeReportEnvelope(
        direction, actor.node_id, request.session_id,
        actor.evidence(direction, request.nonce))
    return request, envelope


def submit(cluster, request, envelope):
    return cluster.verifier_svc.verify_composite(
        envelope, request, cluster.policy)


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("direction", ["tpm-tee", "tee-tpm"])
def test_composite_ok_both_directions(cluster, direction):
    request, envelope = honest(cluster, direction)
    outcome, verified = submit(cluster, request, envelope)
    assert outcome is verifier.CompositeOutcome.OK
    assert verified is not None
    assert verified.node_id == cluster.actor(0).node_id
    assert verified.token_type == direction
    assert verified.tcb_version == cluster.actor(0).tcb_version
    assert verified.pcr_selection == cluster.policy.pcr_selection


def test_envelope_round_trip_encoding(cluster):
    _, envelope = honest(cluster, "tpm-tee")
    parsed = protocol.CompositeReportEnvelope.from_bytes(envelope.to_bytes())
    assert parsed == envelope


# ---------------------------------------------------------------------------
# rejection matrix
# ---------------------------------------------------------------------------

def test_session_replay_rejected(cluster):
    request, envelope = honest(cluster, "tpm-tee")
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.OK
    outcome, verified = submit(cluster, request, envelope)
    assert outcome is verifier.CompositeOutcome.SESSION_REPLAY
    assert verified is None


def test_rebound_envelope_is_nonce_mismatch(cluster):
    request_a, envelope_a = honest(cluster, "tpm-tee")
    request_b, _ = honest(cluster, "tpm-tee")
    rebound = dataclasses.replace(envelope_a, session_id=request_b.session_id)
    assert submit(cluster, request_b, rebound)[0] is \
        verifier.CompositeOutcome.NONCE_MISMATCH


def test_garbage_evidence_is_malformed(cluster):
    request, envelope = honest(cluster, "tpm-tee")
    broken = dataclasses.replace(envelope, evidence=b"not evidence")
    assert submit(cluster, request, broken)[0] is \
        verifier.CompositeOutcome.MALFORMED


def test_unknown_direction_is_malformed(cluster):
    request, envelope = honest(cluster, "tpm-tee")
    odd = dataclasses.replace(envelope, direction="sideways")
    assert submit(cluster, request, odd)[0] is \
        verifier.CompositeOutcome.MALFORMED
    # a layout of no layers leaves no bytes over, and still appraises none
    empty = dataclasses.replace(odd, evidence=b"")
    assert submit(cluster, request, empty)[0] is \
        verifier.CompositeOutcome.MALFORMED


def test_plain_quote_without_inner_report_is_malformed(cluster):
    actor = cluster.actor(0)
    request = cluster.verifier_svc.new_request(cluster.policy_id, actor.node_id)
    bare = tpm.cc_quote(actor.state, actor.pcr_selection, request.nonce,
                        actor.aik_handle, b"").to_bytes()
    envelope = protocol.CompositeReportEnvelope(
        "tpm-tee", actor.node_id, request.session_id, bare)
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.MALFORMED


@pytest.mark.parametrize("kind", ["tpm", "tee"])
def test_innermost_layer_that_embeds_anything_is_malformed(cluster, kind):
    # no check reads bytes below the innermost layer, and the token's
    # report claim would carry them signed
    actor = cluster.actor(0)
    request = cluster.verifier_svc.new_request(cluster.policy_id,
                                               actor.node_id)
    binding = request.nonce if kind == "tpm" else request.nonce + bytes(32)
    layer = actor.sign_layer(kind, binding, b"junk", actor.pcr_selection)
    envelope = protocol.CompositeReportEnvelope(
        kind, actor.node_id, request.session_id, layer.to_bytes())
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.MALFORMED
    empty = actor.sign_layer(kind, binding, b"", actor.pcr_selection)
    honest_leg = dataclasses.replace(envelope, evidence=empty.to_bytes())
    assert submit(cluster, request, honest_leg)[0] is \
        verifier.CompositeOutcome.OK


def test_unregistered_signer_is_outer_signature_invalid(cluster):
    actor = cluster.actor(0)
    request = cluster.verifier_svc.new_request(cluster.policy_id, actor.node_id)
    rogue_state = tpm.tpm_manufacture(b"\x66" * 32)
    srk = tpm.load_key(rogue_state, tpm.create_primary(rogue_state, "storage"))
    rogue_aik = tpm.load_key(rogue_state,
                             tpm.create_signing_key(rogue_state, srk, role="AIK"))
    report = tee.guest_report(
        actor.vcek, actor.chip_id, actor.tcb, actor.tcb_version,
        crypto.sha256(request.nonce) + bytes(32))
    evidence = tpm.cc_quote(rogue_state, actor.pcr_selection, request.nonce,
                            rogue_aik, report.to_bytes()).to_bytes()
    envelope = protocol.CompositeReportEnvelope(
        "tpm-tee", actor.node_id, request.session_id, evidence)
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.OUTER_SIGNATURE_INVALID


def test_foreign_but_registered_signer_is_identity_mismatch(cluster):
    # node 1 produces fully valid evidence for node 0's session and nonce
    victim = cluster.actor(0)
    imposter = cluster.actor(1)
    request = cluster.verifier_svc.new_request(cluster.policy_id,
                                               victim.node_id)
    report = tee.guest_report(
        imposter.vcek, imposter.chip_id, imposter.tcb, imposter.tcb_version,
        crypto.sha256(request.nonce) + bytes(32))
    evidence = tpm.cc_quote(imposter.state, imposter.pcr_selection,
                            request.nonce, imposter.aik_handle,
                            report.to_bytes()).to_bytes()
    envelope = protocol.CompositeReportEnvelope(
        "tpm-tee", victim.node_id, request.session_id, evidence)
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.IDENTITY_MISMATCH


def test_wrong_nonce_in_inner_binding(cluster):
    actor = cluster.actor(0)
    request = cluster.verifier_svc.new_request(cluster.policy_id, actor.node_id)
    stale = crypto.sha256(b"some other nonce")
    report = tee.guest_report(
        actor.vcek, actor.chip_id, actor.tcb, actor.tcb_version,
        crypto.sha256(stale) + bytes(32))
    evidence = tpm.cc_quote(actor.state, actor.pcr_selection, request.nonce,
                            actor.aik_handle, report.to_bytes()).to_bytes()
    envelope = protocol.CompositeReportEnvelope(
        "tpm-tee", actor.node_id, request.session_id, evidence)
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.NONCE_MISMATCH


def strict_session(cluster, **demands):
    """An honest tpm-tee submission for a session opened under a policy
    that the verifier registers with demands stricter than the cluster's."""
    strict = dataclasses.replace(cluster.policy, policy_id="strict",
                                 **demands)
    cluster.verifier_svc.add_policy(strict)
    return honest(cluster, "tpm-tee", policy_id=strict.policy_id)


def test_measurement_mismatch(cluster):
    request, envelope = strict_session(cluster,
                                       expected_measurement=bytes(32))
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.MEASUREMENT_MISMATCH


def test_pcr_mismatch_after_drift(cluster):
    actor = cluster.actor(0)
    tpm.pcr_extend(actor.state, actor.pcr_selection[0],
                   crypto.sha256(b"post-baseline drift"))
    request, envelope = honest(cluster, "tpm-tee")
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.PCR_MISMATCH


def test_tcb_floor_enforced(cluster):
    request, envelope = strict_session(
        cluster, min_tcb_version=cluster.actor(0).tcb_version + 1)
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.TCB_REJECTED


def test_caller_policy_cannot_relax_the_registered_one(cluster):
    # the session's registered policy decides, not the one passed in
    request, envelope = strict_session(
        cluster, min_tcb_version=cluster.actor(0).tcb_version + 1)
    relaxed = dataclasses.replace(cluster.verifier_svc.policies["strict"],
                                  min_tcb_version=0)
    assert cluster.verifier_svc.verify_composite(
        envelope, request, relaxed) == (verifier.CompositeOutcome.TCB_REJECTED,
                                        None)
    assert not cluster.verifier_svc.session(request.session_id).completed


def test_session_the_verifier_never_opened_is_malformed(cluster):
    request, envelope = honest(cluster, "tpm-tee")
    unknown = dataclasses.replace(request, session_id=bytes(32))
    envelope = dataclasses.replace(envelope, session_id=bytes(32))
    assert submit(cluster, unknown, envelope) == (
        verifier.CompositeOutcome.MALFORMED, None)


def test_session_entry_is_slotted(cluster):
    request, _ = honest(cluster, "tpm-tee")
    assert "__slots__" in vars(verifier.AttestationRequest)
    assert not hasattr(request, "__dict__")
    reopened = dataclasses.replace(request, completed=True)
    assert reopened.completed and not request.completed
    assert reopened.session_id == request.session_id
    with pytest.raises(AttributeError):
        request.note = "no room"


def test_sessions_and_nonces_expire_after_the_ttl(cluster):
    svc = cluster.verifier_svc
    done, envelope = honest(cluster, "tpm-tee")
    assert submit(cluster, done, envelope)[0] is verifier.CompositeOutcome.OK
    stale, stale_envelope = honest(cluster, "tee-tpm")
    issued = svc.nonces_issued
    cluster.clock.advance(verifier.SESSION_TTL + 1)
    # past its TTL a session reads as unknown before any sweep drops it
    assert svc.session(done.session_id) is None
    assert submit(cluster, stale, stale_envelope) == (
        verifier.CompositeOutcome.MALFORMED, None)
    fresh = svc.new_request(cluster.policy_id, cluster.actor(0).node_id)
    assert list(svc._sessions) == [fresh.session_id]
    assert svc._nonces_seen == {fresh.nonce}
    assert svc.nonces_issued == issued + 1


def test_replay_inside_the_ttl_is_session_replay(cluster):
    svc = cluster.verifier_svc
    request, envelope = honest(cluster, "tpm-tee")
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.OK
    cluster.clock.advance(verifier.SESSION_TTL)
    svc.new_request(cluster.policy_id, cluster.actor(1).node_id)
    assert svc.session(request.session_id) is request
    assert submit(cluster, request, envelope) == (
        verifier.CompositeOutcome.SESSION_REPLAY, None)


def test_issue_token_refuses_a_session_past_its_ttl(cluster):
    request, envelope = honest(cluster, "tpm-tee")
    outcome, verified = submit(cluster, request, envelope)
    assert outcome is verifier.CompositeOutcome.OK
    cluster.clock.advance(verifier.SESSION_TTL + 1)
    with pytest.raises(ValueError):
        cluster.verifier_svc.issue_token(verified)


def test_unknown_policy_is_a_ccx_error(cluster):
    actor = cluster.actor(0)
    with pytest.raises(PolicyUnknown):
        cluster.verifier_svc.new_request("nope", actor.node_id)
    with pytest.raises(PolicyUnknown):
        protocol.run_attest_composite(
            actor, cluster.verifier_svc, cluster.channels, cluster.trace,
            policy_id="nope", direction="tpm-tee")


def test_revoked_node_rejected_at_verify_and_request(cluster):
    actor = cluster.actor(0)
    request, envelope = honest(cluster, "tpm-tee")
    cluster.oca.revoke(actor.node_id, "test")
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.NODE_REVOKED
    with pytest.raises(NodeRevoked):
        cluster.verifier_svc.new_request(cluster.policy_id, actor.node_id)


# ---------------------------------------------------------------------------
# single-technology legs
# ---------------------------------------------------------------------------

def test_single_legs_verify_and_replay_protect(cluster):
    actor = cluster.actor(0)
    svc = cluster.verifier_svc

    request = svc.new_request(cluster.policy_id, actor.node_id)
    report = tee.guest_report(actor.vcek, actor.chip_id, actor.tcb,
                              actor.tcb_version,
                              request.nonce + bytes(32))
    envelope = protocol.CompositeReportEnvelope(
        "tee", actor.node_id, request.session_id, report.to_bytes())
    outcome, verified = submit(cluster, request, envelope)
    assert outcome is verifier.CompositeOutcome.OK
    assert verified.token_type == "tee"
    outcome, _ = submit(cluster, request, envelope)
    assert outcome is verifier.CompositeOutcome.SESSION_REPLAY

    request2 = svc.new_request(cluster.policy_id, actor.node_id)
    quote_bytes = tpm.cc_quote(actor.state, actor.pcr_selection,
                               request2.nonce, actor.aik_handle,
                               b"").to_bytes()
    envelope2 = protocol.CompositeReportEnvelope(
        "tpm", actor.node_id, request2.session_id, quote_bytes)
    outcome, verified = submit(cluster, request2, envelope2)
    assert outcome is verifier.CompositeOutcome.OK
    assert verified.token_type == "tpm"


def test_tpm_quote_for_an_earlier_session_is_nonce_mismatch(cluster):
    actor = cluster.actor(0)
    svc = cluster.verifier_svc
    first = svc.new_request(cluster.policy_id, actor.node_id)
    second = svc.new_request(cluster.policy_id, actor.node_id)
    quote_bytes = tpm.cc_quote(actor.state, actor.pcr_selection,
                               first.nonce, actor.aik_handle, b"").to_bytes()
    moved = protocol.CompositeReportEnvelope(
        "tpm", actor.node_id, second.session_id, quote_bytes)
    assert submit(cluster, second, moved)[0] is \
        verifier.CompositeOutcome.NONCE_MISMATCH
    # the same quote under the session it was bound to is accepted
    own = dataclasses.replace(moved, session_id=first.session_id)
    assert submit(cluster, first, own)[0] is verifier.CompositeOutcome.OK


def test_tpm_quote_over_another_selection_is_pcr_mismatch(cluster):
    # PCRs 10, 11 and 12 are zero on a harness node, so a quote over
    # (0..10, 12) has the policy's composite; only its selection differs
    actor = cluster.actor(0)
    request = cluster.verifier_svc.new_request(cluster.policy_id,
                                               actor.node_id)
    assert actor.pcr_selection == tuple(range(12))
    quote = tpm.cc_quote(actor.state, tuple(range(11)) + (12,),
                         request.nonce, actor.aik_handle, b"")
    assert quote.pcr_digest == cluster.policy.expected_pcr_composite
    envelope = protocol.CompositeReportEnvelope(
        "tpm", actor.node_id, request.session_id, quote.to_bytes())
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.PCR_MISMATCH


def test_tpm_only_quote_from_foreign_aik_is_outer_signature_invalid(cluster):
    # a plain quote carries no chip id, so a foreign AIK cannot be named
    victim, imposter = cluster.actor(0), cluster.actor(1)
    request = cluster.verifier_svc.new_request(cluster.policy_id,
                                               victim.node_id)
    quote_bytes = tpm.cc_quote(imposter.state, imposter.pcr_selection,
                               request.nonce, imposter.aik_handle,
                               b"").to_bytes()
    envelope = protocol.CompositeReportEnvelope(
        "tpm", victim.node_id, request.session_id, quote_bytes)
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.OUTER_SIGNATURE_INVALID


def test_report_naming_another_chip_is_identity_mismatch(cluster):
    # signed by the claimed node's own VCEK, so its signature holds;
    # only the chip id names the wrong platform
    node_a, node_b = cluster.actor(0), cluster.actor(1)
    request = cluster.verifier_svc.new_request(cluster.policy_id,
                                               node_a.node_id)
    report = tee.guest_report(
        node_a.vcek, node_b.chip_id, node_a.tcb, node_a.tcb_version,
        verifier.report_data_for("tee", request.nonce, b""))
    envelope = protocol.CompositeReportEnvelope(
        "tee", node_a.node_id, request.session_id, report.to_bytes())
    assert submit(cluster, request, envelope)[0] is \
        verifier.CompositeOutcome.IDENTITY_MISMATCH


class _StuckRng:
    def random_bytes(self, n: int) -> bytes:
        return bytes(n)


def test_a_repeated_nonce_opens_no_session(cluster):
    svc = verifier.VerifierService(owner_ca=cluster.oca, clock=cluster.clock,
                                   rng=_StuckRng())
    svc.add_policy(cluster.policy)
    node_id = cluster.actor(0).node_id
    first = svc.new_request(cluster.policy_id, node_id)
    with pytest.raises(CcxError, match="nonce collision"):
        svc.new_request(cluster.policy_id, node_id)
    assert svc.session(first.session_id) is first
    assert svc.nonces_issued == 1


# ---------------------------------------------------------------------------
# appraisal cost and session claim
# ---------------------------------------------------------------------------

def _bad_signature(cluster):
    request, envelope = honest(cluster, "tpm-tee")
    quote_obj = tpm.CompositeQuote.from_bytes(envelope.evidence)
    sig = quote_obj.signature
    broken = dataclasses.replace(quote_obj,
                                 signature=sig[:-1] + bytes([sig[-1] ^ 1]))
    return request, dataclasses.replace(envelope, evidence=broken.to_bytes())


def _relay(direction):
    """A builder of the middle node's valid evidence of one direction for
    node 0's session and nonce."""
    def build(cluster):
        victim = cluster.actor(0)
        other = cluster.actor(len(cluster.actors) // 2)
        request = cluster.verifier_svc.new_request(cluster.policy_id,
                                                   victim.node_id)
        return request, protocol.CompositeReportEnvelope(
            direction, victim.node_id, request.session_id,
            other.evidence(direction, request.nonce))
    return build


def _other_chip_bad_signature(cluster):
    # node 0's own report for its session, the chip id swapped for the
    # middle node's after signing: it names another chip and its
    # signature no longer holds
    request, envelope = harness._honest_envelope(cluster, cluster.actor(0),
                                                 "tee")
    report = tee.TeeReport.from_bytes(envelope.evidence)
    other = cluster.actor(len(cluster.actors) // 2)
    forged = dataclasses.replace(report, chip_id=other.chip_id)
    return request, dataclasses.replace(envelope, evidence=forged.to_bytes())


def _accepted(cluster):
    # node 0's honest evidence, submitted again after it was accepted
    request, envelope = honest(cluster, "tpm-tee")
    assert submit(cluster, request, envelope)[0] is verifier.CompositeOutcome.OK
    return request, envelope


def _other_session(cluster):
    # node 0's honest evidence for session A, in an envelope that names
    # another open session B of the same node, submitted with A
    request, envelope = honest(cluster, "tpm-tee")
    other = cluster.verifier_svc.new_request(cluster.policy_id,
                                             cluster.actor(0).node_id)
    return request, dataclasses.replace(envelope,
                                        session_id=other.session_id)


def _revoked(cluster):
    # node 0's honest evidence for a session opened before its revocation
    request, envelope = honest(cluster, "tpm-tee")
    cluster.oca.revoke(cluster.actor(0).node_id, "test")
    return request, envelope


def _verifies(monkeypatch, cluster, build):
    request, envelope = build(cluster)
    calls = []
    real_verify = crypto.verify

    def counting(*args):
        calls.append(args)
        return real_verify(*args)

    monkeypatch.setattr(crypto, "verify", counting)
    outcome, _ = submit(cluster, request, envelope)
    monkeypatch.setattr(crypto, "verify", real_verify)
    return outcome, len(calls)


def test_rejection_cost_does_not_grow_with_fleet(monkeypatch):
    # evidence that names another platform or another session, comes for
    # a revoked node, or was accepted before, is rejected before any
    # signature check; other evidence costs one check per layer under the
    # session node's keys
    outcome = verifier.CompositeOutcome
    cases = [(lambda c: honest(c, "tpm-tee"), outcome.OK, 2),
             (_bad_signature, outcome.OUTER_SIGNATURE_INVALID, 1),
             (_relay("tpm-tee"), outcome.IDENTITY_MISMATCH, 0),
             (_relay("tee-tpm"), outcome.IDENTITY_MISMATCH, 0),
             (_relay("tee"), outcome.IDENTITY_MISMATCH, 0),
             (_other_chip_bad_signature, outcome.IDENTITY_MISMATCH, 0),
             (_accepted, outcome.SESSION_REPLAY, 0),
             (_other_session, outcome.NONCE_MISMATCH, 0),
             # last: it revokes node 0, whose sessions the others open
             (_revoked, outcome.NODE_REVOKED, 0)]
    for cluster in (harness.build_cluster(202, nodes=3),
                    harness.build_cluster(203, nodes=12)):
        assert [_verifies(monkeypatch, cluster, build)
                for build, _outcome, _count in cases] == \
            [(want, count) for _build, want, count in cases]


def test_register_node_keys_checks_both_certificates(cluster):
    actor = cluster.actor(0)
    svc = cluster.verifier_svc
    rogue_ca = crypto.SigningKeyPair.from_seed(b"\x42" * 32)
    rogue_aik_cert = crypto.issue_certificate(rogue_ca, "AIK", 1,
                                              actor.aik_blob.public)
    rogue_vcek_cert = crypto.issue_certificate(rogue_ca, "VCEK", 2,
                                               actor.vcek.public_bytes)
    # certificates the owner CA never signed, and owner CA certificates
    # offered for the wrong role: the identity cert as the AIK cert, the
    # AIK cert as the VCEK cert
    for aik_cert, vcek_cert in ((rogue_aik_cert, actor.vcek_cert),
                                (actor.aik_cert, rogue_vcek_cert),
                                (actor.identity_cert, actor.vcek_cert),
                                (actor.aik_cert, actor.aik_cert)):
        with pytest.raises(ChainInvalid):
            svc.register_node_keys("node-new", aik_cert, vcek_cert)
        assert svc.node_keys("node-new") is None
    svc.register_node_keys("node-new", actor.aik_cert, actor.vcek_cert)
    keys = svc.node_keys("node-new")
    assert keys.aik.point == actor.aik_blob.public
    assert keys.vcek.point == actor.vcek.public_bytes


def test_register_node_keys_refuses_a_certified_off_curve_key(cluster):
    actor = cluster.actor(0)
    svc, oca = cluster.verifier_svc, cluster.oca
    off_curve = b"\x02" + (1).to_bytes(32, "big")
    good = {"AIK": actor.aik_cert, "VCEK": actor.vcek_cert}
    for role in good:
        certs = dict(good)
        certs[role] = crypto.issue_certificate(oca.key, role, 999, off_curve)
        with pytest.raises(CcxError):
            svc.register_node_keys("node-new", certs["AIK"], certs["VCEK"])
        assert svc.node_keys("node-new") is None
    # the honest node's entry is untouched: it still verifies
    request, envelope = honest(cluster, "tee-tpm")
    assert submit(cluster, request, envelope)[0] is verifier.CompositeOutcome.OK


def test_a_session_copy_naming_another_node_is_appraised_as_the_entry(
        cluster):
    # a copy of node 0's open session that names node 1 and carries the
    # nonce of node 1's accepted session, with that session's evidence
    # re-bound to it: the node and nonce come from the verifier's entry
    svc = cluster.verifier_svc
    earlier, envelope = honest(cluster, "tpm-tee", node_index=1)
    assert submit(cluster, earlier, envelope)[0] is \
        verifier.CompositeOutcome.OK
    request = svc.new_request(cluster.policy_id, cluster.actor(0).node_id)
    forged = dataclasses.replace(request, node_id=earlier.node_id,
                                 nonce=earlier.nonce)
    assert submit(cluster, forged, dataclasses.replace(
        envelope, session_id=request.session_id)) == (
        verifier.CompositeOutcome.NONCE_MISMATCH, None)
    assert not forged.completed and forged.verified is None


def test_concurrent_submissions_claim_the_session_once(cluster):
    svc = cluster.verifier_svc
    request, envelope = harness._honest_envelope(cluster, cluster.actor(0),
                                                 "tpm-tee")
    barrier = threading.Barrier(2)
    is_revoked = svc._is_revoked

    def held_at_revocation(node_id):
        # both submissions are past the early session.completed read
        # before either goes on
        barrier.wait(timeout=30)
        return is_revoked(node_id)

    svc._is_revoked = held_at_revocation
    results = []

    def submit_once():
        results.append(submit(cluster, request, envelope)[0].value)

    threads = [threading.Thread(target=submit_once) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == ["ok", "session-replay"]


# ---------------------------------------------------------------------------
# token issuance gate
# ---------------------------------------------------------------------------

def test_issue_token_requires_verified_report_type(cluster):
    request, envelope = honest(cluster, "tpm-tee")
    _, verified = submit(cluster, request, envelope)
    fake = {
        "session_id": request.session_id, "node_id": request.node_id,
        "token_type": "tpm-tee", "evidence": b"", "tcb_version": 99,
        "measurement": b"", "pcr_selection": (), "pcr_digest": b"",
    }
    with pytest.raises(TypeError):
        cluster.verifier_svc.issue_token(fake)
    token = cluster.verifier_svc.issue_token(verified)
    assert isinstance(cluster.verifier_svc.validate_token(token), dict)


def test_issue_token_mints_once_per_session(cluster):
    svc = cluster.verifier_svc
    request, envelope = honest(cluster, "tpm-tee")
    _, verified = submit(cluster, request, envelope)
    with pytest.raises(ValueError):
        svc.issue_token(dataclasses.replace(verified, session_id=bytes(32)))
    # the refused call did not use up the session's one token
    token = svc.issue_token(verified)
    with pytest.raises(ValueError):
        svc.issue_token(verified)
    # nor did any refused call take a serial
    assert issue_one(cluster).serial == token.serial + 1


def test_issue_token_mints_only_the_report_the_entry_recorded(cluster):
    svc = cluster.verifier_svc
    other = cluster.actor(1).node_id
    # a report built by hand for an open session that was never verified
    request = svc.new_request(cluster.policy_id, cluster.actor(0).node_id)
    with pytest.raises(ValueError):
        svc.issue_token(verifier.VerifiedReport(
            session_id=request.session_id, node_id=other,
            token_type="tpm-tee", evidence=b"no evidence at all",
            tcb_version=99, pcr_selection=()))
    # the report of a verified session, altered after appraisal
    request, envelope = honest(cluster, "tpm-tee")
    _, verified = submit(cluster, request, envelope)
    for change in ({"node_id": other}, {"tcb_version": 99},
                   {"evidence": b"no evidence at all"}):
        with pytest.raises(ValueError):
            svc.issue_token(dataclasses.replace(verified, **change))
    # no refused call took a serial or the session's token
    token = svc.issue_token(verified)
    assert (token.serial, token.node) == (1, request.node_id)
    assert svc._sessions[request.session_id].verified is None


def test_issue_token_refuses_a_node_revoked_after_appraisal(cluster):
    # a revoke between verify_composite and issue_token mints nothing: no
    # token for the relying party to accept, no serial taken
    svc = cluster.verifier_svc
    request, envelope = honest(cluster, "tpm-tee")
    outcome, verified = submit(cluster, request, envelope)
    assert outcome is verifier.CompositeOutcome.OK
    cluster.oca.revoke(cluster.actor(0).node_id, "test")
    with pytest.raises(NodeRevoked):
        svc.issue_token(verified)
    assert svc._sessions[request.session_id].verified == verified
    request, envelope = honest(cluster, "tpm-tee", node_index=1)
    assert svc.issue_token(submit(cluster, request, envelope)[1]).serial == 1


# ---------------------------------------------------------------------------
# token validation
# ---------------------------------------------------------------------------

def issue_one(cluster, direction="tpm-tee"):
    request, envelope = honest(cluster, direction)
    _, verified = submit(cluster, request, envelope)
    return cluster.verifier_svc.issue_token(verified)


def _b64url(data: bytes) -> bytes:
    return base64.urlsafe_b64encode(data).rstrip(b"=")


def _body_fields(token, **changes) -> dict:
    """The token's signed claims by field name, with changes applied."""
    return {attr: getattr(token, attr)
            for attr in verifier.AttestationToken.BODY.attrs} | changes


def test_token_compact_round_trip_and_claims(cluster):
    token = issue_one(cluster)
    compact = token.compact()
    assert verifier.AttestationToken.parse(compact) == token
    claims = cluster.verifier_svc.validate_token(compact)
    assert b64url_decode(claims["payload"]["report"]) == token.evidence
    # the keys, types and values of the JSON token this record replaced
    assert claims == {
        "header": {"alg": "ES256", "ver": 1, "kid": "4de4c60bc5d628b8",
                   "iat": 1_700_000_000, "exp": 1_700_003_600},
        "payload": {"type": "tpm-tee", "serial": 1,
                    "report": claims["payload"]["report"],
                    "platform": {"node": cluster.actor(0).node_id, "tcb": 7,
                                 "pcr_sel": list(range(12))},
                    "policy": cluster.policy_id}}

    def types(tree):
        return {key: types(value) if type(value) is dict else type(value)
                for key, value in tree.items()}
    assert types(claims) == {
        "header": {"alg": str, "ver": int, "kid": str, "iat": int,
                   "exp": int},
        "payload": {"type": str, "serial": int, "report": str,
                    "platform": {"node": str, "tcb": int, "pcr_sel": list},
                    "policy": str}}


def test_token_body_is_its_tlv_encoding_in_base64url(cluster):
    token = issue_one(cluster)
    svc = cluster.verifier_svc
    body = b"".join(encode_field(tag, payload) for tag, payload in (
        (1, b"ES256"), (2, (1).to_bytes(2, "little")),
        (3, crypto.sha256(svc.key.public_bytes)[:8]),
        (4, token.issued_at.to_bytes(8, "little")),
        (5, (token.issued_at + 3600).to_bytes(8, "little")),
        (6, b"tpm-tee"), (7, token.serial.to_bytes(8, "little")),
        (8, token.evidence), (9, cluster.actor(0).node_id.encode()),
        (10, (7).to_bytes(8, "little")),
        (11, tpm.selection_to_bitmap(tuple(range(12)))),
        (12, cluster.policy_id.encode())))
    assert token.body_bytes() == body
    assert crypto.verify(svc.key.public, body, token.signature)
    assert token.to_bytes() == body + encode_field(13, token.signature)
    assert token.compact() == _b64url(token.to_bytes()).decode()
    # padded base64url, or text with a character the decoder skips, reads
    # as the same bytes, but is not a text the verifier wrote
    compact = token.compact()
    padded = compact + "=" * (-len(compact) % 4)
    for text in (compact + "==", padded[:10] + "!" + padded[10:]):
        assert b64url_decode(text) == token.to_bytes()
        with pytest.raises(DecodeError):
            verifier.AttestationToken.parse(text)
        assert svc.validate_token(text) is verifier.TokenRejection.MALFORMED


def test_token_expiry(cluster):
    token = issue_one(cluster)
    assert isinstance(cluster.verifier_svc.validate_token(token), dict)
    cluster.clock.advance(verifier.TOKEN_LIFETIME + 1)
    assert cluster.verifier_svc.validate_token(token) is \
        verifier.TokenRejection.EXPIRED


def test_token_revocation(cluster):
    token = issue_one(cluster)
    cluster.oca.revoke(cluster.actor(0).node_id, "test")
    assert cluster.verifier_svc.validate_token(token) is \
        verifier.TokenRejection.REVOKED_NODE


def test_token_tamper_detected(cluster):
    # any claim's bytes changed after signing, however well formed
    token = issue_one(cluster)
    wire = token.to_bytes()
    for old, new in (
            (encode_field(10, (7).to_bytes(8, "little")),
             encode_field(10, (999).to_bytes(8, "little"))),
            (encode_field(6, b"tpm-tee"), encode_field(6, b"tee-tpm"))):
        assert wire.count(old) == 1
        doctored = _b64url(wire.replace(old, new)).decode()
        assert cluster.verifier_svc.validate_token(doctored) is \
            verifier.TokenRejection.BAD_SIGNATURE


def test_token_truncation_malformed(cluster):
    token = issue_one(cluster)
    assert cluster.verifier_svc.validate_token("only.two") is \
        verifier.TokenRejection.MALFORMED
    # the claims without their signature field
    assert cluster.verifier_svc.validate_token(
        _b64url(token.body_bytes()).decode()) \
        is verifier.TokenRejection.MALFORMED


@pytest.mark.parametrize("make", [
    lambda token: token.to_bytes(),
    lambda token: token.compact().encode(),
    lambda token: None,
    lambda token: 7,
], ids=["record-bytes", "compact-bytes", "none", "int"])
def test_a_value_that_is_no_token_nor_its_text_is_malformed(cluster, make):
    # the token-info body carries the record's bytes: a relying party that
    # passes those, or anything else that is neither a token nor its
    # compact text, reads MALFORMED from both validators
    svc = cluster.verifier_svc
    value = make(issue_one(cluster))
    assert verifier.validate_token(value, svc.key.public, svc.clock.now()) \
        is verifier.TokenRejection.MALFORMED
    assert svc.validate_token(value) is verifier.TokenRejection.MALFORMED


def test_hostile_token_text_is_malformed(cluster):
    # text that is no token's compact form is a DecodeError and reads
    # MALFORMED, never another error: deep brackets, the empty string,
    # non-ascii, two tokens run together and every truncation of one
    compact = issue_one(cluster).compact()
    texts = ["[" * 100_000, "", "é" * 8, compact + compact]
    texts += [compact[:cut] for cut in range(len(compact))]
    for text in texts:
        with pytest.raises(DecodeError):
            verifier.AttestationToken.parse(text)
        assert cluster.verifier_svc.validate_token(text) is \
            verifier.TokenRejection.MALFORMED


def test_forged_serial_never_issued_is_rejected(cluster):
    token = issue_one(cluster)
    mallory = crypto.SigningKeyPair.from_seed(b"\x99" * 32)
    forged = verifier.AttestationToken.signed(
        mallory, **_body_fields(token, serial=424242))
    # wrong key: fails signature outright
    assert cluster.verifier_svc.validate_token(forged) is \
        verifier.TokenRejection.BAD_SIGNATURE
    # right key but a serial the counter never reached or never hands out
    for serial in (424242, 0, token.serial + 1):
        resigned = verifier.AttestationToken.signed(
            cluster.verifier_svc.key, **_body_fields(token, serial=serial))
        assert cluster.verifier_svc.validate_token(resigned.compact()) is \
            verifier.TokenRejection.BAD_SIGNATURE, serial
    assert isinstance(cluster.verifier_svc.validate_token(token.compact()),
                      dict)


def test_ill_typed_claims_signed_by_the_verifier_are_malformed(cluster):
    # a claim of the wrong width or encoding, and a wrong alg or version,
    # each under the verifier's own signature
    token = issue_one(cluster)
    svc = cluster.verifier_svc
    spec = verifier.AttestationToken.SPEC
    cases = [("alg", STR, "ES384"),
             ("version", U16, verifier.TOKEN_FORMAT_VERSION + 1),
             ("version", U64, verifier.TOKEN_FORMAT_VERSION),
             ("key_id", RAW, bytes(9)), ("issued_at", U16, 7),
             ("serial", STR, "1"), ("node", RAW, b"\xff\xfe"),
             ("tcb", RAW, b"\x07"), ("pcr_selection", RAW, bytes(4)),
             ("policy", RAW, b"\xc3")]
    for attr, kind, value in cases:
        fields = [(tag, name, kind if name == attr else old)
                  for tag, name, old in spec.fields]
        values = _body_fields(token, **{attr: value})
        values["signature"] = svc.key.sign(Spec(*fields[:-1]).encode(values))
        signed = _b64url(Spec(*fields).encode(values)).decode()
        assert verifier.validate_token(signed, svc.key.public_bytes,
                                       cluster.clock.now()) is \
            verifier.TokenRejection.MALFORMED, (attr, value)
        assert svc.validate_token(signed) is \
            verifier.TokenRejection.MALFORMED, (attr, value)
    assert isinstance(svc.validate_token(token.compact()), dict)


def test_module_level_validate_without_issuance_log(cluster):
    token = issue_one(cluster)
    claims = verifier.validate_token(token.compact(),
                                     cluster.verifier_svc.key.public_bytes,
                                     cluster.clock.now())
    assert isinstance(claims, dict)
