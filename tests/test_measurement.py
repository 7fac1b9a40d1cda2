"""Measured boot: staged PCR extension, image manifests, event log
replay and tamper detection."""

import pytest

from ccxtrust import crypto, measurement, tee, tpm
from ccxtrust.errors import (
    LogGap,
    StageOrderViolation,
    UntrustedImage,
)

TCB = tee.TeeTcb(crypto.sha256(b"o"), crypto.sha256(b"k"),
                 crypto.sha256(b"i"), crypto.sha256(b"c"))

HOST = [("bios", b"bios-v1"), ("bootloader", b"grub-v2"),
        ("host-kernel", b"linux-v6")]
IMAGES = [("guest-os", b"guest os bits"), ("runtime", b"containerd bits")]
WORKLOADS = [("web", b"web bits"), ("db", b"db bits")]


def make_epoch(seed: bytes = b"\x21" * 32):
    state = tpm.tpm_manufacture(seed)
    rng = crypto.DeterministicRng(b"publisher")
    publisher = crypto.SigningKeyPair.generate(rng)
    epoch = measurement.MeasurementEpoch(state, publisher.public_bytes)
    return epoch, publisher, state


def manifests_for(publisher, images=IMAGES):
    return [(measurement.sign_manifest(publisher, name, content), content)
            for name, content in images]


def full_boot(epoch, publisher):
    epoch.run_host_stage(HOST)
    epoch.run_launch_stage(manifests_for(publisher), TCB)
    allow = {name: crypto.sha256(content) for name, content in WORKLOADS}
    return epoch.run_runtime_stage(WORKLOADS, allow)


# ---------------------------------------------------------------------------
# staged boot
# ---------------------------------------------------------------------------

def test_three_stage_boot_produces_clean_outcome():
    epoch, publisher, state = make_epoch()
    assert full_boot(epoch, publisher) == []
    assert [e.digest for e in epoch.events if e.name == "launch-digest"] \
        == [tee.launch_measure(TCB)]
    # host events landed in the host band, launch in the launch band
    assert all(e.pcr_index in measurement.HOST_PCRS
               for e in epoch.events if e.stage == measurement.STAGE_HOST)
    assert all(e.pcr_index in measurement.LAUNCH_PCRS
               for e in epoch.events if e.stage == measurement.STAGE_LAUNCH)
    assert tpm.pcr_read(state, measurement.HOST_PCRS[0]) != bytes(32)


def test_stage_order_enforced():
    epoch, publisher, _ = make_epoch()
    with pytest.raises(StageOrderViolation):
        epoch.run_launch_stage(manifests_for(publisher), TCB)
    epoch.run_host_stage(HOST)
    with pytest.raises(StageOrderViolation):
        epoch.run_host_stage(HOST)
    with pytest.raises(StageOrderViolation):
        epoch.run_runtime_stage(WORKLOADS, {})


def test_forged_manifest_refuses_boot_before_extending():
    epoch, publisher, state = make_epoch()
    epoch.run_host_stage(HOST)
    mallory = crypto.SigningKeyPair.generate(crypto.DeterministicRng(b"mallory"))
    bad = manifests_for(mallory, [("guest-os", b"evil bits")])
    good = manifests_for(publisher)
    before = [tpm.pcr_read(state, i) for i in measurement.LAUNCH_PCRS]
    with pytest.raises(UntrustedImage):
        epoch.run_launch_stage(good + bad, TCB)
    after = [tpm.pcr_read(state, i) for i in measurement.LAUNCH_PCRS]
    assert before == after  # nothing from the batch was extended
    # the stage is still available for an honest retry
    assert epoch.run_launch_stage(good, TCB)


def test_tampered_content_refuses_boot():
    epoch, publisher, _ = make_epoch()
    epoch.run_host_stage(HOST)
    manifest, _ = manifests_for(publisher, [("guest-os", b"guest os bits")])[0]
    with pytest.raises(UntrustedImage):
        epoch.run_launch_stage([(manifest, b"swapped after signing")], TCB)


def test_runtime_deviations_reported_not_extended():
    epoch, publisher, state = make_epoch()
    epoch.run_host_stage(HOST)
    epoch.run_launch_stage(manifests_for(publisher), TCB)
    allow = {"web": crypto.sha256(b"web bits")}
    before = [tpm.pcr_read(state, i) for i in measurement.RUNTIME_PCRS]
    deviations = epoch.run_runtime_stage(
        [("web", b"web bits"), ("cryptominer", b"evil")], allow)
    assert deviations == ["cryptominer"]
    after = [tpm.pcr_read(state, i) for i in measurement.RUNTIME_PCRS]
    assert before != after  # the allowed workload did extend


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifest_round_trip_and_verify():
    publisher = crypto.SigningKeyPair.generate(crypto.DeterministicRng(b"p"))
    manifest = measurement.sign_manifest(publisher, "img", b"content")
    assert manifest.verify(publisher.public_bytes)
    assert manifest.content_digest == crypto.sha256(b"content")
    parsed = measurement.ImageManifest.from_bytes(manifest.to_bytes())
    assert parsed == manifest

    other = crypto.SigningKeyPair.generate(crypto.DeterministicRng(b"q"))
    assert not manifest.verify(other.public_bytes)


# ---------------------------------------------------------------------------
# log replay
# ---------------------------------------------------------------------------

def test_replay_reproduces_live_bank():
    epoch, publisher, state = make_epoch()
    full_boot(epoch, publisher)
    replayed = measurement.replay_log(epoch.events)
    for index in measurement.ALL_STAGE_PCRS:
        assert replayed[index] == tpm.pcr_read(state, index)
    assert measurement.verify_log_against_bank(epoch.events, state)


def test_replay_detects_any_single_byte_tamper():
    import dataclasses
    epoch, publisher, state = make_epoch()
    full_boot(epoch, publisher)
    for position, event in enumerate(epoch.events):
        doctored = list(epoch.events)
        flipped = bytearray(event.digest)
        flipped[0] ^= 0x01
        doctored[position] = dataclasses.replace(event, digest=bytes(flipped))
        replayed = measurement.replay_log(doctored)
        assert replayed[event.pcr_index] != tpm.pcr_read(state, event.pcr_index)
        assert not measurement.verify_log_against_bank(doctored, state)


def test_replay_rejects_gaps_and_reordering():
    epoch, publisher, state = make_epoch()
    full_boot(epoch, publisher)
    with pytest.raises(LogGap):
        measurement.replay_log(epoch.events[1:])
    with pytest.raises(LogGap):
        measurement.replay_log(epoch.events[:3] + epoch.events[4:])
    swapped = list(epoch.events)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(LogGap):
        measurement.replay_log(swapped)
    assert not measurement.verify_log_against_bank(epoch.events[1:], state)


def test_replay_rejects_stage_regression():
    import dataclasses
    epoch, publisher, _ = make_epoch()
    full_boot(epoch, publisher)
    # renumber a host event to sit after the runtime stage
    host_event = epoch.events[0]
    tail = epoch.events[1:] + [host_event]
    renumbered = [dataclasses.replace(e, seq=i) for i, e in enumerate(tail)]
    with pytest.raises(StageOrderViolation):
        measurement.replay_log(renumbered)


def test_replay_rejects_an_event_for_a_pcr_outside_the_stages():
    import dataclasses
    epoch, publisher, state = make_epoch()
    full_boot(epoch, publisher)
    # PCR 16 is in the bank but in no stage: a LogGap, not a KeyError
    stray = dataclasses.replace(epoch.events[-1], seq=len(epoch.events),
                                pcr_index=16)
    assert stray.pcr_index not in measurement.ALL_STAGE_PCRS
    with pytest.raises(LogGap, match="unexpected PCR 16"):
        measurement.replay_log(epoch.events + [stray])
    assert not measurement.verify_log_against_bank(epoch.events + [stray],
                                                   state)


def test_log_text_round_trip():
    # the log's text is for people: one line() per event, in log order,
    # each holding the event's fields in column order
    epoch, publisher, _ = make_epoch()
    full_boot(epoch, publisher)
    text = "\n".join(epoch.log_lines())
    assert text.splitlines() == [event.line() for event in epoch.events]
    for line, event in zip(text.splitlines(), epoch.events):
        assert line.split() == [str(event.seq), str(event.stage),
                                str(event.pcr_index), event.name,
                                event.digest.hex(), event.signer]
