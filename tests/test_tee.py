"""Simulated TEE: chip endorsement key derivation, vendor chain, launch
measurement, guest report generation and verification.

The launch measurement expectation for all-zero component digests was
computed with a standalone digest over the concatenated components and
frozen here first.
"""

from dataclasses import replace

import pytest

from ccxtrust import crypto, tee
from ccxtrust.errors import EvidenceTooLarge, InvalidLength

CHIP = crypto.sha256(b"chip-0")
ZERO_TCB = tee.TeeTcb(bytes(32), bytes(32), bytes(32), bytes(32))


def make_vendor() -> tee.TeeVendor:
    return tee.TeeVendor(b"vendor-seed-material")


def sample_tcb() -> tee.TeeTcb:
    return tee.TeeTcb(crypto.sha256(b"ovmf"), crypto.sha256(b"kernel"),
                      crypto.sha256(b"initrd"), crypto.sha256(b"cmdline"))


# ---------------------------------------------------------------------------
# launch measurement
# ---------------------------------------------------------------------------

def test_launch_measure_frozen_vector():
    assert tee.launch_measure(ZERO_TCB).hex() == (
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca")


def test_launch_measure_sensitive_to_every_component():
    base = tee.launch_measure(sample_tcb())
    for field in ("ovmf", "kernel", "initrd", "cmdline"):
        kwargs = {"ovmf": crypto.sha256(b"ovmf"),
                  "kernel": crypto.sha256(b"kernel"),
                  "initrd": crypto.sha256(b"initrd"),
                  "cmdline": crypto.sha256(b"cmdline")}
        kwargs[field] = crypto.sha256(b"tampered")
        assert tee.launch_measure(tee.TeeTcb(**kwargs)) != base


def test_tcb_component_width_enforced():
    with pytest.raises(InvalidLength):
        tee.TeeTcb(b"short", bytes(32), bytes(32), bytes(32))


# ---------------------------------------------------------------------------
# vendor and chip endorsement keys
# ---------------------------------------------------------------------------

def test_vcek_derivation_deterministic_per_chip_and_tcb():
    vendor = make_vendor()
    k1, _ = vendor.derive_vcek(CHIP, 7)
    k2, _ = vendor.derive_vcek(CHIP, 7)
    k3, _ = vendor.derive_vcek(CHIP, 8)
    k4, _ = vendor.derive_vcek(crypto.sha256(b"chip-1"), 7)
    assert k1.public_bytes == k2.public_bytes
    assert k1.public_bytes != k3.public_bytes
    assert k1.public_bytes != k4.public_bytes


def test_vendor_chain_verifies_against_root():
    vendor = make_vendor()
    vcek, chain = vendor.derive_vcek(CHIP, 7)
    assert chain.verify(vendor.root_pub)
    assert chain.vcek.subject == vcek.public_bytes
    assert not chain.verify(make_vendor_other().root_pub)


def make_vendor_other() -> tee.TeeVendor:
    return tee.TeeVendor(b"some-other-vendor-seed")


def test_chain_round_trip_encoding():
    vendor = make_vendor()
    _, chain = vendor.derive_vcek(CHIP, 7)
    assert tee.CertChain.from_bytes(chain.to_bytes()) == chain


def test_spliced_chain_rejected():
    vendor = make_vendor()
    other = make_vendor_other()
    _, chain = vendor.derive_vcek(CHIP, 7)
    _, foreign = other.derive_vcek(CHIP, 7)
    spliced = tee.CertChain(chain.ark, chain.ask, foreign.vcek)
    assert not spliced.verify(vendor.root_pub)


def test_chain_check_under_a_public_key_root_refuses_every_bad_link():
    """The ASK is verified under the root's key object, not under a parse
    of ark.subject, which is sound only because the ARK must be the root:
    every link is still checked for its signer and its role."""
    def pair(label):
        return crypto.SigningKeyPair.from_seed(label, crypto.sha256(label.encode()))

    ark, ask, vcek = pair("ARK"), pair("ASK"), pair("VCEK")
    other_ark, other_ask = pair("other ARK"), pair("other ASK")

    def cert(issuer, role, subject):
        return crypto.issue_certificate(issuer, role, 1, subject.public_bytes)

    def forged(signer, role, subject, named_issuer):
        # claims named_issuer as its issuer, but is signed by signer
        unsigned = crypto.Certificate(role, 1, subject.public_bytes,
                                      crypto.sha256(named_issuer.public_bytes),
                                      b"", b"")
        return replace(unsigned, signature=signer.sign(unsigned.body_bytes()))

    root = ark.public
    good = tee.CertChain(cert(ark, "ARK", ark), cert(ark, "ASK", ask),
                         cert(ask, "VCEK", vcek))
    assert good.verify(root)
    assert good.verify(crypto.PublicKey(ark.public_bytes))
    bad_chains = {
        "ark subject is not the root":
            replace(good, ark=cert(ark, "ARK", other_ark)),
        "ark is another root, self-signed":
            replace(good, ark=cert(other_ark, "ARK", other_ark)),
        "ask signed by another ark": replace(good, ask=cert(other_ark, "ASK", ask)),
        "ask signed by another ark, naming the root":
            replace(good, ask=forged(other_ark, "ASK", ask, ark)),
        "vcek signed by another ask":
            replace(good, vcek=cert(other_ask, "VCEK", vcek)),
        "vcek signed by another ask, naming the ask":
            replace(good, vcek=forged(other_ask, "VCEK", vcek, ask)),
        "ark role": replace(good, ark=cert(ark, "ASK", ark)),
        "ask role": replace(good, ask=cert(ark, "VCEK", ask)),
        "vcek role": replace(good, vcek=cert(ask, "ASK", vcek)),
    }
    for name, chain in bad_chains.items():
        assert not chain.verify(root), name


# ---------------------------------------------------------------------------
# guest reports
# ---------------------------------------------------------------------------

def test_guest_report_round_trip_and_verify():
    vendor = make_vendor()
    vcek, chain = vendor.derive_vcek(CHIP, 7)
    data = crypto.sha256(b"nonce") + bytes(32)
    report = tee.guest_report(vcek, CHIP, sample_tcb(), 7, data,
                              embedded_evidence=b"inner")
    assert report.chip_id == CHIP
    assert report.tcb_version == 7
    assert report.launch_measurement == tee.launch_measure(sample_tcb())

    parsed = tee.TeeReport.from_bytes(report.to_bytes())
    assert parsed == report
    assert chain.verify(vendor.root_pub)
    assert parsed.verify(chain.vcek.subject)


def test_report_tamper_breaks_signature():
    import dataclasses
    vendor = make_vendor()
    vcek, chain = vendor.derive_vcek(CHIP, 7)
    data = crypto.sha256(b"n") + bytes(32)
    report = tee.guest_report(vcek, CHIP, sample_tcb(), 7, data, b"evidence")
    assert report.verify(chain.vcek.subject)
    for change in (
        {"tcb_version": 8},
        {"report_data": bytes(64)},
        {"embedded_evidence": b"evidence!"},
        {"launch_measurement": bytes(32)},
    ):
        forged = dataclasses.replace(report, **change)
        assert not forged.verify(chain.vcek.subject)


def test_report_data_width_enforced():
    vendor = make_vendor()
    vcek, _ = vendor.derive_vcek(CHIP, 7)
    with pytest.raises(InvalidLength):
        tee.guest_report(vcek, CHIP, sample_tcb(), 7, b"short")


def test_embedded_evidence_size_cap():
    vendor = make_vendor()
    vcek, _ = vendor.derive_vcek(CHIP, 7)
    data = bytes(64)
    report = tee.guest_report(vcek, CHIP, sample_tcb(), 7, data,
                              b"\x01" * tee.MAX_EVIDENCE_SIZE)
    assert len(report.embedded_evidence) == tee.MAX_EVIDENCE_SIZE
    with pytest.raises(EvidenceTooLarge):
        tee.guest_report(vcek, CHIP, sample_tcb(), 7, data,
                         b"\x01" * (tee.MAX_EVIDENCE_SIZE + 1))
