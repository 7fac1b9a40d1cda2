"""Wire field encoding round-trips and malformed-input rejection."""

import random
from collections import Counter

import pytest

from ccxtrust import crypto, harness, measurement, protocol, tee, tpm
from ccxtrust.encoding import (
    FLAG,
    RAW,
    STR,
    U16,
    U64,
    FieldReader,
    FieldWriter,
    Many,
    Spec,
    b64url_decode,
    b64url_encode,
    encode_field,
    raw,
)
from ccxtrust.errors import CcxError, DecodeError


# ---------------------------------------------------------------------------
# TLV round trips
# ---------------------------------------------------------------------------

def test_single_field_layout():
    raw = encode_field(0x0102, b"abc")
    # u16 tag, u32 length, payload; header integers are little-endian
    assert raw == bytes.fromhex("0201") + bytes.fromhex("03000000") + b"abc"


def test_writer_reader_round_trip():
    spec = Spec((1, "blob", RAW), (2, "short", U16), (4, "wide", U64),
                (5, "name", STR), (6, "on", FLAG), (7, "digest", raw(4)),
                (8, "capped", raw(max_len=8)),
                (9, "entries", Many(Spec((1, "key", STR)))),
                (10, "after", RAW))
    values = {"blob": b"alpha", "short": 0xBEEF, "wide": 2**40 + 7,
              "name": "owner-ca", "on": True, "digest": b"\x00\x01\x02\x03",
              "capped": b"12345678",
              "entries": [{"key": "a"}, {"key": "b"}], "after": b""}
    encoded = spec.encode(values)
    r = FieldReader(encoded)
    assert r.take(1) == b"alpha"
    assert r.take(2) == (0xBEEF).to_bytes(2, "little")
    assert r.take(4) == (2**40 + 7).to_bytes(8, "little")
    assert r.take(5) == "owner-ca".encode()
    assert r.take(6) == b"\x01"
    assert r.take(7) == b"\x00\x01\x02\x03"
    assert r.take(8) == b"12345678"
    assert r.take(9) == encode_field(1, b"a")
    assert r.take(9) == encode_field(1, b"b")
    assert r.take(10) == b""
    assert r.exhausted
    r.finish()
    assert spec.decode(encoded) == values


def test_empty_payload_round_trip():
    raw = FieldWriter().put(9, b"").getvalue()
    assert FieldReader(raw).take(9) == b""


def test_peek_tag_does_not_consume():
    raw = FieldWriter().put(7, b"x").getvalue()
    r = FieldReader(raw)
    assert r.peek_tag() == 7
    assert r.peek_tag() == 7
    assert r.take(7) == b"x"


# ---------------------------------------------------------------------------
# Malformed input
# ---------------------------------------------------------------------------

def test_wrong_tag_rejected():
    raw = FieldWriter().put(1, b"x").getvalue()
    with pytest.raises(DecodeError):
        FieldReader(raw).take(2)


def test_truncated_header_rejected():
    raw = FieldWriter().put(1, b"abcdef").getvalue()
    with pytest.raises(DecodeError):
        FieldReader(raw[:3]).take(1)


def test_truncated_payload_rejected():
    raw = FieldWriter().put(1, b"abcdef").getvalue()
    with pytest.raises(DecodeError):
        FieldReader(raw[:-2]).take(1)


def test_trailing_garbage_rejected_by_finish():
    raw = FieldWriter().put(1, b"x").getvalue() + b"\x00"
    r = FieldReader(raw)
    r.take(1)
    with pytest.raises(DecodeError):
        r.finish()


def test_integer_width_enforced():
    # each kind rejects payloads its encoder cannot produce
    for kind, payload in ((U16, b"\x01\x02\x03"), (U64, b"\x01" * 7),
                          (raw(4), b"\x01" * 3), (raw(4), b"\x01" * 5),
                          (raw(max_len=4), b"\x01" * 5), (FLAG, b""),
                          (FLAG, b"\x02"), (FLAG, b"\x00\x00"),
                          (STR, b"\xff")):
        raw_bytes = FieldWriter().put(2, payload).getvalue()
        with pytest.raises(DecodeError):
            Spec((2, "value", kind)).decode(raw_bytes)


# ---------------------------------------------------------------------------
# base64url
# ---------------------------------------------------------------------------

def test_b64url_round_trip_various_lengths():
    for n in range(0, 70):
        data = bytes(range(n))
        text = b64url_encode(data)
        assert "=" not in text
        assert "+" not in text and "/" not in text
        assert b64url_decode(text) == data


def test_b64url_decode_rejects_bad_text():
    with pytest.raises(DecodeError):
        b64url_decode("!!!not base64!!!")


# ---------------------------------------------------------------------------
# Mutation fuzz over every decodable type
# ---------------------------------------------------------------------------

def _mutants(original: bytes, rng: random.Random, count: int):
    """Single-byte flips, inserts and deletes at random offsets."""
    for _ in range(count):
        buf = bytearray(original)
        op = rng.randrange(3)
        pos = rng.randrange(len(buf) + (op == 1))
        if op == 0:
            buf[pos] ^= rng.randrange(1, 256)
        elif op == 1:
            buf.insert(pos, rng.randrange(256))
        else:
            del buf[pos]
        yield bytes(buf)


def test_mutated_encodings_fail_cleanly_or_reencode_identically():
    c = harness.build_cluster(31, nodes=1)
    a = c.actor(0)
    plain_report = tee.guest_report(a.vcek, a.chip_id, a.tcb, a.tcb_version,
                                    bytes(64))
    quote = tpm.cc_quote(a.state, a.pcr_selection, bytes(32), a.aik_handle,
                         plain_report.to_bytes())
    report = tee.guest_report(a.vcek, a.chip_id, a.tcb, a.tcb_version,
                              bytes(64), embedded_evidence=quote.to_bytes())
    credential = tpm.make_credential(crypto.Secret(bytes(32)), a.aik_blob.name,
                                     a.state.ek_blob.public,
                                     crypto.DeterministicRng(b"fuzz"))
    envelope = protocol.CompositeReportEnvelope("tpm-tee", a.node_id,
                                                bytes(16), quote.to_bytes())
    # (name, bytes, decode, encode): any input that decodes must be the
    # encoding of what it decodes to
    canonical = [
        ("certificate", a.aik_cert.to_bytes(), crypto.Certificate.from_bytes,
         crypto.Certificate.to_bytes),
        ("cert-chain", a.vendor_chain.to_bytes(), tee.CertChain.from_bytes,
         tee.CertChain.to_bytes),
        ("tee-report", report.to_bytes(), tee.TeeReport.from_bytes,
         tee.TeeReport.to_bytes),
        ("quote", quote.to_bytes(), tpm.CompositeQuote.from_bytes,
         tpm.CompositeQuote.to_bytes),
        ("key-blob", a.aik_blob.to_bytes(), tpm.KeyBlob.from_bytes,
         tpm.KeyBlob.to_bytes),
        ("public-area", a.aik_blob.public_area(), tpm.parse_public_area,
         tpm.KeyBlob.public_area),
        ("credential", credential.to_bytes(), tpm.Credential.from_bytes,
         tpm.Credential.to_bytes),
        ("sealed-blob", tpm.seal(a.state, b"disk key", (0, 4)).to_bytes(),
         tpm.SealedBlob.from_bytes, tpm.SealedBlob.to_bytes),
        ("manifest", measurement.sign_manifest(c.publisher, "kernel",
                                               b"image").to_bytes(),
         measurement.ImageManifest.from_bytes,
         measurement.ImageManifest.to_bytes),
        ("envelope", envelope.to_bytes(),
         protocol.CompositeReportEnvelope.from_bytes,
         protocol.CompositeReportEnvelope.to_bytes),
        ("nv-plaintext", tpm._encode_state(a.state), tpm._decode_state,
         tpm._encode_state),
    ]
    # AEAD-protected forms: nothing but the original opens
    nv_key = bytes(range(32))
    sealed = [
        ("wire-frame", c.channels.seal(0x0201, "verifier", a.agent,
                                       bytes(16), b"body"),
         lambda raw: c.channels.open(raw, a.agent)),
        ("nv-image", tpm.nv_persist(a.state, nv_key, crypto.DeterministicRng(1)),
         lambda raw: tpm.nv_load(raw, nv_key)),
    ]
    rng = random.Random(20261018)
    accepted, differs = Counter(), []
    for name, original, decode, encode in canonical:
        assert encode(decode(original)) == original, name
        for mutant in _mutants(original, rng, 1000):
            try:
                value = decode(mutant)
            except CcxError:
                continue
            accepted[name] += 1
            if encode(value) != mutant:
                differs.append((name, mutant.hex()))
    for name, original, decode in sealed:
        decode(original)
        for mutant in _mutants(original, rng, 1000):
            with pytest.raises(CcxError):
                decode(mutant)
    assert differs == []
    # payload bytes of unchecked fields do change in place, so the
    # canonicity half is exercised on every type
    assert set(accepted) == {name for name, *_ in canonical}
