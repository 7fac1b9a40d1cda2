"""Wire field encoding round-trips and malformed-input rejection."""

import dataclasses
import gc
import random
import sys
from collections import Counter

import pytest

from ccxtrust import (crypto, harness, measurement, protocol, tee, tpm,
                      verifier)
from ccxtrust.crypto import Signed
from ccxtrust.encoding import (
    RAW,
    STR,
    U16,
    U64,
    FieldReader,
    FieldWriter,
    Record,
    Spec,
    b64url_decode,
    b64url_encode,
    encode_field,
    raw,
)
from ccxtrust.errors import CcxError, DecodeError
from ccxtrust.trace import ProtocolTrace


# ---------------------------------------------------------------------------
# The field-at-a-time codec: the reference Spec's own loops are checked
# against
# ---------------------------------------------------------------------------

def _oracle_encode(spec: Spec, values) -> bytes:
    """Encode the spec's fields one at a time through FieldWriter.put;
    values is a mapping, or a record whose fields are its attributes."""
    writer = FieldWriter()
    for tag, attr, kind in spec.fields:
        value = (getattr(values, attr) if isinstance(values, Record)
                 else values[attr])
        writer.put(tag, _oracle_kind_encode(kind, value))
    return writer.getvalue()


def _oracle_decode(spec: Spec, raw_bytes: bytes) -> dict:
    """Decode the spec's fields one at a time through FieldReader.take."""
    reader = FieldReader(raw_bytes)
    values = {}
    for tag, attr, kind in spec.fields:
        values[attr] = _oracle_kind_decode(kind, reader.take(tag))
    reader.finish()
    return values


def _oracle_kind_encode(kind, value) -> bytes:
    if isinstance(kind, Spec):
        return _oracle_encode(kind, value)
    return kind.encode(value)


def _oracle_kind_decode(kind, payload: bytes):
    if isinstance(kind, Spec):
        return _oracle_decode(kind, payload)
    return kind.decode(payload)


def _outcome(decode, raw_bytes: bytes):
    """What decoding gives: the value, or the error's type and message."""
    try:
        return "value", decode(raw_bytes)
    except CcxError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# TLV round trips
# ---------------------------------------------------------------------------

def test_single_field_layout():
    raw = encode_field(0x0102, b"abc")
    # u16 tag, u32 length, payload; header integers are little-endian
    assert raw == bytes.fromhex("0201") + bytes.fromhex("03000000") + b"abc"


def test_writer_reader_round_trip():
    spec = Spec((1, "blob", RAW), (2, "short", U16), (4, "wide", U64),
                (5, "name", STR), (7, "digest", raw(4)),
                (8, "capped", raw(max_len=8)),
                (10, "after", RAW))
    values = {"blob": b"alpha", "short": 0xBEEF, "wide": 2**40 + 7,
              "name": "owner-ca", "digest": b"\x00\x01\x02\x03",
              "capped": b"12345678", "after": b""}
    encoded = spec.encode(values)
    r = FieldReader(encoded)
    assert r.take(1) == b"alpha"
    assert r.take(2) == (0xBEEF).to_bytes(2, "little")
    assert r.take(4) == (2**40 + 7).to_bytes(8, "little")
    assert r.take(5) == "owner-ca".encode()
    assert r.take(7) == b"\x00\x01\x02\x03"
    assert r.take(8) == b"12345678"
    assert r.take(10) == b""
    assert r.exhausted
    r.finish()
    assert spec.decode(encoded) == values


def test_empty_payload_round_trip():
    raw = FieldWriter().put(9, b"").getvalue()
    assert FieldReader(raw).take(9) == b""


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
                          (raw(max_len=4), b"\x01" * 5), (STR, b"\xff")):
        raw_bytes = FieldWriter().put(2, payload).getvalue()
        with pytest.raises(DecodeError):
            Spec((2, "value", kind)).decode(raw_bytes)


_ONE = encode_field(1, b"abc")


@pytest.mark.parametrize("kind, raw_bytes, message", [
    (RAW, _ONE + b"\x02\x00", "truncated field header at offset 9"),
    (RAW, encode_field(2, b"abc") + _ONE,
     "expected tag 0x0001, found 0x0002"),
    (RAW, _ONE[:-1], "field 0x0001 runs past end of buffer"),
    (raw(4), _ONE + encode_field(2, b""), "field must be 4 bytes, got 3"),
    (U16, _ONE + encode_field(2, b""), "field has wrong width for '<H'"),
    (raw(max_len=2), _ONE + encode_field(2, b""),
     "field exceeds its 2-byte limit"),
    (STR, encode_field(1, b"\xff") + encode_field(2, b""),
     "field is not valid utf-8"),
    (RAW, _ONE + encode_field(2, b"") + b"\x00\x00", "2 trailing bytes"),
], ids=["truncated-header", "wrong-tag", "past-end", "fixed-width",
        "packed-width", "max-len", "utf-8", "trailing"])
def test_spec_decode_fault_messages(kind, raw_bytes, message):
    # each fault's own text, pinned apart from the FieldReader oracle,
    # which shares _field_error with Spec.unpack
    spec = Spec((1, "first", kind), (2, "second", RAW))
    with pytest.raises(DecodeError) as info:
        spec.decode(raw_bytes)
    assert str(info.value) == message


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


@pytest.fixture(scope="module")
def fuzz_targets():
    """The fuzzed types: (name, bytes, decode, encode, spec) for each type
    whose decode is canonical, and (name, bytes, open) for each
    AEAD-protected form."""
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
    token = protocol.run_attest_composite(a, c.verifier_svc, c.channels,
                                          c.trace, policy_id=c.policy_id)
    canonical = [
        ("certificate", a.aik_cert.to_bytes(), crypto.Certificate.from_bytes,
         crypto.Certificate.to_bytes, crypto.Certificate.SPEC),
        ("cert-chain", a.vendor_chain.to_bytes(), tee.CertChain.from_bytes,
         tee.CertChain.to_bytes, tee.CertChain.SPEC),
        ("tee-report", report.to_bytes(), tee.TeeReport.from_bytes,
         tee.TeeReport.to_bytes, tee.TeeReport.SPEC),
        ("quote", quote.to_bytes(), tpm.CompositeQuote.from_bytes,
         tpm.CompositeQuote.to_bytes, tpm.CompositeQuote.SPEC),
        ("key-blob", a.aik_blob.to_bytes(), tpm.KeyBlob.from_bytes,
         tpm.KeyBlob.to_bytes, tpm.KeyBlob.SPEC),
        ("public-area", a.aik_blob.public_area(), tpm.parse_public_area,
         tpm.KeyBlob.public_area, tpm.KeyBlob.PUBLIC),
        ("credential", credential.to_bytes(), tpm.Credential.from_bytes,
         tpm.Credential.to_bytes, tpm.Credential.SPEC),
        ("sealed-blob", tpm.seal(a.state, b"disk key", (0, 4)).to_bytes(),
         tpm.SealedBlob.from_bytes, tpm.SealedBlob.to_bytes,
         tpm.SealedBlob.SPEC),
        ("manifest", measurement.sign_manifest(c.publisher, "kernel",
                                               b"image").to_bytes(),
         measurement.ImageManifest.from_bytes,
         measurement.ImageManifest.to_bytes, measurement.ImageManifest.SPEC),
        ("envelope", envelope.to_bytes(),
         protocol.CompositeReportEnvelope.from_bytes,
         protocol.CompositeReportEnvelope.to_bytes,
         protocol.CompositeReportEnvelope.SPEC),
        ("token", token.to_bytes(), verifier.AttestationToken.from_bytes,
         verifier.AttestationToken.to_bytes, verifier.AttestationToken.SPEC),
    ]
    # AEAD-protected forms: nothing but the original opens
    header = (0x0201, "verifier", a.agent, bytes(16))
    sealed = [
        ("sealed-body", c.channels.seal(*header, b"body"),
         lambda raw: c.channels.open(*header, raw)),
    ]
    return canonical, sealed


def test_mutated_encodings_fail_cleanly_or_reencode_identically(fuzz_targets):
    # any input that decodes must be the encoding of what it decodes to
    canonical, sealed = fuzz_targets
    rng = random.Random(20261018)
    accepted, differs = Counter(), []
    for name, original, decode, encode, _spec in canonical:
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


# ---------------------------------------------------------------------------
# Spec's loops against the field-at-a-time oracle
# ---------------------------------------------------------------------------

def _library_specs() -> list[Spec]:
    """Every Spec of the library: the record layouts and signed bodies, the
    message bodies, and the specs nested in them."""
    records = [cls for base in (Record, Signed) for cls in base.__subclasses__()
               if cls.__module__.startswith("ccxtrust.") and cls is not Signed]
    stack = [spec for cls in records for spec in vars(cls).values()
             if isinstance(spec, Spec)]
    stack += [body for _, body in protocol.MESSAGE_TYPES.values()]
    specs: list[Spec] = []
    while stack:
        spec = stack.pop()
        if any(spec is seen for seen in specs):
            continue
        specs.append(spec)
        for _tag, _attr, kind in spec.fields:
            if isinstance(kind, Spec):
                stack.append(kind)
    return specs


def test_generated_codec_matches_oracle_on_an_honest_run(monkeypatch):
    # every Spec encode and decode through enrollment, attestation and
    # the golden structures must give what FieldWriter and FieldReader give
    used: Counter = Counter()
    mismatches = []

    def check(spec):
        encode, unpack = spec.encode, spec.unpack

        def checked_encode(values):
            out = encode(values)
            used[spec] += 1
            if out != _oracle_encode(spec, values):
                mismatches.append(("encode", spec.attrs, out.hex()))
            return out

        def checked_unpack(raw_bytes):
            values = unpack(raw_bytes)
            if dict(zip(spec.attrs, values)) != _oracle_decode(spec, raw_bytes):
                mismatches.append(("decode", spec.attrs, raw_bytes.hex()))
            return values

        monkeypatch.setattr(spec, "encode", checked_encode)
        monkeypatch.setattr(spec, "unpack", checked_unpack)

    for spec in _library_specs():
        check(spec)
    c = harness.build_cluster(4242, nodes=2)
    for index, direction in enumerate(("tpm-tee", "tee-tpm")):
        token = protocol.run_attest_composite(
            c.actor(index), c.verifier_svc, c.channels, ProtocolTrace(),
            policy_id=c.policy_id, direction=direction)
        assert isinstance(c.verifier_svc.validate_token(token), dict)
    a = c.actor(0)
    golden = [
        a.aik_blob,
        tpm.seal(a.state, b"pinned disk key", (0, 4, 7)),
        tpm.make_credential(crypto.Secret(bytes(range(32))), a.aik_blob.name,
                            a.state.ek_blob.public,
                            crypto.DeterministicRng(b"pinned-credential")),
        measurement.sign_manifest(c.publisher, "kernel", b"pinned kernel"),
        a.vendor_chain,
    ]
    for record in golden:
        assert type(record).from_bytes(record.to_bytes()) == record
    assert mismatches == []
    assert all(used[body] for _, body in protocol.MESSAGE_TYPES.values())
    assert all(used[cls.SPEC] for cls in (type(r) for r in golden))


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="instance dicts are made on demand from 3.11 on")
def test_no_record_holds_a_dict(fuzz_targets):
    # Spec.encode reads a record's fields as attributes, so encoding,
    # digesting, checking and naming a record never give it the __dict__
    # that vars() would make: every kind of record, decoded and built
    canonical, _sealed = fuzz_targets
    vendor = tee.TeeVendor(b"footprint vendor")
    _vcek, chain = vendor.derive_vcek(bytes(32), 1)
    records = [decode(raw_bytes) for _name, raw_bytes, decode, *_ in canonical]
    records.append(chain)
    kinds = {cls for base in (Record, Signed) for cls in base.__subclasses__()
             if cls.__module__.startswith("ccxtrust.") and cls is not Signed}
    assert {type(record) for record in records} == kinds
    assert chain.verify(vendor.root_pub)
    for record in records:
        record.to_bytes()
        if isinstance(record, Signed):
            record.digest
            record.body_bytes()
            record.verify(vendor.root_pub)
        if isinstance(record, tpm.KeyBlob):
            record.public_area()
            record.name
    records += [chain.ark, chain.ask, chain.vcek]
    assert [type(record).__name__ for record in records
            if any(isinstance(ref, dict) for ref in gc.get_referents(record))
            ] == []


def test_generated_decode_matches_oracle_on_mutants(fuzz_targets):
    # the same corpus as the canonicity fuzz: both paths reject a mutant
    # with the same error, or both read the same values from it
    canonical, _sealed = fuzz_targets
    rng = random.Random(20261018)
    rejected = Counter()
    for name, original, _decode, _encode, spec in canonical:
        for mutant in _mutants(original, rng, 1000):
            outcome = _outcome(spec.decode, mutant)
            assert outcome == _outcome(
                lambda raw_bytes: _oracle_decode(spec, raw_bytes), mutant), name
            rejected[name] += outcome[0] != "value"
    assert all(rejected[name] for name, *_ in canonical)


def test_record_fields_must_follow_the_spec_order():
    with pytest.raises(TypeError, match="SPEC"):
        class Swapped(Record):
            second: bytes
            first: bytes

            SPEC = Spec((1, "first", RAW), (2, "second", RAW))


def test_signed_records_match_the_unsigned_copy_signed_after():
    # Signed.signed encodes the body once; the record is the one that an
    # unsigned copy signed over its body_bytes gives
    c = harness.build_cluster(5, nodes=1)
    actor = c.actor(0)
    key = crypto.SigningKeyPair.from_seed("OCA", b"\x05" * 32)
    aik = tpm.loaded_keypair(actor.state, actor.aik_handle)
    made = [
        (crypto.issue_certificate(key, "AIK", 9, aik.public_bytes), key),
        (measurement.sign_manifest(key, "kernel", b"image bytes"), key),
        (tee.guest_report(actor.vcek, actor.chip_id, actor.tcb,
                          actor.tcb_version, bytes(64), b"inner"),
         actor.vcek),
        (tpm.cc_quote(actor.state, actor.pcr_selection, bytes(32),
                      actor.aik_handle, b"inner"), aik),
    ]
    for record, signer in made:
        unsigned = dataclasses.replace(record, signature=b"")
        old_way = dataclasses.replace(
            unsigned, signature=signer.sign(unsigned.body_bytes()))
        assert old_way == record
        assert old_way.to_bytes() == record.to_bytes()

