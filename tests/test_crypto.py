"""Primitive layer: hashing, KDF, deterministic RNG, signatures, ECDH,
authenticated channels, certificates.

The KDF and hash expectations below were computed with a separate
one-off implementation (direct HMAC counter construction per SP 800-108)
before this module existed, then frozen here as hex.
"""

import hashlib
import hmac
import struct
import sys
import threading

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    PublicFormat,
)

from ccxtrust import crypto, harness
from ccxtrust.encoding import encode_field
from ccxtrust.errors import (
    AuthFailure,
    DecodeError,
    InvalidLength,
    InvalidPoint,
    InvalidSeed,
)


# ---------------------------------------------------------------------------
# sha256 and kdf golden vectors
# ---------------------------------------------------------------------------

def test_sha256_known_answers():
    assert crypto.sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    assert crypto.sha256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_sha256_hasher_is_fresh_and_takes_pieces():
    # the FIPS 180-2 two-block vector, fed in three pieces; every hasher
    # starts empty however much another one was fed
    message = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    expected = bytes.fromhex(
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
    first, second = crypto.sha256_hasher(), crypto.sha256_hasher()
    for piece in (message[:5], message[5:40], message[40:]):
        first.update(piece)
    assert first.finalize() == expected == crypto.sha256(message)
    assert second.finalize() == crypto.sha256(b"")


def _kdf_reference(parent: bytes, label: str, context: bytes,
                   out_len: int) -> bytes:
    """The counter KDF as its docstring states it, on the stdlib hmac."""
    blocks = [hmac.new(parent, struct.pack(">I", i) + label.encode()
                       + b"\x00" + context + struct.pack(">I", out_len * 8),
                       hashlib.sha256).digest()
              for i in range(1, 3)]
    return b"".join(blocks)[:out_len]


@pytest.mark.parametrize("out_len", [16, 32, 48, 64])
def test_kdf_counter_matches_a_stdlib_hmac_oracle(out_len):
    for parent, label, context in ((b"\x01" * 32, "STORAGE", b""),
                                   (bytes(range(16)), "TWO-PHASE", b"ctx"),
                                   (b"\xfe" * 64, "WRAP-NONCE", b"\x00" * 64)):
        assert crypto.kdf_counter(parent, label, context, out_len) == \
            _kdf_reference(parent, label, context, out_len)


def test_hashes_and_derivations_agree_across_threads():
    # eight threads share the one SHA-256 context every hash copies: each
    # gets the outputs a serial run gets
    inputs = [bytes([i]) * (17 + 13 * i) for i in range(32)]

    def outputs() -> list[tuple[bytes, bytes]]:
        return [(crypto.sha256(data),
                 crypto.kdf_counter(data[:16] * 2, "T", data, 48))
                for data in inputs]

    serial = outputs()
    results: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(
            [outputs() for _ in range(20)])) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    assert all(run == serial for runs in results for run in runs)


def test_kdf_counter_frozen_vectors():
    assert crypto.kdf_counter(b"\x01" * 32, "STORAGE", b"", 32).hex() == (
        "c4cb1028a1bf58437164cfc0c0f524d3c8fbdedf298770183b59c8e4be74e9d8")
    assert crypto.kdf_counter(b"\x01" * 32, "ENDORSEMENT").hex() == (
        "5ad65e64fe184296bb3a27b0534b33377e206a318661d228def9a8902b264bf6")
    two_phase = crypto.kdf_counter(b"\xab" * 16, "TWO-PHASE",
                                   b"\x00\x01\x02\x03", 64)
    assert two_phase.hex() == (
        "85c1a184c0237157fa4f4fd30645a18ac450fda01b0ec501896d5245e774e525"
        "9703396831bb484f99fec9f52c333c606e43a08287f65189bb67f216b4328148")


def test_kdf_counter_separates_label_and_context():
    base = crypto.kdf_counter(b"\x07" * 32, "A", b"x")
    assert crypto.kdf_counter(b"\x07" * 32, "B", b"x") != base
    assert crypto.kdf_counter(b"\x07" * 32, "A", b"y") != base


def test_kdf_counter_output_length_bound_into_derivation():
    short = crypto.kdf_counter(b"\x07" * 32, "A", b"x", 32)
    long = crypto.kdf_counter(b"\x07" * 32, "A", b"x", 64)
    # the requested bit length is mixed into every block, so a longer
    # request is NOT an extension of a shorter one
    assert long[:32] != short
    assert len(long) == 64


def test_kdf_counter_rejects_out_of_range_lengths():
    with pytest.raises(InvalidLength):
        crypto.kdf_counter(b"\x07" * 32, "A", b"", 8)
    with pytest.raises(InvalidLength):
        crypto.kdf_counter(b"\x07" * 32, "A", b"", 65)
    with pytest.raises(InvalidLength):
        crypto.kdf_counter(b"\x07" * 8, "A", b"", 32)


@pytest.mark.parametrize("label", ["", "CLÉ"], ids=["empty", "non-ascii"])
def test_kdf_counter_refuses_a_label_that_is_empty_or_not_ascii(label):
    with pytest.raises(InvalidLength):
        crypto.kdf_counter(b"\x07" * 32, label)


# ---------------------------------------------------------------------------
# Secret wrapper
# ---------------------------------------------------------------------------

def test_secret_repr_hides_value():
    s = crypto.Secret(b"\xde\xad\xbe\xef" * 8)
    assert "dead" not in repr(s)
    assert s.data == b"\xde\xad\xbe\xef" * 8


def test_secret_equality_by_value():
    assert crypto.Secret(b"x" * 32) == crypto.Secret(b"x" * 32)
    assert crypto.Secret(b"x" * 32) != crypto.Secret(b"y" * 32)
    assert crypto.Secret(b"x" * 32) != crypto.Secret(b"x" * 31 + b"y")
    # a shared prefix does not make secrets of two lengths equal
    assert crypto.Secret(b"x" * 32) != crypto.Secret(b"x" * 33)
    assert crypto.Secret(b"x" * 16) != crypto.Secret(b"x" * 64)
    assert crypto.Secret(b"x" * 32) != b"x" * 32


def test_secret_wipe_zeroizes_in_place():
    s = crypto.Secret(b"k" * 32)
    s.wipe()
    assert s.data == bytes(32)
    assert len(s.data) == 32


def test_secret_length_bounds():
    with pytest.raises(InvalidLength):
        crypto.Secret(b"short")
    with pytest.raises(InvalidLength):
        crypto.Secret(b"x" * 65)


# ---------------------------------------------------------------------------
# Deterministic RNG
# ---------------------------------------------------------------------------

def test_rng_reproducible_and_fork_independent():
    a = crypto.DeterministicRng(b"seed-material-00")
    b = crypto.DeterministicRng(b"seed-material-00")
    assert a.random_bytes(48) == b.random_bytes(48)

    parent = crypto.DeterministicRng(b"seed-material-00")
    child1 = parent.fork("left")
    child2 = parent.fork("right")
    assert child1.random_bytes(32) != child2.random_bytes(32)
    # forking does not disturb the parent stream
    again = crypto.DeterministicRng(b"seed-material-00")
    again.fork("left")
    again.fork("right")
    assert parent.random_bytes(16) == again.random_bytes(16)


def test_rng_draws_are_the_concatenated_counter_blocks():
    # block i is sha256(state || be64(i)); a draw takes whole blocks from
    # the counter on and keeps its first n bytes, and a draw of 0 takes none
    seed = b"seed-material-00"
    state = hashlib.sha256(b"rng:" + seed).digest()
    rng = crypto.DeterministicRng(seed)
    counter = 0
    for n in (0, 1, 12, 32, 33, 100):
        blocks = -(-n // 32)
        expected = b"".join(
            hashlib.sha256(state + i.to_bytes(8, "big")).digest()
            for i in range(counter, counter + blocks))[:n]
        assert rng.random_bytes(n) == expected
        counter += blocks


def test_rng_refuses_an_empty_seed():
    with pytest.raises(InvalidSeed):
        crypto.DeterministicRng(b"")


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

def test_sign_verify_round_trip():
    key = crypto.SigningKeyPair.from_seed(b"\x11" * 32)
    sig = key.sign(b"message")
    assert crypto.verify(key.public_bytes, b"message", sig)
    assert not crypto.verify(key.public_bytes, b"other", sig)


def test_signatures_are_deterministic():
    key = crypto.SigningKeyPair.from_seed(b"\x11" * 32)
    assert key.sign(b"message") == key.sign(b"message")


def test_from_seed_is_a_pure_function_of_material():
    a = crypto.SigningKeyPair.from_seed(b"\x11" * 32)
    b = crypto.SigningKeyPair.from_seed(b"\x11" * 32)
    c = crypto.SigningKeyPair.from_seed(b"\x22" * 32)
    assert a.public_bytes == b.public_bytes
    assert a.public_bytes != c.public_bytes


def test_verify_rejects_garbage_signature():
    key = crypto.SigningKeyPair.from_seed(b"\x11" * 32)
    assert not crypto.verify(key.public_bytes, b"m", b"\x00\x01")


def test_verify_rejects_bad_public_point():
    key = crypto.SigningKeyPair.from_seed(b"\x11" * 32)
    sig = key.sign(b"m")
    with pytest.raises(InvalidPoint):
        crypto.verify(b"\x04" + b"\x00" * 64, b"m", sig)


def test_public_key_keeps_the_parsed_key_with_its_point():
    key = crypto.SigningKeyPair.from_seed(b"\x11" * 32)
    sig = key.sign(b"m")
    public = crypto.PublicKey(key.public_bytes)
    assert public == crypto.PublicKey(key.public_bytes)
    assert repr(public) == f"PublicKey(point={key.public_bytes!r})"
    assert crypto.verify(public, b"m", sig)
    assert not crypto.verify(public, b"other", sig)
    assert not crypto.verify(public, b"m", b"\x00\x01")
    # off the curve, a valid point in another encoding, and no point at all
    uncompressed = public.key.public_bytes(Encoding.X962,
                                           PublicFormat.UncompressedPoint)
    for bad in (b"\x02" + (1).to_bytes(32, "big"), b"\x04" + b"\x00" * 64,
                uncompressed, key.public_bytes[:-1], b""):
        with pytest.raises(InvalidPoint):
            crypto.PublicKey(bad)


def test_derived_public_key_equals_the_parsed_one():
    key = crypto.SigningKeyPair.from_seed(b"\x11" * 32)
    parsed = crypto.PublicKey(key.public_bytes)
    assert isinstance(key.public, crypto.PublicKey)
    assert key.public == parsed and key.public.point == parsed.point
    assert (key.public.key.public_numbers()
            == parsed.key.public_numbers())
    assert crypto.verify(key.public, b"m", key.sign(b"m"))
    at_rest = key.at_rest()
    assert at_rest.public == key.public_bytes
    assert at_rest.scalar == key.scalar


def test_tampered_signature_fails_cleanly():
    key = crypto.SigningKeyPair.from_seed(b"\x11" * 32)
    sig = bytearray(key.sign(b"m"))
    sig[-1] ^= 0x01
    assert not crypto.verify(key.public_bytes, b"m", bytes(sig))


# ---------------------------------------------------------------------------
# ECDH
# ---------------------------------------------------------------------------

def test_ecdh_shared_is_symmetric():
    rng = crypto.DeterministicRng(b"ecdh")
    a = crypto.SigningKeyPair.generate(rng)
    b = crypto.SigningKeyPair.generate(rng)
    assert (crypto.ecdh_shared(a.scalar, b.public_bytes)
            == crypto.ecdh_shared(b.scalar, a.public_bytes))


def test_ecdh_shared_takes_a_public_key_or_a_point():
    rng = crypto.DeterministicRng(b"ecdh-peer")
    a = crypto.SigningKeyPair.generate(rng)
    b = crypto.SigningKeyPair.generate(rng)
    secret = crypto.ecdh_shared(a.scalar, b.public_bytes)
    assert crypto.ecdh_shared(a.scalar, b.public) == secret
    assert crypto.ecdh_shared(a.scalar, crypto.PublicKey(b.public_bytes)) == secret
    for bad in (b"\x02" + (1).to_bytes(32, "big"), b"\x04" + b"\x00" * 64):
        with pytest.raises(InvalidPoint):
            crypto.ecdh_shared(a.scalar, bad)


def test_enrollment_parses_each_received_point_once(monkeypatch):
    """A point this process derived travels with its key object; only the
    8 points a node's enrollment receives from another party are parsed:
    the ASK subject of each of 3 chain checks, the VCEK subject of the
    registration report check, the AIK and VCEK the verifier registers,
    the EK point of the credential and the credential's ephemeral point."""
    parse = ec.EllipticCurvePublicKey.from_encoded_point
    parsed = []

    def counting(curve, data):
        parsed.append(data)
        return parse(curve, data)

    monkeypatch.setattr(ec.EllipticCurvePublicKey, "from_encoded_point",
                        staticmethod(counting))
    cluster = harness.build_cluster(11, 0)
    assert parsed == []
    for index in range(2):
        harness.add_node(cluster, index)
        assert len(parsed) == 8
        parsed.clear()


def test_ecdh_two_phase_both_sides_agree():
    rng = crypto.DeterministicRng(b"two-phase")
    a_static = crypto.SigningKeyPair.generate(rng)
    b_static = crypto.SigningKeyPair.generate(rng)
    a_eph = crypto.SigningKeyPair.generate(rng)
    b_eph = crypto.SigningKeyPair.generate(rng)
    k_a = crypto.ecdh_two_phase(a_static, b_static.public_bytes,
                                a_eph, b_eph.public_bytes)
    k_b = crypto.ecdh_two_phase(b_static, a_static.public_bytes,
                                b_eph, a_eph.public_bytes)
    assert k_a == k_b
    assert len(k_a) == 32


def test_ecdh_two_phase_fresh_ephemerals_change_key():
    rng = crypto.DeterministicRng(b"two-phase-2")
    a_static = crypto.SigningKeyPair.generate(rng)
    b_static = crypto.SigningKeyPair.generate(rng)

    def session():
        a_eph = crypto.SigningKeyPair.generate(rng)
        b_eph = crypto.SigningKeyPair.generate(rng)
        return crypto.ecdh_two_phase(a_static, b_static.public_bytes,
                                     a_eph, b_eph.public_bytes)

    assert session() != session()


# ---------------------------------------------------------------------------
# Authenticated channel primitives
# ---------------------------------------------------------------------------

def test_channel_seal_open_round_trip():
    rng = crypto.DeterministicRng(b"chan")
    key = rng.random_bytes(32)
    sealed = crypto.channel_seal(key, b"payload", b"aad", rng)
    assert crypto.channel_open(key, sealed, b"aad") == b"payload"


def test_channel_open_rejects_wrong_key_aad_or_tamper():
    rng = crypto.DeterministicRng(b"chan2")
    key = rng.random_bytes(32)
    sealed = crypto.channel_seal(key, b"payload", b"aad", rng)
    with pytest.raises(AuthFailure):
        crypto.channel_open(bytes(32), sealed, b"aad")
    with pytest.raises(AuthFailure):
        crypto.channel_open(key, sealed, b"other-aad")
    broken = bytearray(sealed)
    broken[-1] ^= 0x80
    with pytest.raises(AuthFailure):
        crypto.channel_open(key, bytes(broken), b"aad")
    for length in range(crypto.AEAD_NONCE_LEN + 16):
        with pytest.raises(AuthFailure, match="too short"):
            crypto.channel_open(key, sealed[:length], b"aad")


def test_wrap_is_deterministic_for_storage():
    key = b"\x42" * 32
    assert (crypto.wrap(key, b"blob", b"aad")
            == crypto.wrap(key, b"blob", b"aad"))
    assert crypto.channel_open(key, crypto.wrap(key, b"blob", b"aad"),
                               b"aad") == b"blob"


def test_aead_key_length_enforced():
    rng = crypto.DeterministicRng(b"chan3")
    with pytest.raises(InvalidLength):
        crypto.channel_seal(b"short", b"x", b"", rng)
    # AES-128 and AES-192 key sizes, which AES-GCM itself would take
    for key in (bytes(16), bytes(24)):
        with pytest.raises(InvalidLength):
            crypto.channel_seal(key, b"x", b"", rng)
        with pytest.raises(InvalidLength):
            crypto.channel_open(key, bytes(crypto.AEAD_NONCE_LEN + 17), b"")
        with pytest.raises(InvalidLength):
            crypto.wrap(key, b"x", b"")


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def test_certificate_issue_verify_round_trip():
    rng = crypto.DeterministicRng(b"certs")
    issuer = crypto.SigningKeyPair.generate(rng)
    subject = crypto.SigningKeyPair.generate(rng)
    cert = crypto.issue_certificate(issuer, "AIK", 5, subject.public_bytes)
    assert cert.verify(issuer.public_bytes)
    assert cert.role == "AIK"
    assert cert.serial == 5
    assert cert.subject == subject.public_bytes

    parsed = crypto.Certificate.from_bytes(cert.to_bytes())
    assert parsed == cert
    assert parsed.verify(issuer.public_bytes)


def test_issue_certificate_refuses_unknown_role_or_subject_width():
    rng = crypto.DeterministicRng(b"certs3")
    issuer = crypto.SigningKeyPair.generate(rng)
    subject = crypto.SigningKeyPair.generate(rng)
    with pytest.raises(DecodeError):
        crypto.issue_certificate(issuer, "NOBODY", 1, subject.public_bytes)
    uncompressed = subject.public.key.public_bytes(
        Encoding.X962, PublicFormat.UncompressedPoint)
    for bad in (uncompressed, subject.public_bytes[:-1]):
        with pytest.raises(InvalidPoint):
            crypto.issue_certificate(issuer, "AIK", 1, bad)


def test_certificate_with_an_unknown_role_byte_does_not_decode():
    issuer = crypto.SigningKeyPair.generate(crypto.DeterministicRng(b"certs4"))
    raw = crypto.issue_certificate(issuer, "AIK", 1,
                                   issuer.public_bytes).to_bytes()
    role = encode_field(1, bytes([crypto.ROLE_BYTES["AIK"]]))
    assert raw.startswith(role)
    for code in (0, max(crypto.ROLE_BYTES.values()) + 1):
        with pytest.raises(DecodeError, match="unknown certificate role"):
            crypto.Certificate.from_bytes(
                encode_field(1, bytes([code])) + raw[len(role):])


def test_certificate_verify_fails_for_wrong_issuer(monkeypatch):
    rng = crypto.DeterministicRng(b"certs2")
    issuer = crypto.SigningKeyPair.generate(rng)
    other = crypto.SigningKeyPair.generate(rng)
    subject = crypto.SigningKeyPair.generate(rng)
    cert = crypto.issue_certificate(issuer, "AIK", 1, subject.public_bytes)
    verify = crypto.verify
    calls = []

    def counting(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(crypto, "verify", counting)
    # the issuer_name check refuses it before any ECDSA verify
    assert not cert.verify(other.public_bytes)
    assert calls == []
    assert cert.verify(issuer.public_bytes)
    assert len(calls) == 1
