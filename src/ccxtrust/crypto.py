"""Cryptographic core: hashing, key derivation, signing, key agreement,
authenticated channels, signed records and certificates, and randomness.

Algorithm choices are fixed for the whole simulator: SHA-256 everywhere a
digest is needed, ECDSA over P-256 with deterministic (RFC 6979) nonces for
signatures, AES-256-GCM for authenticated encryption, and an HMAC-SHA-256
counter-mode KDF for every key derivation. Deterministic signing matters
here: a scenario replayed from the same seed must produce byte-identical
artifacts, signatures included.
Each hash, MAC, signature and AEAD runs on cryptography's one OpenSSL;
hashlib and hmac would map the system libcrypto too, ~4 MB more RSS.

Private scalars are plain integers and public keys are SEC1 compressed
points (33 bytes), so every structure that embeds a key commits to one
canonical byte form. A key that is used more than once travels as a
PublicKey: the point together with its key object, so a signature check or
an ECDH peer never decodes the point again. A point received from another
party is parsed and curve-checked once, when its PublicKey is built; a key
pair's own PublicKey comes from the key object that deriving its scalar
already made, so it is never parsed at all.
"""

from __future__ import annotations

import struct
import threading
from _operator import _compare_digest   # hmac.compare_digest's fallback
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hmac import HMAC
# the module that defines the encoding enums, which ec already imports;
# the public serialization package would also load its ssh module and
# the DSA and Ed25519 key modules, which nothing here runs
from cryptography.hazmat.primitives._serialization import (
    Encoding,
    PublicFormat,
)

from .encoding import RAW, U64, Kind, Record, Spec, raw
from .errors import (
    AuthFailure,
    DecodeError,
    InvalidLength,
    InvalidPoint,
    InvalidSeed,
)

_CURVE = ec.SECP256R1()
# one algorithm object each for every signature made and every one checked
_SIGN_ALG = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
_VERIFY_ALG = ec.ECDSA(hashes.SHA256())
_CURVE_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

DIGEST_LEN = 32
POINT_LEN = 33          # SEC1 compressed
AEAD_KEY_LEN = 32
AEAD_NONCE_LEN = 12
SECRET_MIN = 16
SECRET_MAX = 64


# each hash copies this context, at half the cost of building a new one
_SHA256 = hashes.Hash(hashes.SHA256())


def sha256_hasher() -> hashes.Hash:
    """A fresh SHA-256 context, for a message fed in pieces."""
    return _SHA256.copy()


def sha256(data: bytes) -> bytes:
    hasher = _SHA256.copy()
    hasher.update(data)
    return hasher.finalize()


# ---------------------------------------------------------------------------
# secrets and key derivation
# ---------------------------------------------------------------------------

class Secret:
    """Sensitive byte string, 16 to 64 bytes, with a redacted repr.

    Stored in a bytearray so wipe() can overwrite it in place. Equality is
    constant-time.
    """

    __slots__ = ("_buf",)

    def __init__(self, data: bytes) -> None:
        if not SECRET_MIN <= len(data) <= SECRET_MAX:
            raise InvalidLength(f"secret must be {SECRET_MIN}-{SECRET_MAX} bytes")
        self._buf = bytearray(data)

    @property
    def data(self) -> bytes:
        return bytes(self._buf)

    def wipe(self) -> None:
        for i in range(len(self._buf)):
            self._buf[i] = 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Secret):
            return _compare_digest(self._buf, other._buf)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Secret(<{len(self._buf)} bytes>)"


def kdf_counter(parent: bytes, label: str, context: bytes = b"",
                out_len: int = 32) -> bytes:
    """SP 800-108 style HMAC-SHA-256 counter-mode KDF.

    Block i is HMAC(parent, be32(i) || label || 0x00 || context ||
    be32(out_bits)); blocks are concatenated and truncated to out_len.
    Distinct labels or contexts give independent keys under one parent.
    The parent is 16-64 bytes (a Secret's holder passes its data), as is
    out_len, and the label is non-empty ASCII; else InvalidLength.
    """
    if not SECRET_MIN <= len(parent) <= SECRET_MAX:
        raise InvalidLength("parent key material must be 16-64 bytes")
    if not SECRET_MIN <= out_len <= SECRET_MAX:
        raise InvalidLength("derived length must be 16-64 bytes")
    if not label or not label.isascii():
        raise InvalidLength("label must be non-empty ascii")
    fixed = (label.encode("ascii") + b"\x00" + context
             + struct.pack(">I", out_len * 8))
    out = b""
    for counter in range(1, -(-out_len // DIGEST_LEN) + 1):
        mac = HMAC(parent, _SHA256.algorithm)
        mac.update(struct.pack(">I", counter) + fixed)
        out += mac.finalize()
    return out[:out_len]


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------

class DeterministicRng:
    """Seeded generator producing a reproducible byte stream.

    Output block i is sha256(state || be64(i)). fork() derives an
    independent child stream, which lets concurrent actors draw from
    unrelated streams without ordering effects. This is the simulator's
    random number manager. The seed is non-empty bytes; an empty seed
    raises InvalidSeed.
    """

    def __init__(self, seed: bytes) -> None:
        if len(seed) == 0:
            raise InvalidSeed("empty seed")
        self._state = sha256(b"rng:" + seed)
        self._counter = 0
        self._lock = threading.Lock()

    def random_bytes(self, n: int) -> bytes:
        if n <= 0:
            return b""
        blocks = -(-n // 32)
        with self._lock:
            first = self._counter
            self._counter = first + blocks
        state = self._state
        if blocks == 1:
            return sha256(state + struct.pack(">Q", first))[:n]
        return b"".join([sha256(state + struct.pack(">Q", i))
                         for i in range(first, first + blocks)])[:n]

    def fork(self, label: str) -> "DeterministicRng":
        return DeterministicRng(sha256(self._state + b"fork:" + label.encode()))


# ---------------------------------------------------------------------------
# signing keys
# ---------------------------------------------------------------------------

def scalar_from_material(material: bytes) -> int:
    """Map derived key material to a nonzero P-256 scalar."""
    if len(material) < 16:
        raise InvalidLength("scalar material too short")
    wide = int.from_bytes(sha256(b"scalar:" + material) + sha256(material), "big")
    return wide % (_CURVE_ORDER - 1) + 1


def public_from_scalar(scalar: int) -> PublicKey:
    """The public half of a scalar, built from the key object its
    derivation makes: its point is encoded, nothing is parsed."""
    key = ec.derive_private_key(scalar, _CURVE).public_key()
    return PublicKey(key.public_bytes(Encoding.X962, PublicFormat.CompressedPoint),
                     key)


def load_public(point_bytes: bytes):
    """Decode a SEC1 compressed point, rejecting anything off-curve."""
    if len(point_bytes) != POINT_LEN or point_bytes[0] not in (2, 3):
        raise InvalidPoint("public key must be a 33-byte compressed point")
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, point_bytes)
    except ValueError as exc:
        raise InvalidPoint("point is not on the curve") from exc


@dataclass(frozen=True, slots=True)
class PublicKey:
    """A compressed point and its key object. Given the point alone, the
    key is parsed from it by load_public, checks included; only
    public_from_scalar passes the key object its derivation made.
    Equality and repr see the point alone."""

    point: bytes
    key: ec.EllipticCurvePublicKey = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.key is None:
            object.__setattr__(self, "key", load_public(self.point))


def _point_of(public: bytes | PublicKey) -> bytes:
    return public.point if isinstance(public, PublicKey) else public


@dataclass(slots=True)
class SigningKeyPair:
    """P-256 keypair; a certificate, not the pair, names what it is for.

    public is the PublicKey that generate and from_seed derive along with
    the scalar, or the bare point for a pair built from stored bytes or
    kept at rest. Every pair holds its private scalar; a holder of a
    public key alone keeps a PublicKey or the point. sign() is
    deterministic, so the same key and message always produce the same
    DER signature.
    """

    public: PublicKey | bytes
    scalar: int = field(repr=False)

    @classmethod
    def generate(cls, rng) -> "SigningKeyPair":
        return cls.from_seed(rng.random_bytes(32))

    @classmethod
    def from_seed(cls, material: bytes) -> "SigningKeyPair":
        scalar = scalar_from_material(material)
        return cls(public_from_scalar(scalar), scalar)

    @property
    def public_bytes(self) -> bytes:
        return _point_of(self.public)

    def at_rest(self) -> "SigningKeyPair":
        """The same pair with its point alone, for a holder that keeps it
        long after its key object (about 2 KB) was last used."""
        return SigningKeyPair(self.public_bytes, self.scalar)

    def sign(self, message: bytes) -> bytes:
        key = ec.derive_private_key(self.scalar, _CURVE)
        return key.sign(message, _SIGN_ALG)


def verify(public: bytes | PublicKey, message: bytes, signature: bytes) -> bool:
    """True only when signature is a valid signature over message: any
    other signature bytes, DER or not, read False and never raise. A
    point is parsed here; a PublicKey brings its key object along."""
    key = public.key if isinstance(public, PublicKey) else load_public(public)
    try:
        key.verify(signature, message, _VERIFY_ALG)
        return True
    except InvalidSignature:
        return False


class Signed(Record):
    """A Record whose last field, signature, signs all the others: the one
    statement of how a signed record is hashed, signed and checked."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.BODY = Spec(*cls.SPEC.fields[:-1])

    @property
    def digest(self) -> bytes:
        return sha256(self.to_bytes())

    def body_bytes(self) -> bytes:
        return self.BODY.encode(self)

    def verify(self, public: bytes | PublicKey) -> bool:
        return verify(public, self.body_bytes(), self.signature)

    @classmethod
    def signed(cls, key: SigningKeyPair, **values):
        """The record of values, with key.sign over their BODY encoding as
        its signature: the body is encoded once, the record built once."""
        return cls(**values, signature=key.sign(cls.BODY.encode(values)))


# ---------------------------------------------------------------------------
# key agreement
# ---------------------------------------------------------------------------

def ecdh_two_phase(static_priv: SigningKeyPair,
                   static_peer_pub: bytes | PublicKey,
                   ephem_priv: SigningKeyPair,
                   ephem_peer_pub: bytes | PublicKey) -> bytes:
    """Two-phase ECDH: combine static-static and ephemeral-ephemeral shares.

    The 32-byte result binds all four public points through a transcript
    digest that both sides compute identically regardless of who initiated,
    so the exchange is symmetric in party order.
    """
    z_static = ecdh_shared(static_priv.scalar, static_peer_pub)
    z_ephem = ecdh_shared(ephem_priv.scalar, ephem_peer_pub)
    own = static_priv.public_bytes + ephem_priv.public_bytes
    peer = _point_of(static_peer_pub) + _point_of(ephem_peer_pub)
    transcript = sha256(min(own, peer) + max(own, peer))
    return kdf_counter(z_static + z_ephem, "TWO-PHASE", transcript, 32)


def ecdh_shared(scalar: int, peer_pub: bytes | PublicKey) -> bytes:
    """A point is parsed here, as in verify; a PublicKey is not."""
    peer = peer_pub.key if isinstance(peer_pub, PublicKey) else load_public(peer_pub)
    key = ec.derive_private_key(scalar, _CURVE)
    return key.exchange(ec.ECDH(), peer)


# ---------------------------------------------------------------------------
# authenticated channel encryption
# ---------------------------------------------------------------------------

def channel_seal(key: bytes, plaintext: bytes, aad: bytes, rng) -> bytes:
    """AES-256-GCM with a fresh random nonce, returned as nonce || ct."""
    _check_aead_key(key)
    nonce = rng.random_bytes(AEAD_NONCE_LEN)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, aad)


def wrap(key: bytes, plaintext: bytes, aad: bytes) -> bytes:
    """Deterministic AEAD for at-rest envelopes.

    The nonce is derived from key, aad, and plaintext, so wrapping the
    same content twice yields identical bytes. Never reuses a nonce across
    distinct plaintexts, which is what GCM actually requires.
    """
    _check_aead_key(key)
    nonce = kdf_counter(key, "WRAP-NONCE", sha256(aad) + sha256(plaintext),
                        16)[:AEAD_NONCE_LEN]
    return nonce + AESGCM(key).encrypt(nonce, plaintext, aad)


def channel_open(key: bytes, sealed: bytes, aad: bytes) -> bytes:
    """Open a sealed blob. Any tamper of ciphertext or aad raises AuthFailure."""
    _check_aead_key(key)
    if len(sealed) < AEAD_NONCE_LEN + 16:
        raise AuthFailure("sealed blob too short")
    nonce, ct = sealed[:AEAD_NONCE_LEN], sealed[AEAD_NONCE_LEN:]
    try:
        return AESGCM(key).decrypt(nonce, ct, aad)
    except InvalidTag as exc:
        raise AuthFailure("authenticated decryption failed") from exc


def _check_aead_key(key: bytes) -> None:
    if len(key) != AEAD_KEY_LEN:
        raise InvalidLength(f"channel key must be {AEAD_KEY_LEN} bytes")


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

# the roles a certificate carries, and the byte each encodes as
ROLE_BYTES = {
    "ARK": 1, "ASK": 2, "VCEK": 3,
    "EK": 4, "AIK": 5, "PEK": 6,
    "IDENTITY": 8,
}
_ROLE_CODES = {role: bytes([code]) for role, code in ROLE_BYTES.items()}
_ROLE_NAMES = {code: role for role, code in _ROLE_CODES.items()}


def _decode_role(payload: bytes) -> str:
    try:
        return _ROLE_NAMES[payload]
    except KeyError:
        raise DecodeError("unknown certificate role byte") from None


@dataclass(frozen=True, slots=True)
class Certificate(Signed):
    """Minimal signed binding of a public key to a role.

    issuer_name is the digest of the issuer's public point; serial is
    assigned by the issuer and is what revocation lists track; hw_id is
    a VCEK certificate's chip id (AMD's hwID), empty for other roles.
    """

    role: str
    serial: int
    subject: bytes
    issuer_name: bytes
    hw_id: bytes
    signature: bytes

    SPEC = Spec((1, "role", Kind(_ROLE_CODES.__getitem__, _decode_role)),
                (2, "serial", U64),
                (3, "subject", raw(POINT_LEN)),
                (4, "issuer_name", raw(DIGEST_LEN)),
                (5, "hw_id", RAW),
                (6, "signature", RAW))

    def verify(self, issuer_pub: bytes | PublicKey) -> bool:
        if self.issuer_name != sha256(_point_of(issuer_pub)):
            return False
        # a slotted dataclass is a new class, which a zero-argument
        # super() in its body does not name
        return Signed.verify(self, issuer_pub)


def issue_certificate(issuer: SigningKeyPair, role: str, serial: int,
                      subject_pub: bytes, hw_id: bytes = b"") -> Certificate:
    if role not in ROLE_BYTES:
        raise DecodeError(f"unknown certificate role {role!r}")
    if len(subject_pub) != POINT_LEN:
        raise InvalidPoint("subject must be a 33-byte compressed point")
    return Certificate.signed(issuer, role=role, serial=serial,
                              subject=subject_pub,
                              issuer_name=sha256(issuer.public_bytes),
                              hw_id=hw_id)
