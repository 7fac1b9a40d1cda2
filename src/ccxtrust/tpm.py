"""Software TPM engine.

State machine modelled on TPM 2.0 at the granularity this simulator needs:
four seed hierarchies (endorsement, storage, platform, and the added
collaborative-compute hierarchy), a 24-register PCR bank, wrapped key blobs
with version-stamped envelopes, quotes that can embed foreign TEE evidence,
credential activation, a two-phase ECDH command pair with a counter table,
PCR-policy sealing, and seed rotation.

Every key blob is made by one rule: its scalar is wrapped under
kdf(parent secret, "ENVELOPE") with its public area as aad, where the
parent secret is the hierarchy seed for a primary and the parent key's
scalar for any other key.

A confidential VM's key tree hangs off the storage or the CC primary, and
the parent sets the scheme. Teardown deletes the CVM's CC master secret, so
its CC tree no longer loads; a storage tree loads while the storage
primary lives.

Everything a TPM would derive internally is a deterministic function of the
endorsement primary seed and the command sequence, so a device manufactured
from the same seed and driven through the same commands reproduces the same
public artifacts and state byte for byte: the device keeps no wall-clock
time, and every field it keeps is one that a command reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from . import crypto
from .encoding import (
    RAW,
    STR,
    U64,
    Kind,
    Record,
    Spec,
    raw,
)
from .errors import (
    AuthFailure,
    BlobCorrupt,
    CounterInvalid,
    DecodeError,
    EmptySelection,
    EvidenceTooLarge,
    HierarchyMismatch,
    InvalidLength,
    InvalidPcrIndex,
    InvalidSeed,
    KeyDeactivated,
    KeyNotLoaded,
    NameMismatch,
    PolicyFailure,
    SeedVersionMismatch,
)
from .tee import MAX_EVIDENCE_SIZE

# each hierarchy and the role of its primary key
HIERARCHIES = {"endorsement": "EK", "storage": "SRK", "platform": "PPK",
               "cc": "CC-SRK"}
PCR_COUNT = 24
PCR_SELECT_BYTES = 3
EPHEMERAL_TABLE_CAPACITY = 256
FIRMWARE_VERSION = 1

# Built-in simulated TPM manufacturer CA that endorses every EK at
# manufacture time. Fixed seed keeps EK certs reproducible across runs.
_VENDOR_CA = crypto.SigningKeyPair.from_seed(
    crypto.sha256(b"ccxtrust-tpm-vendor-ca-v1"))


def tpm_vendor_root_pub() -> crypto.PublicKey:
    return _VENDOR_CA.public


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class SeedRecord:
    seed: bytes
    version: int


# every register of every bank starts as this one object
_ZERO_REGISTER = bytes(crypto.DIGEST_LEN)


class PcrBank:
    """24 SHA-256 registers."""

    __slots__ = ("registers",)

    def __init__(self) -> None:
        self.registers = [_ZERO_REGISTER] * PCR_COUNT

    def extend(self, index: int, digest: bytes) -> bytes:
        if not 0 <= index < PCR_COUNT:
            raise InvalidPcrIndex(f"pcr index {index} outside 0..{PCR_COUNT - 1}")
        if len(digest) != crypto.DIGEST_LEN:
            raise InvalidLength("extend digest must be 32 bytes")
        self.registers[index] = crypto.sha256(self.registers[index] + digest)
        return self.registers[index]

    def composite(self, selection: tuple[int, ...]) -> bytes:
        return crypto.sha256(b"".join(self.registers[i] for i in selection))


def normalize_selection(selection) -> tuple[int, ...]:
    sel = tuple(sorted(set(int(i) for i in selection)))
    if not sel:
        raise EmptySelection("pcr selection is empty")
    if sel[0] < 0 or sel[-1] >= PCR_COUNT:
        raise InvalidPcrIndex(f"pcr selection {sel} outside the bank")
    return sel


def selection_to_bitmap(selection: tuple[int, ...]) -> bytes:
    bits = 0
    for i in selection:
        bits |= 1 << i
    return bits.to_bytes(PCR_SELECT_BYTES, "little")


# For each bitmap byte position, the ascending PCR indices each byte value
# selects; a selection is the three lookups concatenated.
_BYTE_PCRS = tuple(
    tuple(tuple(8 * position + bit for bit in range(8) if value >> bit & 1)
          for value in range(256))
    for position in range(PCR_SELECT_BYTES))


def bitmap_to_selection(bitmap: bytes) -> tuple[int, ...]:
    if len(bitmap) != PCR_SELECT_BYTES:
        raise DecodeError("pcr bitmap must be 3 bytes")
    low, mid, high = _BYTE_PCRS
    return low[bitmap[0]] + mid[bitmap[1]] + high[bitmap[2]]


PCR_BITMAP = Kind(selection_to_bitmap, bitmap_to_selection)


@dataclass(slots=True)
class KeyBlob(Record):
    """Wrapped key: public area in the clear, sensitive part AEAD-sealed
    under the parent, stamped with the hierarchy seed version it was
    created under. The envelope's aad is the public area, so any tamper of
    either half is caught at load."""

    role: str
    hierarchy: str
    seed_version: int
    public: bytes
    parent_name: bytes
    cvm_id: bytes = b""
    envelope: bytes = b""

    PUBLIC = Spec((1, "role", STR), (2, "hierarchy", STR),
                  (3, "seed_version", U64), (4, "public", RAW),
                  (5, "parent_name", RAW), (6, "cvm_id", RAW))
    SPEC = Spec(*PUBLIC.fields, (7, "envelope", RAW))

    def public_area(self) -> bytes:
        return self.PUBLIC.encode(self)

    @property
    def name(self) -> bytes:
        return crypto.sha256(self.public_area())


def parse_public_area(raw: bytes) -> KeyBlob:
    """Read a bare public area, as sent to a remote party.

    The returned blob has no envelope and cannot be loaded; its value is
    that .name and .public are computed from the same bytes, which is
    what lets a challenger bind a credential to exactly the key it saw.
    """
    return KeyBlob(**KeyBlob.PUBLIC.decode(raw))


@dataclass(slots=True)
class LoadedKey:
    blob: KeyBlob
    scalar: int = field(repr=False, default=0)

    def keypair(self) -> crypto.SigningKeyPair:
        return crypto.SigningKeyPair(self.blob.public, self.scalar)


class TpmState:
    """Mutable device state. Construct via tpm_manufacture()."""

    __slots__ = ("seeds", "pcr", "nv", "loaded", "next_handle",
                 "command_counter", "eph_seed", "eph_table", "eph_next",
                 "ek_blob", "ek_cert")

    def __init__(self) -> None:
        self.seeds: dict[str, SeedRecord] = {}
        self.pcr = PcrBank()
        self.nv: dict[str, bytes] = {}
        self.loaded: dict[int, LoadedKey] = {}
        self.next_handle = 0x80000000
        self.command_counter = 0
        self.eph_seed = b""
        self.eph_table: list[int] = []
        self.eph_next = 0
        self.ek_blob: KeyBlob | None = None
        self.ek_cert: crypto.Certificate | None = None

    def tick(self) -> int:
        self.command_counter += 1
        return self.command_counter


# ---------------------------------------------------------------------------
# manufacture and seed management
# ---------------------------------------------------------------------------

def tpm_manufacture(ep_seed: bytes) -> TpmState:
    """Build a device from its endorsement primary seed.

    Hierarchy seeds, the ephemeral-key seed, and the EK all derive from
    ep_seed; the built-in manufacturer CA endorses the EK. PCRs start at
    zero and every seed is at version 1.
    """
    if not crypto.SECRET_MIN <= len(ep_seed) <= crypto.SECRET_MAX:
        raise InvalidSeed("ep_seed must be 16-64 bytes")
    state = TpmState()
    for h in HIERARCHIES:
        seed = crypto.kdf_counter(ep_seed, f"SEED/{h.upper()}")
        state.seeds[h] = SeedRecord(seed, 1)
    state.eph_seed = crypto.kdf_counter(ep_seed, "SEED/EPHEMERAL")
    state.ek_blob = create_primary(state, "endorsement")
    serial = struct.unpack("<Q", crypto.sha256(b"ek-serial:" + state.ek_blob.public)[:8])[0]
    state.ek_cert = crypto.issue_certificate(_VENDOR_CA, "EK", serial, state.ek_blob.public)
    return state


def rotate_seed(state: TpmState, hierarchy: str) -> int:
    """Bump the hierarchy seed version and re-derive its seed.

    Every blob stamped with an older version becomes unloadable; there is
    no path back to a previous (seed, version) pair.
    """
    record = _hierarchy(state, hierarchy)
    state.tick()
    new_version = record.version + 1
    record.seed = crypto.kdf_counter(record.seed, "SEED-ROTATE",
                                     struct.pack("<Q", new_version))
    record.version = new_version
    return new_version


def _hierarchy(state: TpmState, hierarchy: str) -> SeedRecord:
    if hierarchy not in HIERARCHIES:
        raise HierarchyMismatch(f"unknown hierarchy {hierarchy!r}")
    return state.seeds[hierarchy]


def _seed_parent_name(hierarchy: str) -> bytes:
    return crypto.sha256(b"hierarchy:" + hierarchy.encode())


# ---------------------------------------------------------------------------
# key creation, loading, envelopes
# ---------------------------------------------------------------------------

def _envelope_key(record: SeedRecord, parent: LoadedKey | None) -> bytes:
    """The key a blob's sensitive part is wrapped under: derived from the
    hierarchy seed for a primary, from the parent's scalar otherwise."""
    secret = record.seed if parent is None else parent.scalar.to_bytes(32, "big")
    return crypto.kdf_counter(secret, "ENVELOPE")


def _new_blob(state: TpmState, hierarchy: str, parent: LoadedKey | None,
              role: str, scalar: int, cvm_id: bytes = b"") -> KeyBlob:
    """Every key blob: the public area in the clear, and the scalar
    wrapped under the parent's envelope key with the public area as aad.
    A child carries its parent's seed version, a primary its seed's."""
    record = state.seeds[hierarchy]
    blob = KeyBlob(role=role, hierarchy=hierarchy,
                   seed_version=(record.version if parent is None
                                 else parent.blob.seed_version),
                   public=crypto.public_from_scalar(scalar).point,
                   parent_name=(_seed_parent_name(hierarchy) if parent is None
                                else parent.blob.name),
                   cvm_id=cvm_id)
    blob.envelope = crypto.wrap(_envelope_key(record, parent),
                                scalar.to_bytes(32, "big"), blob.public_area())
    return blob


def create_primary(state: TpmState, hierarchy: str) -> KeyBlob:
    """Primary key of a hierarchy: a pure function of the current seed,
    so re-creating it without a rotation reproduces the identical blob."""
    record = _hierarchy(state, hierarchy)
    state.tick()
    scalar = crypto.scalar_from_material(
        crypto.kdf_counter(record.seed, "PRIMARY"))
    return _new_blob(state, hierarchy, None, HIERARCHIES[hierarchy], scalar)


def create_signing_key(state: TpmState, parent_handle: int, role: str = "AIK") -> KeyBlob:
    """Child signing key under a loaded parent. Distinct per command
    counter value, reproducible for the same command sequence."""
    parent = _loaded(state, parent_handle)
    seq = state.tick()
    material = crypto.kdf_counter(
        parent.scalar.to_bytes(32, "big"), f"CHILD/{role}", struct.pack("<Q", seq))
    return _new_blob(state, parent.blob.hierarchy, parent, role,
                     crypto.scalar_from_material(material), parent.blob.cvm_id)


def create_cvm_root_key(state: TpmState, master_secret: crypto.Secret,
                        owner_srk_handle: int, cvm_id: bytes) -> KeyBlob:
    """Storage root key for one confidential VM, derived from its
    MasterSecret and wrapped under the parent primary.

    The parent must be the storage primary or the CC primary, and its
    hierarchy is the tree's scheme. The cvm_id must not be empty: it is
    what deactivate_cvm and load_key know the tree by.
    """
    if not cvm_id:
        raise InvalidLength("a CVM root without a cvm id outlives its CVM")
    parent = _loaded(state, owner_srk_handle)
    hierarchy = parent.blob.hierarchy
    if hierarchy not in ("storage", "cc") \
            or parent.blob.parent_name != _seed_parent_name(hierarchy):
        raise HierarchyMismatch(
            f"CVM root must hang off the storage or CC primary, got a "
            f"{parent.blob.role} under {hierarchy}")
    state.tick()
    scalar = crypto.scalar_from_material(
        crypto.kdf_counter(master_secret.data, "CVM-SRK", parent.blob.name))
    return _new_blob(state, hierarchy, parent, "CVM-SRK", scalar, cvm_id)


def create_cvm_key(state: TpmState, cvm_id: bytes) -> crypto.Secret:
    """CC-hierarchy MasterSecret for one CVM, derived from the CC seed,
    recorded in NV and returned. The CVM's CC-tree blobs load only while
    NV holds it."""
    if not cvm_id:
        raise InvalidLength("cvm id must be non-empty")
    record = _hierarchy(state, "cc")
    state.tick()
    ms = crypto.Secret(crypto.kdf_counter(record.seed, "CVM-MS", cvm_id))
    state.nv[_cvm_nv_key(cvm_id)] = ms.data
    return ms


def _cvm_nv_key(cvm_id: bytes) -> str:
    return f"cc/cvm/{cvm_id.hex()}"


def deactivate_cvm(state: TpmState, cvm_id: bytes) -> None:
    """Tear down a CVM: delete its CC master secret, if NV holds one, and
    evict every loaded key of the CVM. Its CC-tree blobs then refuse to
    load; its storage-tree blobs still load while the storage primary
    lives, the residual dependency the CC hierarchy exists to fix."""
    if not cvm_id:
        raise InvalidLength("an empty cvm id would match every key outside a CVM")
    state.tick()
    state.nv.pop(_cvm_nv_key(cvm_id), None)
    for handle in [h for h, e in state.loaded.items() if e.blob.cvm_id == cvm_id]:
        del state.loaded[handle]


def load_key(state: TpmState, blob: KeyBlob) -> int:
    """Check version and CC-tree liveness, unwrap the envelope under the
    parent chain, and place the key in the loaded-object table."""
    record = _hierarchy(state, blob.hierarchy)
    state.tick()
    if blob.seed_version != record.version:
        raise SeedVersionMismatch(
            f"blob sealed under seed v{blob.seed_version}, current v{record.version}")
    if blob.cvm_id and blob.hierarchy == "cc" \
            and _cvm_nv_key(blob.cvm_id) not in state.nv:
        raise KeyDeactivated("CVM master secret has been deleted")
    parent = None
    if blob.parent_name != _seed_parent_name(blob.hierarchy):
        parent = _find_loaded_by_name(state, blob.parent_name)
        if parent is None:
            raise KeyNotLoaded("parent key is not loaded")
    try:
        sensitive = crypto.channel_open(_envelope_key(record, parent),
                                        blob.envelope, blob.public_area())
    except AuthFailure as exc:
        raise BlobCorrupt("envelope failed integrity verification") from exc
    scalar = int.from_bytes(sensitive, "big")
    handle = state.next_handle
    state.next_handle += 1
    state.loaded[handle] = LoadedKey(blob, scalar)
    return handle


def flush_key(state: TpmState, handle: int) -> None:
    """Evict a loaded key; an unknown handle raises KeyNotLoaded."""
    _loaded(state, handle)
    state.tick()
    del state.loaded[handle]


def loaded_keypair(state: TpmState, handle: int) -> crypto.SigningKeyPair:
    """Simulator introspection: the keypair behind a loaded handle."""
    return _loaded(state, handle).keypair()


def _loaded(state: TpmState, handle: int) -> LoadedKey:
    entry = state.loaded.get(handle)
    if entry is None:
        raise KeyNotLoaded(f"handle 0x{handle:08x} is not loaded")
    return entry


def _find_loaded_by_name(state: TpmState, name: bytes) -> LoadedKey | None:
    for entry in state.loaded.values():
        if entry.blob.name == name:
            return entry
    return None


# ---------------------------------------------------------------------------
# PCRs and quotes
# ---------------------------------------------------------------------------

def pcr_extend(state: TpmState, index: int, digest: bytes) -> bytes:
    state.tick()
    return state.pcr.extend(index, digest)


def pcr_read(state: TpmState, index: int) -> bytes:
    if not 0 <= index < PCR_COUNT:
        raise InvalidPcrIndex(f"pcr index {index} outside the bank")
    return state.pcr.registers[index]


@dataclass(frozen=True, slots=True)
class CompositeQuote(crypto.Signed):
    """Signed PCR quote, optionally embedding foreign evidence verbatim.

    An empty embedded_evidence means a plain quote. The signature covers
    every field above it, embedded evidence included, which is what makes
    the composite binding non-spliceable.
    """

    pcr_selection: tuple[int, ...]
    pcr_digest: bytes
    qualifying_data: bytes
    embedded_evidence: bytes
    firmware_version: int
    clock_info: int
    signature: bytes

    SPEC = Spec((1, "pcr_selection", PCR_BITMAP),
                (2, "pcr_digest", raw(crypto.DIGEST_LEN)),
                (3, "qualifying_data", raw(crypto.DIGEST_LEN)),
                (4, "embedded_evidence", raw(max_len=MAX_EVIDENCE_SIZE)),
                (5, "firmware_version", U64),
                (6, "clock_info", U64),
                (7, "signature", RAW))


def cc_quote(state: TpmState, selection, qualifying_data: bytes,
             aik_handle: int, embedded: bytes) -> CompositeQuote:
    """PCR quote signed by a loaded attestation key, with the embedded
    bytes (a TEE report, or b"" for a plain quote) carried verbatim and
    covered by the signature."""
    sel = normalize_selection(selection)
    if len(qualifying_data) != crypto.DIGEST_LEN:
        raise InvalidLength("qualifying data must be 32 bytes")
    if len(embedded) > MAX_EVIDENCE_SIZE:
        raise EvidenceTooLarge(
            f"evidence is {len(embedded)} bytes, limit {MAX_EVIDENCE_SIZE}")
    aik = _loaded(state, aik_handle)
    if aik.blob.role not in ("AIK", "signing"):
        raise HierarchyMismatch(f"{aik.blob.role} key cannot quote")
    clock_info = state.tick()
    return CompositeQuote.signed(
        aik.keypair(), pcr_selection=sel, pcr_digest=state.pcr.composite(sel),
        qualifying_data=qualifying_data, embedded_evidence=embedded,
        firmware_version=FIRMWARE_VERSION, clock_info=clock_info)


# ---------------------------------------------------------------------------
# credential activation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Credential(Record):
    """MakeCredential output: the secret is recoverable only with the EK
    private key, and only for the named AIK."""

    aik_name: bytes
    eph_pub: bytes
    ciphertext: bytes

    SPEC = Spec((1, "aik_name", RAW), (2, "eph_pub", RAW),
                (3, "ciphertext", RAW))


def make_credential(secret: crypto.Secret, aik_name: bytes, ek_pub: bytes,
                    rng) -> Credential:
    """Seal a secret to (EK, AIK name) via ephemeral ECDH against the EK."""
    if len(aik_name) != crypto.DIGEST_LEN:
        raise InvalidLength("aik name must be a 32-byte digest")
    eph = crypto.SigningKeyPair.generate(rng)
    z = crypto.ecdh_shared(eph.scalar, ek_pub)
    key = crypto.kdf_counter(z, "CREDENTIAL", eph.public_bytes + aik_name)
    ct = crypto.wrap(key, secret.data, aik_name)
    return Credential(aik_name, eph.public_bytes, ct)


def activate_credential(cred: Credential, aik_name: bytes,
                        ek_priv: crypto.SigningKeyPair) -> crypto.Secret:
    """Recover the sealed secret; proves joint possession of EK and AIK."""
    if cred.aik_name != aik_name:
        raise NameMismatch("credential was made for a different key name")
    z = crypto.ecdh_shared(ek_priv.scalar, cred.eph_pub)
    key = crypto.kdf_counter(z, "CREDENTIAL", cred.eph_pub + aik_name)
    return crypto.Secret(crypto.channel_open(key, cred.ciphertext, aik_name))


# ---------------------------------------------------------------------------
# two-phase ECDH commands
# ---------------------------------------------------------------------------

def ec_ephemeral(state: TpmState) -> tuple[bytes, int]:
    """Issue an ephemeral public point plus its counter.

    The scalar is never stored: it is re-derived from the device ephemeral
    seed and the counter when the second phase runs. The outstanding table
    holds at most EPHEMERAL_TABLE_CAPACITY counters, FIFO-evicted.
    """
    state.tick()
    counter = state.eph_next
    state.eph_next += 1
    state.eph_table.append(counter)
    if len(state.eph_table) > EPHEMERAL_TABLE_CAPACITY:
        state.eph_table.pop(0)
    return crypto.public_from_scalar(_eph_scalar(state, counter)).point, counter


def zgen_2phase(state: TpmState, counter: int, own_static: crypto.SigningKeyPair,
                peer_static_pub: bytes | crypto.PublicKey,
                peer_eph_pub: bytes | crypto.PublicKey) -> bytes:
    """Finish the two-phase exchange for a previously issued counter.

    The counter is single-use: consumed here, and invalid if it was
    evicted or never issued.
    """
    state.tick()
    if counter not in state.eph_table:
        raise CounterInvalid(f"ephemeral counter {counter} not outstanding")
    state.eph_table.remove(counter)
    scalar = _eph_scalar(state, counter)
    eph = crypto.SigningKeyPair(crypto.public_from_scalar(scalar), scalar)
    return crypto.ecdh_two_phase(own_static, peer_static_pub, eph, peer_eph_pub)


def _eph_scalar(state: TpmState, counter: int) -> int:
    material = crypto.kdf_counter(state.eph_seed, "ECDH-EPHEM",
                                  struct.pack("<Q", counter))
    return crypto.scalar_from_material(material)


# ---------------------------------------------------------------------------
# sealing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SealedBlob(Record):
    selection: tuple[int, ...]
    policy_digest: bytes
    ciphertext: bytes

    SPEC = Spec((1, "selection", PCR_BITMAP), (2, "policy_digest", RAW),
                (3, "ciphertext", RAW))


def seal(state: TpmState, data: bytes, selection) -> SealedBlob:
    """Seal data to the current values of the selected PCRs: at least
    one, else EmptySelection, so sealed data is bound to measured state.
    """
    sel = normalize_selection(selection)
    state.tick()
    policy = state.pcr.composite(sel)
    key, aad = _sealing_key(state, sel, policy)
    return SealedBlob(sel, policy, crypto.wrap(key, data, aad))


def unseal(state: TpmState, blob: SealedBlob) -> bytes:
    """Release sealed data iff the selected PCRs match the sealing policy.
    A blob decoded from bytes can select no PCR, which seal never makes;
    it is refused with EmptySelection before the command runs."""
    if not blob.selection:
        raise EmptySelection("sealed blob selects no pcr")
    state.tick()
    current = state.pcr.composite(blob.selection)
    if current != blob.policy_digest:
        raise PolicyFailure("current PCR composite does not satisfy the policy")
    key, aad = _sealing_key(state, blob.selection, blob.policy_digest)
    return crypto.channel_open(key, blob.ciphertext, aad)


def _sealing_key(state: TpmState, selection: tuple[int, ...],
                 policy: bytes) -> tuple[bytes, bytes]:
    """Key and aad for sealed data. The policy digest is bound into both,
    so a doctored policy fails authentication rather than unlocking
    anything."""
    aad = selection_to_bitmap(selection) + policy
    return crypto.kdf_counter(state.seeds["storage"].seed, "SEAL", aad), aad
