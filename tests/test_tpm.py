"""Software TPM device: manufacture, key trees, PCRs, quotes, credential
activation, ephemeral counters, sealing, seed rotation.

PCR extend expectations were computed with a standalone hash chain
(new = sha256(old || digest), registers start at 32 zero bytes) and
frozen here before the device code existed.
"""

import pytest

from ccxtrust import crypto, tpm
from ccxtrust.errors import (
    AuthFailure,
    BlobCorrupt,
    CounterInvalid,
    DecodeError,
    EmptySelection,
    HierarchyMismatch,
    InvalidLength,
    InvalidPcrIndex,
    InvalidSeed,
    KeyDeactivated,
    KeyNotLoaded,
    NameMismatch,
    PolicyFailure,
    ReportTooLarge,
    SeedVersionMismatch,
)

SEED = b"\xa5" * 32


def fresh_state() -> tpm.TpmState:
    return tpm.tpm_manufacture(SEED)


# ---------------------------------------------------------------------------
# manufacture
# ---------------------------------------------------------------------------

def test_manufacture_is_deterministic():
    a = fresh_state()
    b = fresh_state()
    assert a.ek_blob.public == b.ek_blob.public
    assert a.ek_cert.to_bytes() == b.ek_cert.to_bytes()
    assert a.seeds["storage"].seed == b.seeds["storage"].seed


def test_manufacture_hierarchy_seeds_differ():
    state = fresh_state()
    seeds = {h: state.seeds[h].seed for h in tpm.HIERARCHIES}
    assert len(set(seeds.values())) == len(tpm.HIERARCHIES)
    assert all(rec.version == 1 for rec in state.seeds.values())


def test_manufacture_rejects_bad_seed():
    with pytest.raises(InvalidSeed):
        tpm.tpm_manufacture(b"short")


def test_devices_driven_alike_encode_alike(tpm_snapshot):
    # the device holds only what commands derive, no wall-clock time
    images = []
    for _ in range(2):
        state = tpm.tpm_manufacture(SEED)
        tpm.pcr_extend(state, 4, crypto.sha256(b"boot"))
        srk_handle = tpm.load_key(state, tpm.create_primary(state, "storage"))
        tpm.load_key(state, tpm.create_signing_key(state, srk_handle))
        tpm.rotate_seed(state, "platform")
        images.append(tpm_snapshot(state))
    assert images[0] == images[1]


def test_ek_cert_chains_to_vendor_root():
    state = fresh_state()
    assert state.ek_cert.verify(tpm.tpm_vendor_root_pub())
    assert state.ek_cert.subject == state.ek_blob.public


# ---------------------------------------------------------------------------
# PCRs
# ---------------------------------------------------------------------------

def test_pcr_extend_frozen_chain():
    state = fresh_state()
    assert tpm.pcr_read(state, 5) == bytes(32)
    p1 = tpm.pcr_extend(state, 5, crypto.sha256(b"event-0"))
    assert p1.hex() == (
        "b4112552f79ad100a7864a23e641706ae2adc37c4178a2b85c84df43fff1cf79")
    p2 = tpm.pcr_extend(state, 5, crypto.sha256(b"event-1"))
    assert p2.hex() == (
        "f9204119234a69fb01a94a9a7611ec79a169aa54ad9a838aa9f7b885005b4b66")
    assert tpm.pcr_read(state, 5) == p2
    # order matters
    other = fresh_state()
    tpm.pcr_extend(other, 5, crypto.sha256(b"event-1"))
    tpm.pcr_extend(other, 5, crypto.sha256(b"event-0"))
    assert tpm.pcr_read(other, 5) != p2


def test_pcr_bounds_and_digest_width():
    state = fresh_state()
    with pytest.raises(InvalidPcrIndex):
        tpm.pcr_extend(state, 24, bytes(32))
    with pytest.raises(InvalidPcrIndex):
        tpm.pcr_read(state, -1)
    with pytest.raises(InvalidLength):
        tpm.pcr_extend(state, 0, b"tiny")


def test_pcr_composite_sorted_and_selective():
    state = fresh_state()
    tpm.pcr_extend(state, 2, crypto.sha256(b"a"))
    tpm.pcr_extend(state, 7, crypto.sha256(b"b"))
    direct = crypto.sha256(tpm.pcr_read(state, 2) + tpm.pcr_read(state, 7))
    assert state.pcr.composite((2, 7)) == direct
    # command-layer selections are normalized ascending before hashing
    assert state.pcr.composite(tpm.normalize_selection((7, 2))) == direct
    assert state.pcr.composite((2,)) != direct


def test_selection_bitmap_round_trip():
    sel = (0, 3, 7, 23)
    bitmap = tpm.selection_to_bitmap(sel)
    assert len(bitmap) == tpm.PCR_SELECT_BYTES
    assert tpm.bitmap_to_selection(bitmap) == sel
    with pytest.raises(EmptySelection):
        tpm.normalize_selection(())


def _bitmap_to_selection_oracle(bitmap: bytes) -> tuple[int, ...]:
    bits = int.from_bytes(bitmap, "little")
    return tuple(i for i in range(tpm.PCR_COUNT) if bits & (1 << i))


def test_bitmap_to_selection_matches_the_bitwise_oracle():
    bitmaps = [bytes(3), b"\xff" * 3]
    for position in range(tpm.PCR_SELECT_BYTES):
        for value in range(256):
            bitmap = bytearray(3)
            bitmap[position] = value
            bitmaps.append(bytes(bitmap))
    rng = crypto.DeterministicRng(b"pcr-bitmaps")
    bitmaps += [rng.random_bytes(3) for _ in range(500)]
    for bitmap in bitmaps:
        assert tpm.bitmap_to_selection(bitmap) == \
            _bitmap_to_selection_oracle(bitmap), bitmap.hex()
    for bad in (b"", b"\x01\x02", b"\x01\x02\x03\x04"):
        with pytest.raises(DecodeError, match="pcr bitmap must be 3 bytes"):
            tpm.bitmap_to_selection(bad)


# ---------------------------------------------------------------------------
# key creation and loading
# ---------------------------------------------------------------------------

def test_primary_is_pure_function_of_seed():
    state = fresh_state()
    a = tpm.create_primary(state, "storage")
    b = tpm.create_primary(state, "storage")
    assert a.public == b.public
    assert a.name == b.name
    assert a.name == crypto.sha256(a.public_area())


def test_child_keys_distinct_and_loadable():
    state = fresh_state()
    srk = tpm.load_key(state, tpm.create_primary(state, "storage"))
    k1 = tpm.create_signing_key(state, srk, role="AIK")
    k2 = tpm.create_signing_key(state, srk, role="AIK")
    assert k1.public != k2.public
    h1 = tpm.load_key(state, k1)
    kp = tpm.loaded_keypair(state, h1)
    sig = kp.sign(b"m")
    assert crypto.verify(k1.public, b"m", sig)


def test_key_blob_round_trip():
    state = fresh_state()
    srk = tpm.load_key(state, tpm.create_primary(state, "storage"))
    blob = tpm.create_signing_key(state, srk)
    parsed = tpm.KeyBlob.from_bytes(blob.to_bytes())
    assert parsed.public == blob.public
    assert parsed.name == blob.name
    assert tpm.load_key(state, parsed)


def test_parse_public_area_names_match():
    state = fresh_state()
    blob = tpm.create_primary(state, "storage")
    parsed = tpm.parse_public_area(blob.public_area())
    assert parsed.name == blob.name
    assert parsed.public == blob.public


def test_load_requires_parent_loaded():
    state = fresh_state()
    srk_handle = tpm.load_key(state, tpm.create_primary(state, "storage"))
    child = tpm.create_signing_key(state, srk_handle)
    tpm.flush_key(state, srk_handle)
    with pytest.raises(KeyNotLoaded):
        tpm.load_key(state, child)


def test_load_rejects_tampered_envelope():
    state = fresh_state()
    blob = tpm.create_primary(state, "storage")
    blob.envelope = bytes(len(blob.envelope))
    with pytest.raises(BlobCorrupt):
        tpm.load_key(state, blob)


# ---------------------------------------------------------------------------
# seed rotation
# ---------------------------------------------------------------------------

def test_rotate_seed_invalidates_stale_blobs():
    state = fresh_state()
    old_primary = tpm.create_primary(state, "storage")
    srk_handle = tpm.load_key(state, old_primary)
    old_child = tpm.create_signing_key(state, srk_handle)

    assert tpm.rotate_seed(state, "storage") == 2

    with pytest.raises(SeedVersionMismatch):
        tpm.load_key(state, old_primary)
    with pytest.raises(SeedVersionMismatch):
        tpm.load_key(state, old_child)

    new_primary = tpm.create_primary(state, "storage")
    assert new_primary.seed_version == 2
    assert new_primary.public != old_primary.public
    new_handle = tpm.load_key(state, new_primary)
    assert tpm.load_key(state, tpm.create_signing_key(state, new_handle))


def test_rotate_seed_leaves_other_hierarchies_alone():
    state = fresh_state()
    ek_blob = state.ek_blob
    tpm.rotate_seed(state, "storage")
    assert tpm.load_key(state, ek_blob)  # endorsement untouched


# ---------------------------------------------------------------------------
# quotes
# ---------------------------------------------------------------------------

def aik_setup(state):
    srk = tpm.load_key(state, tpm.create_primary(state, "storage"))
    blob = tpm.create_signing_key(state, srk, role="AIK")
    return blob, tpm.load_key(state, blob)


def test_quote_verifies_and_binds_pcrs():
    state = fresh_state()
    blob, handle = aik_setup(state)
    tpm.pcr_extend(state, 1, crypto.sha256(b"x"))
    nonce = crypto.sha256(b"nonce")
    q = tpm.quote(state, (0, 1, 2), nonce, handle)
    assert q.verify(blob.public)
    assert q.qualifying_data == nonce
    assert q.pcr_digest == state.pcr.composite((0, 1, 2))
    assert q.tee_report == b""

    parsed = tpm.CompositeQuote.from_bytes(q.to_bytes())
    assert parsed == q
    assert parsed.verify(blob.public)


def test_quote_signature_covers_every_field():
    state = fresh_state()
    blob, handle = aik_setup(state)
    q = tpm.cc_quote(state, (0, 1), crypto.sha256(b"n"), handle, b"evidence")
    import dataclasses
    for field_name, value in (("qualifying_data", crypto.sha256(b"m")),
                              ("tee_report", b"evidence2"),
                              ("pcr_digest", bytes(32))):
        forged = dataclasses.replace(q, **{field_name: value})
        assert not forged.verify(blob.public)


def test_cc_quote_embeds_report_and_enforces_limit():
    state = fresh_state()
    _, handle = aik_setup(state)
    q = tpm.cc_quote(state, (0,), crypto.sha256(b"n"), handle, b"\x01" * 4096)
    assert len(q.tee_report) == 4096
    with pytest.raises(ReportTooLarge):
        tpm.cc_quote(state, (0,), crypto.sha256(b"n"), handle, b"\x01" * 4097)


def test_quote_requires_attestation_role():
    state = fresh_state()
    ek_handle = tpm.load_key(state, state.ek_blob)
    with pytest.raises(HierarchyMismatch):
        tpm.quote(state, (0,), crypto.sha256(b"n"), ek_handle)


def test_quote_qualifying_data_width():
    state = fresh_state()
    _, handle = aik_setup(state)
    with pytest.raises(InvalidLength):
        tpm.quote(state, (0,), b"short", handle)


# ---------------------------------------------------------------------------
# credential activation
# ---------------------------------------------------------------------------

def test_activate_credential_recovers_secret():
    state = fresh_state()
    blob, _ = aik_setup(state)
    rng = crypto.DeterministicRng(b"cred")
    secret = crypto.Secret(rng.random_bytes(32))
    cred = tpm.make_credential(secret, blob.name, state.ek_blob.public, rng)

    ek_handle = tpm.load_key(state, state.ek_blob)
    ek_priv = tpm.loaded_keypair(state, ek_handle)
    recovered = tpm.activate_credential(cred, blob.name, ek_priv)
    assert recovered == secret


def test_activate_credential_wrong_ek_fails():
    state = fresh_state()
    other = tpm.tpm_manufacture(b"\x77" * 32)
    blob, _ = aik_setup(state)
    rng = crypto.DeterministicRng(b"cred2")
    cred = tpm.make_credential(crypto.Secret(rng.random_bytes(32)),
                               blob.name, state.ek_blob.public, rng)
    other_ek = tpm.loaded_keypair(other, tpm.load_key(other, other.ek_blob))
    with pytest.raises(AuthFailure):
        tpm.activate_credential(cred, blob.name, other_ek)


def test_activate_credential_wrong_name_fails():
    state = fresh_state()
    blob, _ = aik_setup(state)
    rng = crypto.DeterministicRng(b"cred3")
    cred = tpm.make_credential(crypto.Secret(rng.random_bytes(32)),
                               blob.name, state.ek_blob.public, rng)
    ek_priv = tpm.loaded_keypair(state, tpm.load_key(state, state.ek_blob))
    with pytest.raises(NameMismatch):
        tpm.activate_credential(cred, crypto.sha256(b"other-name"), ek_priv)


def test_credential_round_trip_encoding():
    state = fresh_state()
    blob, _ = aik_setup(state)
    rng = crypto.DeterministicRng(b"cred4")
    cred = tpm.make_credential(crypto.Secret(rng.random_bytes(32)),
                               blob.name, state.ek_blob.public, rng)
    assert tpm.Credential.from_bytes(cred.to_bytes()) == cred


# ---------------------------------------------------------------------------
# ephemeral counter table
# ---------------------------------------------------------------------------

def test_ephemeral_counter_single_use():
    state = fresh_state()
    rng = crypto.DeterministicRng(b"eph")
    peer_static = crypto.SigningKeyPair.generate("P", rng)
    peer_eph = crypto.SigningKeyPair.generate("PE", rng)
    own_static = tpm.loaded_keypair(state, tpm.load_key(state, state.ek_blob))

    point, counter = tpm.ec_ephemeral(state)
    key_tpm = tpm.zgen_2phase(state, counter, own_static,
                              peer_static.public_bytes, peer_eph.public_bytes)
    key_peer = crypto.ecdh_two_phase(peer_static, own_static.public_bytes,
                                     peer_eph, point)
    assert key_tpm == key_peer
    with pytest.raises(CounterInvalid):
        tpm.zgen_2phase(state, counter, own_static,
                        peer_static.public_bytes, peer_eph.public_bytes)


def test_ephemeral_table_evicts_fifo():
    state = fresh_state()
    first_point, first_counter = tpm.ec_ephemeral(state)
    for _ in range(tpm.EPHEMERAL_TABLE_CAPACITY):
        tpm.ec_ephemeral(state)
    own_static = tpm.loaded_keypair(state, tpm.load_key(state, state.ek_blob))
    rng = crypto.DeterministicRng(b"eph2")
    peer = crypto.SigningKeyPair.generate("P", rng)
    with pytest.raises(CounterInvalid):
        tpm.zgen_2phase(state, first_counter, own_static,
                        peer.public_bytes, peer.public_bytes)
    assert len(state.eph_table) == tpm.EPHEMERAL_TABLE_CAPACITY


# ---------------------------------------------------------------------------
# sealing
# ---------------------------------------------------------------------------

def test_seal_unseal_round_trip_and_pcr_gate():
    state = fresh_state()
    tpm.pcr_extend(state, 3, crypto.sha256(b"boot"))
    blob = tpm.seal(state, b"disk key", (3,))
    assert tpm.unseal(state, blob) == b"disk key"

    tpm.pcr_extend(state, 3, crypto.sha256(b"drift"))
    with pytest.raises(PolicyFailure):
        tpm.unseal(state, blob)


def test_seal_unaffected_by_unselected_pcrs():
    state = fresh_state()
    tpm.pcr_extend(state, 3, crypto.sha256(b"boot"))
    blob = tpm.seal(state, b"disk key", (3,))
    tpm.pcr_extend(state, 9, crypto.sha256(b"noise"))
    assert tpm.unseal(state, blob) == b"disk key"


def test_seal_empty_selection_always_opens():
    state = fresh_state()
    blob = tpm.seal(state, b"free", ())
    tpm.pcr_extend(state, 0, crypto.sha256(b"anything"))
    assert tpm.unseal(state, blob) == b"free"


def test_sealed_blob_policy_tamper_detected():
    state = fresh_state()
    tpm.pcr_extend(state, 3, crypto.sha256(b"boot"))
    blob = tpm.seal(state, b"disk key", (3,))
    tpm.pcr_extend(state, 3, crypto.sha256(b"drift"))
    # rewrite the policy to the current composite: policy check passes
    # but the key derivation and aad no longer match
    doctored = tpm.SealedBlob((3,), state.pcr.composite((3,)), blob.ciphertext)
    with pytest.raises(AuthFailure):
        tpm.unseal(state, doctored)


def test_sealed_blob_round_trip_encoding():
    state = fresh_state()
    blob = tpm.seal(state, b"payload", (1, 2))
    assert tpm.SealedBlob.from_bytes(blob.to_bytes()) == blob


# ---------------------------------------------------------------------------
# CVM key trees
# ---------------------------------------------------------------------------

def test_cvm_root_hangs_off_storage_primary_in_storage_mode():
    state = fresh_state()
    srk_handle = tpm.load_key(state, tpm.create_primary(state, "storage"))
    ms = crypto.Secret(b"\x31" * 32)
    blob = tpm.create_cvm_root_key(state, ms, srk_handle, cvm_id=b"vm-1")
    assert blob.hierarchy == "storage"
    assert tpm.load_key(state, blob)

    # neither another primary nor a child of the storage primary will do
    ek_handle = tpm.load_key(state, state.ek_blob)
    aik_handle = tpm.load_key(state, tpm.create_signing_key(state, srk_handle))
    for parent in (ek_handle, aik_handle):
        with pytest.raises(HierarchyMismatch):
            tpm.create_cvm_root_key(state, ms, parent, cvm_id=b"vm-1")


def test_cvm_cc_mode_deactivation_kills_subtree():
    state = fresh_state()
    cc_handle = tpm.load_key(state, tpm.create_primary(state, "cc"))
    ms = tpm.create_cvm_key(state, b"vm-7")
    root = tpm.create_cvm_root_key(state, ms, cc_handle, cvm_id=b"vm-7")
    assert root.hierarchy == "cc"
    root_handle = tpm.load_key(state, root)
    child = tpm.create_signing_key(state, root_handle, role="signing")
    assert tpm.load_key(state, child)

    tpm.deactivate_cvm(state, b"vm-7")
    assert all(e.blob.cvm_id != b"vm-7" for e in state.loaded.values())
    with pytest.raises(KeyDeactivated):
        tpm.load_key(state, root)
    with pytest.raises(KeyDeactivated):
        tpm.load_key(state, child)


def test_cvm_storage_mode_deactivation_leaves_children_loadable():
    state = fresh_state()
    srk_handle = tpm.load_key(state, tpm.create_primary(state, "storage"))
    ms = crypto.Secret(b"\x32" * 32)
    root = tpm.create_cvm_root_key(state, ms, srk_handle, cvm_id=b"vm-2")
    root_handle = tpm.load_key(state, root)
    child = tpm.create_signing_key(state, root_handle, role="signing")
    tpm.load_key(state, child)

    tpm.deactivate_cvm(state, b"vm-2")
    assert all(e.blob.cvm_id != b"vm-2" for e in state.loaded.values())
    # the storage primary still unwraps the torn-down root, and the root
    # its child: the residual-dependency gap the CC hierarchy closes
    assert tpm.load_key(state, root)
    assert tpm.load_key(state, child)


def test_one_device_tears_down_a_storage_tree_and_a_cc_tree():
    state = fresh_state()
    srk_handle = tpm.load_key(state, tpm.create_primary(state, "storage"))
    cc_handle = tpm.load_key(state, tpm.create_primary(state, "cc"))
    trees = {}
    for cvm_id, parent, ms in (
            (b"vm-s", srk_handle, crypto.Secret(b"\x33" * 32)),
            (b"vm-c", cc_handle, tpm.create_cvm_key(state, b"vm-c"))):
        root = tpm.create_cvm_root_key(state, ms, parent, cvm_id=cvm_id)
        child = tpm.create_signing_key(state, tpm.load_key(state, root),
                                       role="signing")
        trees[cvm_id] = (root.to_bytes(), child.to_bytes())
    tpm.deactivate_cvm(state, b"vm-s")
    tpm.deactivate_cvm(state, b"vm-c")
    # fresh copies of the blobs: nothing on the caller's objects matters
    for raw in trees[b"vm-c"]:
        with pytest.raises(KeyDeactivated):
            tpm.load_key(state, tpm.KeyBlob.from_bytes(raw))
    for raw in trees[b"vm-s"]:
        assert tpm.load_key(state, tpm.KeyBlob.from_bytes(raw))


def test_cvm_root_key_refuses_an_empty_id(tpm_snapshot):
    # a CC-tree root without an id would survive deactivate_cvm of its CVM
    state = fresh_state()
    cc_handle = tpm.load_key(state, tpm.create_primary(state, "cc"))
    ms = tpm.create_cvm_key(state, b"vm-9")
    before = tpm_snapshot(state)
    with pytest.raises(InvalidLength):
        tpm.create_cvm_root_key(state, ms, cc_handle, b"")
    assert tpm_snapshot(state) == before


def test_deactivate_cvm_refuses_an_empty_id(tpm_snapshot):
    # an empty id would match the EK, the SRK and the AIK, none of a CVM
    state = fresh_state()
    tpm.load_key(state, state.ek_blob)
    aik_setup(state)
    before = tpm_snapshot(state)
    with pytest.raises(InvalidLength):
        tpm.deactivate_cvm(state, b"")
    assert tpm_snapshot(state) == before
