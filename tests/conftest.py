"""Fixtures shared by the test modules."""

import pytest


def _tpm_snapshot(state) -> bytes:
    """Every field of a TpmState as bytes: two devices whose snapshots are
    equal hold the same state."""
    fields = {
        "seeds": sorted((name, record.seed, record.version)
                        for name, record in state.seeds.items()),
        "pcr": state.pcr.registers,
        "nv": sorted(state.nv.items()),
        "loaded": sorted((handle, entry.blob.to_bytes(), entry.scalar)
                         for handle, entry in state.loaded.items()),
        "next_handle": state.next_handle,
        "command_counter": state.command_counter,
        "eph_seed": state.eph_seed,
        "eph_table": state.eph_table,
        "eph_next": state.eph_next,
        "ek_blob": state.ek_blob.to_bytes(),
        "ek_cert": state.ek_cert.to_bytes(),
    }
    # a field added to TpmState must be added here too
    assert fields.keys() == vars(state).keys()
    return repr(fields).encode()


@pytest.fixture()
def tpm_snapshot():
    return _tpm_snapshot
