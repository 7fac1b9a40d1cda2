"""Collaborative TPM+TEE attestation simulator.

A desk-scale model of a platform that pairs a TPM with a confidential-VM
TEE: software engines for both devices, an owner CA, a verifier service,
composite attestation in either embedding direction, and a trace model
whose trust-chain properties are machine-checked.
"""

from . import (
    clock,
    crypto,
    encoding,
    errors,
    harness,
    measurement,
    owner_ca,
    protocol,
    tee,
    tpm,
    verifier,
)

__version__ = "0.1.0"
