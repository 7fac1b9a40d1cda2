"""Collaborative TPM+TEE attestation simulator.

A desk-scale model of a platform that pairs a TPM with a confidential-VM
TEE: software engines for both devices, an owner CA, a verifier service,
composite attestation in either embedding direction, and a trace model
whose trust-chain properties are machine-checked.

Importing the package loads none of its modules, so that reading and
judging a trace (ccxtrust.trace) loads no cryptography.
"""

__version__ = "0.1.0"
