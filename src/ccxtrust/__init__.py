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
from .clock import VirtualClock
from .crypto import Certificate, DeterministicRng, Secret, SigningKeyPair
from .errors import AttestationRejected, CcxError
from .harness import Cluster, build_cluster, run_bench, run_scenario
from .measurement import ImageManifest, MeasurementEpoch
from .owner_ca import OwnerCa, TrustBaseline
from .protocol import (
    ChannelTable,
    CompositeReportEnvelope,
    NodeActor,
    ProtocolTrace,
    TraceEvent,
    check_theorems,
    run_attest_composite,
    run_attest_independent,
    run_initialization,
)
from .tee import TeeReport, TeeTcb, TeeVendor
from .tpm import CompositeQuote, TpmState, tpm_manufacture
from .verifier import (
    AttestationToken,
    CompositeOutcome,
    PolicyBaseline,
    TokenRejection,
    VerifierService,
    validate_token,
)

__version__ = "0.1.0"

__all__ = [
    "AttestationRejected",
    "AttestationToken",
    "CcxError",
    "Certificate",
    "ChannelTable",
    "Cluster",
    "CompositeOutcome",
    "CompositeQuote",
    "CompositeReportEnvelope",
    "DeterministicRng",
    "ImageManifest",
    "MeasurementEpoch",
    "NodeActor",
    "OwnerCa",
    "PolicyBaseline",
    "ProtocolTrace",
    "Secret",
    "SigningKeyPair",
    "TeeReport",
    "TeeTcb",
    "TeeVendor",
    "TokenRejection",
    "TpmState",
    "TraceEvent",
    "TrustBaseline",
    "VerifierService",
    "VirtualClock",
    "build_cluster",
    "check_theorems",
    "clock",
    "crypto",
    "encoding",
    "errors",
    "harness",
    "measurement",
    "owner_ca",
    "protocol",
    "run_attest_composite",
    "run_attest_independent",
    "run_bench",
    "run_initialization",
    "run_scenario",
    "tee",
    "tpm",
    "tpm_manufacture",
    "validate_token",
    "verifier",
]
