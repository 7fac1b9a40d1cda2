"""Exception types shared across the package.

Every failure the library raises deliberately derives from CcxError, so
callers can fence off simulator faults from programming errors. Validation
outcomes that are expected results of a run (verification verdicts and
token rejections) are enums on the relevant modules, not exceptions.
"""


class CcxError(Exception):
    """Base class for all errors raised by this package."""


# crypto layer ---------------------------------------------------------------

class InvalidLength(CcxError):
    """An input has a length outside its allowed range."""


class InvalidPoint(CcxError):
    """Public key bytes do not decode to a valid curve point."""


class AuthFailure(CcxError):
    """Authenticated decryption or credential recovery failed."""


class InvalidSeed(CcxError):
    """Seed material is missing or has an unusable length."""


# TPM engine -----------------------------------------------------------------

class HierarchyMismatch(CcxError):
    """A key was presented under the wrong hierarchy or parent."""


class InvalidPcrIndex(CcxError):
    """PCR index outside the bank."""


class EmptySelection(CcxError):
    """A quote or seal asked for zero PCRs."""


class NameMismatch(CcxError):
    """Credential activation was attempted for a different key name."""


class CounterInvalid(CcxError):
    """Ephemeral counter unknown, already consumed, or evicted."""


class PolicyFailure(CcxError):
    """Current PCR state does not satisfy a sealed blob's policy."""


class SeedVersionMismatch(CcxError):
    """Key blob was created under an older hierarchy seed version."""


class BlobCorrupt(CcxError):
    """Key blob envelope failed integrity verification."""


class KeyNotLoaded(CcxError):
    """Operation referenced a handle that is not in the loaded-object table."""


class KeyDeactivated(CcxError):
    """Key belongs to a deactivated subtree and may not be loaded."""


# TEE engine -----------------------------------------------------------------

class EvidenceTooLarge(CcxError):
    """Evidence to embed in a guest report or a quote exceeds
    tee.MAX_EVIDENCE_SIZE."""


# Owner CA -------------------------------------------------------------------

class ChainInvalid(CcxError):
    """Vendor certificate chain failed verification."""


class ChallengeFailed(CcxError):
    """Credential activation answer did not match the challenge nonce."""


class SessionInvalid(CcxError):
    """Challenge session unknown, expired, or already consumed."""


class BaselineRejected(CcxError):
    """Registration refused: the node is active, or its evidence failed."""


class NotInitialized(CcxError):
    """Node registration attempted before its identity flow completed."""


class NodeUnknown(CcxError):
    """No record exists for the referenced node."""


class NodeRevoked(CcxError):
    """The referenced node has been revoked."""


class PolicyUnknown(CcxError):
    """The verifier has no policy registered under the referenced id."""


# Measurement chain ----------------------------------------------------------

class StageOrderViolation(CcxError):
    """Boot stages were measured out of order."""


class UntrustedImage(CcxError):
    """An image manifest signature did not verify; boot refused."""


class LogGap(CcxError):
    """Event log sequence numbers are not contiguous and increasing."""


# Wire / protocol ------------------------------------------------------------

class DecodeError(CcxError):
    """Bytes do not parse under the canonical encoding."""


class AttestationRejected(CcxError):
    """A protocol run ended with the verifier rejecting the evidence.

    The rejection cause (a verifier outcome enum member) rides along so
    harness code can assert on the precise failure.
    """

    def __init__(self, cause, message: str = ""):
        super().__init__(message or f"attestation rejected: {cause}")
        self.cause = cause
