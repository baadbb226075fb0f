"""Domain errors shared across the ledger stack.

Every error carries a stable machine-readable ``code``. The same codes appear
in block execution results, on CLI standard error, and in scenario-script
expectations, so they must never change once a log has been written.
"""

from __future__ import annotations


class LedgerError(Exception):
    """Base class for all domain errors."""

    code = "LedgerError"


# --- record store ---------------------------------------------------------

class RecordNotFoundError(LedgerError):
    code = "RecordNotFound"


class RecordInvalidatedError(LedgerError):
    code = "RecordInvalidated"


# --- token registry -------------------------------------------------------

class ZeroAddressError(LedgerError):
    code = "ZeroAddress"


class TokenNotFoundError(LedgerError):
    code = "TokenNotFound"


class NotAuthorizedError(LedgerError):
    code = "NotAuthorized"


# --- provenance layer -----------------------------------------------------

class InvalidInputError(LedgerError):
    code = "InvalidInput"


# --- use-case policy ------------------------------------------------------

class PolicyForbiddenError(LedgerError):
    code = "PolicyForbidden"


class SchemaViolationError(LedgerError):
    code = "SchemaViolation"


class InsufficientFeeError(LedgerError):
    code = "InsufficientFee"


class NotWhitelistedError(LedgerError):
    code = "NotWhitelisted"


# --- query engine ---------------------------------------------------------

class AmbiguousLineageError(LedgerError):
    code = "AmbiguousLineage"


# --- ledger / persistence -------------------------------------------------

class BadNonceError(LedgerError):
    code = "BadNonce"


class MalformedPayloadError(LedgerError):
    code = "MalformedPayload"


class ConfigInvalidError(LedgerError):
    code = "ConfigInvalid"


class IoFailureError(LedgerError):
    code = "IoFailure"


class ClockExhaustedError(LedgerError):
    """The next block time would pass 2**64 - 1 ms, past what a log holds."""

    code = "ClockExhausted"


class CorruptLogError(LedgerError):
    code = "CorruptLog"

    def __init__(self, message: str, height: int | None = None):
        super().__init__(message)
        self.height = height
