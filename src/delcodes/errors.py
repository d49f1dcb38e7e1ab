"""Shared exception vocabulary for the whole package.

Every error raised on purpose by this package derives from DeletionCodeError,
so callers can catch one base class.  A few also derive from the matching
builtin (ValueError, ZeroDivisionError) to stay idiomatic.
"""


class DeletionCodeError(Exception):
    pass


class NotPrimePower(DeletionCodeError, ValueError):
    """Field order is not a prime and not a power of two in range."""


class DivisionByZero(DeletionCodeError, ZeroDivisionError):
    """Multiplicative inverse of the zero element was requested."""


class AlphabetMismatch(DeletionCodeError, ValueError):
    """A word or book is over another alphabet than the operation takes."""


class OutOfRange(DeletionCodeError, ValueError):
    """A numeric argument lies outside its documented range."""


class LengthMismatch(DeletionCodeError, ValueError):
    """A sequence argument has an incompatible length."""


class GuardExceeded(DeletionCodeError):
    """A configured work guard (search size, enumeration count) would be exceeded."""


class NoMatch(DeletionCodeError):
    """No codeword contains the received word as a subsequence."""


class Ambiguous(DeletionCodeError):
    """More than one codeword contains the received word as a subsequence."""


class DecodeFailure(DeletionCodeError):
    """The outer decoder could not produce a message within its radius.

    Scheme-level decoders attach their telemetry so failed trials are still
    inspectable.
    """

    def __init__(self, *args, telemetry=None):
        super().__init__(*args)
        self.telemetry = telemetry


class InfeasibleAtDeskScale(DeletionCodeError):
    """A construction parameter forces work beyond the configured build
    budget, or an inner book falls short of one codeword per pair."""


class InvalidOverride(DeletionCodeError, ValueError):
    """A parameter override is unknown or breaks a consistency requirement."""


class PatternOutOfRange(DeletionCodeError, ValueError):
    """A deletion pattern refers to positions outside the word."""


class BudgetExceeded(DeletionCodeError):
    """An adversary strategy produced more deletions than its budget."""
