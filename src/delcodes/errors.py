"""Shared exception vocabulary for the whole package.

Every error raised on purpose by this package derives from DeletionCodeError,
so callers can catch one base class.  A few also derive from the matching
builtin (ValueError, ZeroDivisionError, IndexError) to stay idiomatic.
"""


class DeletionCodeError(Exception):
    pass


class NotPrimePower(DeletionCodeError, ValueError):
    """Field order is not a prime and not a power of two in range."""


class FieldMismatch(DeletionCodeError, ValueError):
    """Two field elements from different fields were combined."""


class DivisionByZero(DeletionCodeError, ZeroDivisionError):
    """Multiplicative inverse of the zero element was requested."""


class AlphabetMismatch(DeletionCodeError, ValueError):
    """Words over different alphabet sizes were combined."""


class NotBinary(DeletionCodeError, ValueError):
    """A binary-only operation was applied to a non-binary word."""


class OutOfRange(DeletionCodeError, ValueError):
    """A numeric argument lies outside its documented range."""


class LengthMismatch(DeletionCodeError, ValueError):
    """A sequence argument has an incompatible length."""


class GuardExceeded(DeletionCodeError):
    """A configured work guard (search size, enumeration count) would be exceeded."""


class TargetUnreachable(DeletionCodeError):
    """Greedy construction halted below the requested codebook size.

    The partially built codebook is attached so callers can keep it.
    """

    def __init__(self, message, codebook=None):
        super().__init__(message)
        self.codebook = codebook
        self.achieved_size = 0 if codebook is None else len(codebook.codewords)


class IndexOutOfRange(DeletionCodeError, IndexError):
    """A codeword or message index is outside the codebook."""


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
    """A construction parameter forces work beyond the configured build budget."""


class InvalidOverride(DeletionCodeError, ValueError):
    """A parameter override is unknown or breaks a consistency requirement."""


class PatternOutOfRange(DeletionCodeError, ValueError):
    """A deletion pattern refers to positions outside the word."""


class BudgetExceeded(DeletionCodeError):
    """An adversary strategy produced more deletions than its budget."""
