"""Exception types raised across the package.

Everything domain-level derives from QoecastError so callers (and the CLI)
can separate bad data / bad usage from genuine bugs; reading() is the read
boundary of every JSON artifact file.
"""

from contextlib import contextmanager


class QoecastError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------- telemetry

class MalformedRow(QoecastError):
    """A trace or labels row failed validation. Carries the 1-based record
    number and, once known, the file as `source`, which the message omits."""

    def __init__(self, record_no: int, field: str, detail: str = "", source=None):
        self.record_no = record_no
        self.field = field
        self.source = source
        msg = f"record {record_no}: bad value for {field!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonMonotonicTimestamp(QoecastError):
    pass


class EmptyTrace(QoecastError):
    pass


# ----------------------------------------------------------------- synthgen

class InvalidConfig(QoecastError):
    pass


class SpanOutOfRange(QoecastError):
    pass


# ----------------------------------------------------------------- pipeline

class NoCompleteWindow(QoecastError):
    pass


class InsufficientData(QoecastError):
    pass


class TraceTooShort(QoecastError):
    pass


class TooFewSequences(QoecastError):
    pass


# ------------------------------------------------------------------- nncore

class ShapeMismatch(QoecastError):
    pass


class NonScalarOutput(QoecastError):
    pass


class TapeConsumed(QoecastError):
    pass


# ---------------------------------------------------------------------- zoo

class UnknownVariant(QoecastError):
    pass


class VersionMismatch(QoecastError):
    pass


class ChecksumMismatch(QoecastError):
    pass


class ScalerMissing(QoecastError):
    pass


# -------------------------------------------------------------------- train

class LengthMismatch(QoecastError):
    pass


class EmptySplit(QoecastError):
    pass


class DivergedLoss(QoecastError):
    pass


class SingularSystem(QoecastError):
    pass


class NoConvergence(QoecastError):
    pass


# --------------------------------------------------------------- evaluation

class ScalerMismatch(QoecastError):
    pass


# ------------------------------------------------------------------ explain

class NoAttentionComponent(QoecastError):
    pass


# -------------------------------------------------------------------- serve

class OutOfOrderSample(QoecastError):
    pass


# ---------------------------------------------------- bundle and dataset files

@contextmanager
def reading(source):
    """The read boundary of a JSON artifact: read and check `source` inside
    it, and a missing key (KeyError), a wrong type (TypeError), bytes or
    text that do not decode or parse, a value that does not convert
    (ValueError), an integer past the float range (OverflowError) or JSON
    nested too deeply to decode (RecursionError) raises ShapeMismatch
    naming `source`. Domain errors pass through as they are."""
    try:
        yield
    except KeyError as exc:
        raise ShapeMismatch(f"{source}: no {exc.args[0]!r} key") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ShapeMismatch(f"{source}: malformed ({exc})") from None
