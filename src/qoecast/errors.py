"""Exception types raised across the package.

Everything domain-level derives from QoecastError so callers (and the CLI)
can separate bad data / bad usage from genuine bugs.
"""

import json


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


class ScalerMissing(QoecastError):
    pass


# ---------------------------------------------------- bundle and dataset files

def malformed(source, exc: KeyError | TypeError | ValueError | OverflowError) -> ShapeMismatch:
    """The error for a JSON document, read from `source`, that lacks a key
    (KeyError), holds a wrong type (TypeError), does not parse (ValueError)
    or holds an integer past the float range (OverflowError)."""
    if isinstance(exc, KeyError):
        return ShapeMismatch(f"{source}: no {exc.args[0]!r} key")
    return ShapeMismatch(f"{source}: malformed ({exc})")


def load_json(text: str, source):
    """json.loads, with a syntax error raised as ShapeMismatch naming `source`."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise malformed(source, exc) from None
