"""Exception types shared across the package."""

from __future__ import annotations


class DnaCodecError(Exception):
    """Base class for every error raised deliberately by this library."""


class ResourceLimitError(DnaCodecError):
    """A construction or search exceeded a configured cap.

    Raised instead of silently returning a wrong or partial answer whenever
    a worst-case-exponential step (a subset construction, or the input
    classes of ``included_in_recognizable``) outgrows its budget.  Callers
    can retry with a larger cap via the ``DNACODEC_STATE_CAP`` environment
    variable or the ``state_cap`` keyword of the subset constructions and
    maximality deciders.  The general weak route never raises it.
    """


class FormatError(DnaCodecError):
    """Malformed machine text, descriptor document, regular expression or setting.

    ``line`` is the 1-based line number of the offending input line when the
    source is a multi-line machine description, else ``None``.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ClassAssertionRefuted(DnaCodecError):
    """A caller-asserted transducer class was refuted by a bounded search.

    Whether a transducer is input-altering or input-preserving is
    undecidable, so a descriptor asserting either class is checked on all
    short words first.  A refuting word means the descriptor is wrong: the
    input-altering route would answer for a machine it does not fit, and
    an input-preserving contract is broken, so we stop hard rather than
    answer.  ``witness`` is the word that refutes the assertion.
    """

    def __init__(self, message: str, witness: str | None = None):
        super().__init__(message)
        self.witness = witness
