"""The package's one way to fail: its error types, the check that raises
them, and the one rendering of a failure.

An error type owns the exit code the command line returns for it.  An
error carries where it happened as data: ``batch_index``, the first
failing slice of a stacked :func:`check` (None for an unstacked one, and
absent from an error no check raised), then the places :func:`annotate`
added on its way up, such as ``at op 4 (two_mode_squeezer)``.  ``str``
renders the message followed by those places.  All of it is instance
data, which pickling across a process pool keeps.
"""

import numpy as np


class QdmsimError(Exception):
    """A failure the command line reports as one ``error: ...`` line."""

    exit_code = 1
    places: tuple[str, ...] = ()

    def __str__(self) -> str:
        index = getattr(self, "batch_index", None)
        at = () if index is None else (f"at batch index {index}",)
        return " ".join((super().__str__(), *at, *self.places))


class ValidationError(QdmsimError, ValueError):
    """A parameter, state or scenario field violates a physical constraint."""

    exit_code = 3


class ScenarioParseError(QdmsimError, ValueError):
    """A scenario file is not syntactically valid structured text."""

    exit_code = 2


class OutputError(QdmsimError):
    """A command's output file cannot be written."""

    exit_code = 2


class NumericalError(QdmsimError, RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""

    exit_code = 4


class ConsistencyError(NumericalError):
    """An internally produced state violates the uncertainty relation.

    This always indicates a construction bug, never bad user input.
    """


class TruncationError(NumericalError):
    """Fock-space truncation leaked too much probability into the top levels."""

    tail_mass = property(lambda self: self.margins[0])


def check(holds, margins, error: type, message: str) -> None:
    """Raise ``error`` unless ``holds`` is true at every slice of a
    (possibly stacked) check.  ``holds`` states what must hold, so a NaN
    or infinite margin, which compares false, fails.  ``message`` is
    formatted with the first failing slice's margin, or margins if a
    tuple of them is given (each a scalar or one per slice); the error
    keeps them as ``margins`` and that slice as ``batch_index``."""
    if holds is True or holds is np.True_:  # the common case, at no numpy cost
        return
    holds = np.asarray(holds)
    if holds.all():
        return
    index = int(np.argmin(holds)) if holds.ndim else None
    at = () if index is None else index
    margins = margins if isinstance(margins, tuple) else (margins,)
    values = tuple(np.broadcast_to(m, holds.shape)[at].item() for m in margins)
    exc = error(message.format(*values))
    exc.margins, exc.batch_index = values, index
    raise exc


def annotate(exc: QdmsimError, where: str) -> QdmsimError:
    """Add ``where`` to the places of ``exc`` and return it, so a check's
    failure can say where it happened on its way up."""
    exc.places = exc.places + (where,)
    return exc
