"""Exception hierarchy shared across the package."""


class ValidationError(ValueError):
    """A parameter, state or scenario field violates a physical constraint."""


class ScenarioParseError(ValueError):
    """A scenario file is not syntactically valid structured text."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class ConsistencyError(NumericalError):
    """An internally produced state violates the uncertainty relation.

    This always indicates a construction bug, never bad user input.
    """


class TruncationError(NumericalError):
    """Fock-space truncation leaked too much probability into the top levels."""

    def __init__(self, message: str, tail_mass: float = 0.0):
        super().__init__(message)
        self.tail_mass = tail_mass


def annotate(exc: Exception, where: str) -> Exception:
    """Append ``where`` to the message of ``exc`` in place and return it,
    keeping its type and attributes, so a check's failure can say where it
    happened on its way up."""
    exc.args = (f"{exc.args[0]} {where}",) + exc.args[1:]
    return exc
