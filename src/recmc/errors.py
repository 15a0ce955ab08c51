"""Exception types shared across the checker."""


class RecmcError(Exception):
    """Base class for all checker errors."""


class NotNormalized(RecmcError):
    """A literal was not in the normal form required by the caller."""


class WrongMode(RecmcError):
    """An operation was invoked for the wrong arithmetic mode."""


class ModelMismatch(RecmcError):
    """A model handed to a projection does not satisfy the matrix."""


class UnassignedVar(RecmcError):
    """Evaluation hit a variable the model does not assign."""


class ResourceLimit(RecmcError):
    """A solver or engine budget was exhausted; result is unknown."""


class NotUnsat(RecmcError):
    """Interpolation was asked for a pair that is actually satisfiable."""


class InterpolationError(RecmcError):
    """An interpolant violated its contract (internal bug guard)."""


class SelfCheckFailed(RecmcError):
    """A model or witness failed its independent re-check (internal bug guard)."""


class PreconditionFailed(RecmcError):
    """An engine rule was applied without its premise holding."""


class ProvenanceGap(RecmcError):
    """Counterexample reconstruction could not replay recorded facts."""


class TooLarge(RecmcError):
    """Explicit enumeration was requested for too large a domain."""


class RplSyntaxError(RecmcError):
    """Parse error with source position."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class ValidationError(RecmcError):
    """A parsed program violated a well-formedness rule."""


class PathExplosion(ValidationError):
    """DNF expansion exceeded the fixed path limit: an input error for a
    procedure body, a cue to fall back for Farkas interpolation."""


class ArityMismatch(ValidationError):
    """A call atom's argument count differs from the callee's formals."""
