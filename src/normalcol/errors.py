"""Exception types shared across the package."""


class GraphError(ValueError):
    """Base class for graph construction and parsing failures."""


class ParseError(GraphError):
    """Malformed graph text (bad header, bad tokens, bad encoding)."""


class DegreeError(GraphError):
    """A vertex does not have degree exactly 3."""


class LoopError(GraphError):
    """An edge joins a vertex to itself."""


class ImproperColoringError(ValueError):
    """An operation that requires a proper edge-coloring got an improper one."""


class VerificationError(RuntimeError):
    """A claimed invariant failed an explicit runtime check."""

