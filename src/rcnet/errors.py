"""Exception types. Each error class carries the CLI's exit code for it
and the label its message is printed under (``<label>: <message>``)."""


class RcnetError(Exception):
    """Base class for errors raised by this package; only its subclasses
    are raised."""
    exit_code: int
    label: str


class ConfigError(RcnetError, ValueError):
    """Invalid experiment configuration or command-line value. Each
    settings validator raises it itself, so a bad setting exits 2 wherever
    it is checked; it is a ``ValueError`` for library callers."""
    exit_code, label = 2, "config error"


class DataError(RcnetError):
    """Invalid or unreadable dataset/image input."""
    exit_code, label = 3, "data error"


class CheckpointError(RcnetError):
    """Invalid, mismatched or unreadable checkpoint file."""
    exit_code, label = 4, "checkpoint error"


class NumericalCheckError(RcnetError):
    """A numerical check failed."""
    exit_code, label = 5, "numerical check failed"
