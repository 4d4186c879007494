"""The budget stop, and the format errors of every file matcat reads."""


class BudgetExceeded(RuntimeError):
    """A search passed its configured budget; a checkpoint was written when
    the search keeps one and a path was configured."""


class FormatError(ValueError):
    """Malformed catalogue, checkpoint or property file (carries a line number)."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ChecksumMismatch(FormatError):
    """A checked file whose sha256 footer does not match what is above it."""
