"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array shapes do not chain or do not match."""


class ParameterError(ValueError):
    """An argument is outside its documented range."""


class StateError(RuntimeError):
    """An operation was called before the state it needs exists."""


class NumericError(ArithmeticError):
    """A non-finite value showed up where finite math was required."""


class FormatError(ValueError):
    """A dataset or run file is malformed; dataset errors carry the byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset
