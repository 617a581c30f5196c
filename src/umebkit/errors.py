"""Exception types shared across the package."""


class ContractViolationError(ValueError):
    """An input violates a documented precondition or invariant."""


class NumericalFailureError(RuntimeError):
    """A search produced no usable candidate: every one of its restarts collapsed."""


class FileFormatError(ValueError):
    """A state or basis file is malformed or fails its admission checks."""
