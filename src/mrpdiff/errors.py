"""Exception types shared across the engine, mapped to CLI exit codes."""

import math
import numbers

import numpy as np


class MrpdiffError(Exception):
    """Base class; exit_code drives the CLI's process exit status."""

    exit_code = 1


class InvalidShapeError(MrpdiffError):
    """Tensor shapes or extents violate an operation's contract."""

    exit_code = 2


class InvalidConfigError(MrpdiffError):
    """Configuration values violate an invariant (e.g. misaligned block grid)."""

    exit_code = 2


class NoGradError(MrpdiffError):
    """Optimizer stepped before any backward populated gradients."""

    exit_code = 2


class ContractViolationError(MrpdiffError):
    """A runtime precondition was violated (e.g. revealing an unmasked position)."""

    exit_code = 4


class MissingArtifactError(MrpdiffError):
    """A required input file (a checkpoint or trace) does not exist or cannot be read."""

    exit_code = 3


# the OS errors of opening, reading or writing a file that mean MissingArtifactError
UNREADABLE = (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)


def check_int(name: str, value, low: int) -> None:
    """Raise InvalidConfigError unless `value` is an integer (Python or
    numpy, not a bool) of at least `low`."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        raise InvalidConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def as_int64(name: str, values, error: type) -> np.ndarray:
    """`values` as an int64 array, the same array when it is one. Raise
    `error` unless they are integers (a bool or float is not), or empty."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise error(f"{name} must be integers, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)


def is_finite_real(value) -> bool:
    """Whether `value` is a finite real number (Python or numpy, not a bool)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    # an integer is finite, and may be too large for math.isfinite
    return isinstance(value, numbers.Integral) or math.isfinite(value)


class CheckFailedError(MrpdiffError):
    """A hard assertion in a measurement run failed (e.g. Lipschitz bound)."""

    exit_code = 4


class DivergenceError(MrpdiffError):
    """Training loss became NaN or infinite."""

    exit_code = 4
