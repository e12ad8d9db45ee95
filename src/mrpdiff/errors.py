"""Exception types shared across the engine, mapped to CLI exit codes."""

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
    """A required input file (dataset, checkpoint) does not exist or cannot be read."""

    exit_code = 3


# the OS errors of opening, reading or writing a file that mean MissingArtifactError
UNREADABLE = (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)


def check_int(name: str, value, low: int) -> None:
    """Raise InvalidConfigError unless `value` is an integer (Python or
    numpy) of at least `low`."""
    if not isinstance(value, (int, np.integer)) or value < low:
        raise InvalidConfigError(f"{name} must be an integer >= {low}, got {value!r}")


class CheckFailedError(MrpdiffError):
    """A hard assertion in a measurement run failed (e.g. Lipschitz bound)."""

    exit_code = 4


class DivergenceError(MrpdiffError):
    """Training loss became NaN or infinite."""

    exit_code = 4
