"""Exception types shared across the package.

Each carries the CLI exit code it maps onto, so anything user-facing
should raise one of them rather than a bare RuntimeError.
"""


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""

    exit_code = 2


class ToleranceError(RuntimeError):
    """A numerical quality check failed its tolerance."""

    exit_code = 3


class LeakageError(RuntimeError):
    """Wave-packet amplitude reached the window boundary."""

    exit_code = 4
