"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An argument or call violates a documented precondition."""


class NumericalFailure(RuntimeError):
    """A computation produced a nonfinite value; the message names the step."""


class DegeneratePointError(ValueError):
    """A pointwise quantity was requested where it is undefined (f(x) = f*)."""


class ConfigError(Exception):
    """Malformed experiment configuration (CLI exit code 2)."""


class InsufficientData(ConfigError):
    """Too few usable horizons for a rate fit (CLI exit code 1)."""
