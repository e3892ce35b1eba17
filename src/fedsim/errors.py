"""Exception taxonomy shared across the simulator.

The CLI maps these onto distinct exit codes, so new failure modes should
reuse one of the categories below instead of raising bare exceptions.
"""


class FedsimError(Exception):
    """Base class for all simulator errors."""


class ParameterError(FedsimError, ValueError):
    """An argument violates an operation's preconditions."""


class DataFormatError(FedsimError):
    """An input file does not conform to its declared format."""


class PartitionError(FedsimError):
    """Data partitioning could not satisfy its constraints within the retry budget."""


class NumericError(FedsimError):
    """A numerical routine failed to converge."""


class ConfigError(FedsimError):
    """Invalid, unknown, or inconsistent configuration."""
