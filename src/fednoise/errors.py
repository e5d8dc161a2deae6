"""Exception types shared across the simulator."""


class FednoiseError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolation(FednoiseError):
    """An operation was called with inputs that break its preconditions."""


class ConfigError(FednoiseError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


class DataError(FednoiseError):
    """Malformed dataset content, e.g. a label outside the class range."""


class FormatError(FednoiseError):
    """Unparsable input file; message includes the offending byte offset."""


class TrainingDiverged(FednoiseError):
    """A loss or gradient became non-finite during optimization."""


class WorkerExited(FednoiseError, RuntimeError):
    """A client worker process exited before returning its results."""
