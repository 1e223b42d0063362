"""Exception hierarchy shared across the package. The readers in artifacts
raise SchemaError naming the artifact file that is unreadable or malformed.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
BudgetError -> 4. A write that fails raises the OSError itself, which the
CLI also maps to 3, naming the path.
"""


class AlarmsiftError(Exception):
    """Base class for all package errors."""


class ConfigError(AlarmsiftError):
    """Invalid or inconsistent run configuration."""


class DataError(AlarmsiftError):
    """Input data violates a documented precondition or schema."""


class SchemaError(DataError):
    """A persisted artifact does not match its documented schema/version."""


class PcapFormatError(DataError):
    """A capture file is not valid classic PCAP."""


class ContractError(AlarmsiftError):
    """A caller violated an API contract (e.g. negative profile entries)."""


class BudgetError(AlarmsiftError):
    """A search exceeded its state-space budget.

    Carries the best known lower bound on the optimal cost at the moment
    the search was abandoned.
    """

    def __init__(self, message: str, cost_lower_bound: float | None = None):
        super().__init__(message)
        self.cost_lower_bound = cost_lower_bound
