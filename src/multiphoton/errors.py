"""Exception hierarchy shared by all modules."""

__all__ = ["ContractError", "DataError", "DimensionError", "ResourceLimitError"]


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class DimensionError(ContractError):
    """Array shapes or lengths are inconsistent with the operation."""


class ResourceLimitError(RuntimeError):
    """The request exceeds a built-in size guard and was refused."""


class DataError(ValueError):
    """Input data is malformed or describes an impossible event."""
