"""Shared exception types for the trotterlab package."""

from __future__ import annotations


class TrotterlabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(TrotterlabError):
    """Operands act on different numbers of sites."""


class ValidationError(TrotterlabError):
    """Input data violates a structural contract (e.g. non-Hermitian total)."""


class UnsupportedOrderError(TrotterlabError):
    """Requested product-formula order is not 1 or a positive even integer."""


class PartitionError(TrotterlabError):
    """A two-group term partition was required but not (correctly) supplied."""


class ResourceCapError(TrotterlabError):
    """A request exceeds the dense qubit cap or a memory budget."""


class DivergentTailError(TrotterlabError):
    """Power-law interaction tail does not decay fast enough to truncate."""
