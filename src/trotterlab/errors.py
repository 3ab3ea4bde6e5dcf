"""The refusal contract: exception types carrying the CLI's exit code, one
memory budget, one finite-input rule and one floating-point range guard."""

from __future__ import annotations

import functools
import math

# Memory one allocation may take, by the estimate next to it: a model's terms,
# a local norm's site subsets, an experiment's samples, a plan's displacements,
# dense matrices.
_MEMORY_BYTES = 1 << 30


class TrotterlabError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class DimensionMismatchError(TrotterlabError):
    """Operands act on different numbers of sites."""


class ValidationError(TrotterlabError):
    """Input data violates a structural contract (e.g. non-Hermitian total)."""


class UnsupportedOrderError(TrotterlabError):
    """Requested product-formula order is not 1 or a positive even integer."""


class PartitionError(TrotterlabError):
    """A two-group term partition was required but not (correctly) supplied."""


class ResourceCapError(TrotterlabError):
    """A request exceeds the memory budget or a schedule's exponential count."""

    exit_code = 3


class DivergentTailError(TrotterlabError):
    """Power-law interaction tail does not decay fast enough to truncate."""

    exit_code = 3


def check_budget(nbytes: int, what: str) -> None:
    """Refuse ``what`` (say, "a model of 9 terms needs") past the budget."""
    if nbytes > _MEMORY_BYTES:
        raise ResourceCapError(f"{what} more than {_MEMORY_BYTES} bytes of memory")


def check_finite(name: str, value: float) -> None:
    # NaN fails every comparison a caller makes next, so it is refused first.
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def _float_guard(what: str, hint: str):
    """Report an OverflowError or ZeroDivisionError raised inside the wrapped
    calculator as bad input: a ValidationError saying ``what`` and ``hint``."""

    def wrap(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except (OverflowError, ZeroDivisionError) as exc:
                raise ValidationError(f"{what} ({exc}); {hint}") from exc

        return guarded

    return wrap
