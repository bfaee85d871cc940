"""Exception types shared across the package, and the argument guards that raise them."""

import math
import numbers


class FermigaussError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(FermigaussError, ValueError):
    """Mode count exceeds the Fock-space cap."""


class StructureError(FermigaussError, ValueError):
    """A matrix violates the block structure required of it."""


class ContractError(FermigaussError, ValueError):
    """An argument violates an operation's stated precondition."""


class DomainError(FermigaussError, ValueError):
    """Parameters lie outside the validity region of a closed form."""


class BranchCutError(FermigaussError, ValueError):
    """Matrix logarithm hit (or came too close to) the principal branch cut."""


class DegenerateSpectrumError(FermigaussError, ValueError):
    """Eigenvalue pairing is ambiguous; perturb the input and retry."""


class NonConvergenceError(FermigaussError, RuntimeError):
    """A quadrature rule failed its self-consistency (order-doubling) check."""


def _count(value, name: str, error: type[FermigaussError], low: int = 1) -> None:
    """The one rule of every count argument: an integer (numpy's too, not a
    bool) of at least ``low``; otherwise ``error`` naming the argument."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {name} = {value!r}")
    if not value >= low:
        raise error(f"need {name} >= {low}, got {name} = {value!r}")


def _above(value, floor: float, name: str, closed: bool = False) -> None:
    """The one rule of every real parameter: a finite real above ``floor`` (or
    at it, when ``closed``), so a NaN or inf fails; otherwise DomainError."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and (value >= floor if closed else value > floor)):
        raise DomainError(f"domain violation: finite {name} {'>=' if closed else '>'} {floor} required, got {name} = {value}")
