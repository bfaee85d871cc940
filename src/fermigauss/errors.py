"""Exception types shared across the package."""


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
