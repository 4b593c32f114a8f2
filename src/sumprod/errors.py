"""Exception types shared by all workbench modules, and the size-guard check."""

import os


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class CompositeModulus(WorkbenchError):
    """The requested modulus is not prime."""


class ModulusTooSmall(WorkbenchError):
    """The requested modulus is below 3."""


class FieldMismatch(WorkbenchError):
    """Operands live over different prime fields."""


class EmptyOperand(WorkbenchError):
    """An operation received an empty set where a nonempty one is required."""


class TooSmall(WorkbenchError):
    """The input set is too small for the requested operation."""


class ZeroDilation(WorkbenchError):
    """Dilation by zero is not a bijection and is rejected."""


class GuardExceeded(WorkbenchError):
    """A desk-scale size guard was exceeded (set SPW_GUARD_OVERRIDE=1 to lift)."""


class BadEpsilon(WorkbenchError):
    """epsilon must lie strictly between 0 and 1."""


class RatioSetFull(WorkbenchError):
    """The ratio set equals the whole field; the caller must use the xi route."""


class EmptyDecomposition(WorkbenchError):
    """The bucket decomposition has no nonempty bucket."""


class BadParameters(WorkbenchError):
    """Search parameters are out of range."""


class InvariantViolated(WorkbenchError):
    """An exact invariant failed; unlike an assert, this survives python -O."""


def check(condition: bool, message: str) -> None:
    """Raise InvariantViolated(message) unless condition holds."""
    if not condition:
        raise InvariantViolated(message)


def _check_guard(condition: bool, message: str) -> None:
    """Raise GuardExceeded(message) unless condition holds or SPW_GUARD_OVERRIDE=1."""
    if not condition and os.environ.get("SPW_GUARD_OVERRIDE") != "1":
        raise GuardExceeded(message)
