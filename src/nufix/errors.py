"""Exception types shared across the package."""


class NufixError(Exception):
    """Base class for all nufix errors."""


class DuplicateElement(NufixError):
    pass


class CycleDetected(NufixError):
    pass


class BottomNotLeast(NufixError):
    pass


class NotPointed(NufixError):
    pass


class DomainMismatch(NufixError):
    pass


class EpLawViolation(NufixError):
    pass


class SizeCapExceeded(NufixError):
    pass


class ElementCapExceeded(NufixError):
    pass


class ExprSyntaxError(NufixError):
    pass


class VarianceError(NufixError):
    pass


class UnknownConstant(NufixError):
    pass


class BackendMismatch(NufixError):
    pass


class NotCovariant(NufixError):
    pass


class NotStabilized(NufixError):
    pass


class DepthMismatch(NufixError):
    pass


class ValueSetMismatch(NufixError):
    pass


class NotEquivalence(NufixError):
    pass


class NotABisimulation(NufixError):
    pass


class InstanceMismatch(NufixError):
    pass


class SearchBudgetExceeded(NufixError):
    """A search ran out of its work budget before it could decide."""


class InputError(NufixError):
    """Malformed file or CLI input."""
