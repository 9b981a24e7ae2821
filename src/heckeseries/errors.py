"""Exception hierarchy shared by all modules."""


class HeckeError(Exception):
    """Base class for every error raised by this package."""


class NotDivisible(HeckeError):
    """Exact division was requested but no exact quotient exists."""


class NotLaurent(HeckeError):
    """A quantity that must be a Laurent polynomial in p is not one."""


class DivisionByZero(HeckeError):
    pass


class VarMismatch(HeckeError):
    """Operands live over different numbers of Satake variables."""


class UnassignedVariable(HeckeError):
    pass


class NonUnitConstantTerm(HeckeError):
    """Series reciprocal needs constant term 1."""


class LengthMismatch(HeckeError):
    pass


class IndexOutOfRange(HeckeError):
    pass


class NotSymmetric(HeckeError):
    """Monomial-basis decomposition found a non-symmetric polynomial."""


class UnsupportedRank(HeckeError):
    """sm_p(r, a) requested for a rank with no wired base case."""


class EnumerationTooLarge(HeckeError):
    """A computation would exceed its size bound (coset candidates, series order)."""


class NonVanishingTail(HeckeError):
    """A series that should be polynomial has nonzero high-order terms."""


class NoSolution(HeckeError):
    pass


class NonUniqueSolution(HeckeError):
    pass


class FunctionalEquationViolated(HeckeError):
    pass
