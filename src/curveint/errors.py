"""Exception hierarchy.

Every detectable failure mode gets its own class so callers (and the CLI
exit-code mapping) can distinguish bad input, verification failures, and
exhausted randomness/precision budgets.
"""


class CurveIntError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(CurveIntError):
    """Malformed or out-of-contract argument."""


class ParseError(InvalidInputError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class DegreeMixError(InvalidInputError):
    """Affine and homogeneous variables mixed, or inhomogeneous input
    declared homogeneous."""


class UnsupportedExtensionError(InvalidInputError):
    """A coordinate or coefficient does not live in a representable field
    (only one extension step over Q or F_p is supported)."""


class InvalidDegreeError(InvalidInputError):
    """Homogenization target degree smaller than the total degree."""


class NotAUnitError(CurveIntError):
    """Series inversion requested for a series of positive valuation."""


class NotSimpleRootError(CurveIntError):
    """Hensel lifting requested at a residual root where the derivative
    vanishes."""


class NotRegularError(CurveIntError):
    """The input vanishes identically on the reference axis; the caller
    must shear first."""


class NothingToPrepareError(CurveIntError):
    """Weierstrass preparation of a local unit (nonzero constant term)."""


class NotSpecializableError(CurveIntError):
    """Specialization of a series with a negative-valuation coordinate."""


class InsufficientPrecisionError(CurveIntError):
    """Retryable: the truncation order was too small for a certificate to
    decide.  The caller picks the next precision
    (``deformation._attempts`` doubles it)."""


class GeneralPositionError(CurveIntError):
    """The shear search exhausted its budget; ``tried`` lists attempts."""

    def __init__(self, message, tried=()):
        self.tried = list(tried)
        super().__init__(message)


class GenericityFailureError(CurveIntError):
    """All reseed attempts produced a deformation direction that failed the
    genericity certificates."""


class ZeroToPrecisionError(GenericityFailureError):
    """A value that a genericity certificate needs nonzero is zero to
    working precision; a higher precision may show a nonzero term."""


class SharedComponentError(InvalidInputError):
    """The two curves have a common component."""


class InfiniteMultiplicityError(CurveIntError):
    """The curves share a component through the reference point."""


class BudgetError(CurveIntError):
    """An iteration cap was reached before a stable answer emerged."""


class VerificationFailureError(CurveIntError):
    """Engine disagreement or a Bezout total mismatch; carries the report."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)
