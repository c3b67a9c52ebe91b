"""Exception taxonomy shared by all modules.

Every failure mode that callers are expected to handle gets its own class so
tests (and the CLI's machine-readable error objects) can discriminate without
string matching.
"""


class RegtangError(Exception):
    """Base class for all package errors."""


# --- field / classification errors -----------------------------------------

class DomainError(RegtangError):
    """A point lies outside the domain where a map or expansion is defined."""


class UnresolvedContact(RegtangError):
    """All Lie derivatives up to the requested order are below tolerance."""


class DegenerateDenominator(RegtangError):
    """The sliding-field denominator X^-h - X^+h is numerically zero."""


class OutOfRange(RegtangError):
    """Argument outside the invertibility range of the transition function."""


class ClassMismatch(RegtangError):
    """phi^{(n)}(1) = 0, so phi is not of the claimed smoothness class."""


class BadValuation(RegtangError):
    """A polynomial does not vanish to the required order at the origin."""


# --- integration errors -----------------------------------------------------

class StepSizeUnderflow(RegtangError):
    """The adaptive integrator could not resolve the requested tolerance."""


class DomainExit(RegtangError):
    """A trajectory left the admissible region: the state a run kept at time
    ``t`` (``point``) lies beyond the integrator's max-norm bound."""

    def __init__(self, message, t=None, point=None):
        super().__init__(message)
        self.t = t
        self.point = point


class NoCrossing(RegtangError):
    """No admissible section crossing happened within max_time."""


class TangentialGraze(NoCrossing):
    """No admissible crossing: the section residual touched zero without
    changing sign."""

    def __init__(self, message, t=None, point=None):
        super().__init__(message)
        self.t = t
        self.point = point


# --- regularization / slow-manifold errors ----------------------------------

class ConditionViolated(RegtangError):
    """An input breaks a precondition of the analysis: a parameter out of
    its range (k < 1, n below max(2, 2k - 1), lambda outside (0, lambda*),
    rho or theta too large, ...), a switching function other than h = y where
    band coordinates need it, an empty grid or too few samples for a fit, or
    a non-finite time span."""


class TransientNotDecayed(RegtangError):
    """The slow-manifold proxy trajectory has not locked on before the check grid."""


# --- transition-map errors ----------------------------------------------------

class NoExit(RegtangError):
    """The band trajectory failed to reach the exit edge within max_time."""


class NoRoot(RegtangError):
    """Root bracketing failed for the tangency curve."""


class LeftWindow(RegtangError):
    """A trajectory escaped the working window of the local analysis."""


class SlidingCapture(RegtangError):
    """A layer orbit never departed through yhat = 1: the band leg found no
    upward crossing of the layer's top edge."""


class NoReturn(RegtangError):
    """The orbit did not come back to the section (mirror/return map)."""


class NonPositiveQuantity(RegtangError):
    """A quantity that must be positive is not: eps <= 0, or a non-positive
    sample given to a log-log regression."""


# --- cycle errors -------------------------------------------------------------

class NoBracket(RegtangError):
    """The return-map displacement does not change sign on the bracket."""


class NotConverged(RegtangError):
    """Fixed-point iteration exceeded its iteration budget."""


class MaxRevolutions(RegtangError):
    """The return map exceeded its revolution budget without closing."""
