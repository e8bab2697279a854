"""Named exceptions raised by the library.

Every failure mode that callers are expected to handle gets its own class;
all inherit from HdflowError so scripts can catch the lot.
"""


class HdflowError(Exception):
    pass


class NonInvertible(HdflowError):
    """Matrix is not invertible over the relevant ring (determinant is not a
    unit, or not a unit monomial for Laurent factorizations)."""


class NoSolution(HdflowError):
    """Linear system has no solution over the given ring."""


class NotDivisible(HdflowError):
    """Exact division by p (or a power of p) fails on some coefficient."""


class WrongModulus(HdflowError):
    """Operation only defined at a specific coefficient modulus (e.g. a
    splitting-type computation attempted at m > 1)."""


class ZeroSubsheaf(HdflowError):
    """Saturation of the zero span was requested."""


class TransversalityViolated(HdflowError):
    """Connection does not shift the filtration by at most one step."""


class ExponentTooLarge(HdflowError):
    """Higgs field nilpotency exponent exceeds the bound for the prime."""


class SearchBudgetExceeded(HdflowError):
    """A bounded candidate search (graded isomorphisms, Witt intertwiners)
    hit its budget; carries the bounds."""

    def __init__(self, message, bounds=None):
        super().__init__(message)
        self.bounds = bounds


class SemistableInput(HdflowError):
    """Destabilizer requested for a semistable object."""


class NotNablaSemistable(HdflowError):
    """Canonical filtration requested for a flat bundle that has a
    connection-invariant destabilizing subbundle; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PolicyFiltrationInvalid(HdflowError):
    """Supplied filtration fails validity for the flow step that consumes it."""


class NotPrimitive(HdflowError):
    """Element does not generate the requested field extension."""


class BadMinimalPolynomial(HdflowError):
    """Endomorphism's minimal polynomial does not match the field modulus."""


class CertificateFailed(HdflowError):
    """An exact certificate check failed; `part` names which one broke."""

    def __init__(self, message, part=None):
        super().__init__(message)
        self.part = part


class NotFree(HdflowError):
    """Chart module is not free; local constructions need a basis."""


class LevelTooHigh(HdflowError):
    """Nilpotency/quasi-nilpotency level exceeds the construction's bound."""


class TruncationBoundExceeded(HdflowError):
    """Taylor gluing needed terms beyond the static truncation bound."""


class NoLiftedFiltration(HdflowError):
    """No filtration lifting the given one exists among the searched data."""
