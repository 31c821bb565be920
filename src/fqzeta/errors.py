"""Exception types shared across the library.

Each error class corresponds to one failure mode the command line maps to an
exit code: validation problems (2), hypothesis failures (3), precision
exhaustion (4), identity mismatches (1).
"""


class FqzetaError(Exception):
    """Base class for all library errors."""


class PrecisionExhausted(FqzetaError):
    """A p-adic certification ran out of guard digits.

    Raised whenever a valuation, zero-test or pivot cannot be certified with
    the configured number of guard digits remaining.  Carries a human-readable
    audit of what was being certified.
    """


class ValidationError(FqzetaError):
    """Malformed input: bad JSON payloads, inconsistent fields, unknown kinds."""


class DegenerateCrystal(FqzetaError):
    """A Frobenius matrix is not invertible over the fraction field."""


class NotTypeI(FqzetaError):
    """The desk Raynaud module has a slope >= 1, so V cannot be topologically nilpotent."""


class MultipleRootError(FqzetaError):
    """q^r (or 1) is a multiple root of the relevant minimal polynomial; z(f) undefined."""


class HypothesisFailed(FqzetaError):
    """A hypothesis of the special-value formula (semisimplicity at q^r)
    failed in some degree."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class BudgetExceeded(FqzetaError):
    """Point enumeration would exceed the configured operation budget."""


class GeneralConeError(FqzetaError):
    """Open-complement cone rule hit a case outside the supported corpus shapes."""
