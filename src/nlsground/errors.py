"""Exception types shared across the package.

Every error raised deliberately by this package derives from NlsgroundError,
so callers can distinguish library failures from programming mistakes.
"""


class NlsgroundError(Exception):
    """Base class for all package errors."""


class InvalidSpec(NlsgroundError):
    """Domain or grid specification is degenerate or out of range."""


class GridMismatch(NlsgroundError):
    """Fields living on different grids were combined."""


class NoConvergence(NlsgroundError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class ZeroField(NlsgroundError):
    """An operation that needs a nonzero field received the zero field."""


class NonpositiveQuotient(NlsgroundError):
    """The quadratic form ||grad u||^2 + lambda ||u||^2 is not positive.

    The Nehari normalization is undefined for such fields; this typically
    signals a frequency below the relevant eigenvalue threshold.  For
    sign-changing fields, `part` records which part failed ("plus"/"minus").
    """

    def __init__(self, message: str, part: str | None = None):
        super().__init__(message)
        self.part = part


class LambdaBelowThreshold(NlsgroundError):
    """Frequency at or below the existence threshold; no ground state exists."""


class NotSignChanging(NlsgroundError):
    """A nodal operation received a field without both signs."""


class MassOutOfRange(NlsgroundError):
    """Prescribed mass exceeds the attainable mass threshold."""


class NoBracket(NlsgroundError):
    """The sampled mass curve never reaches the prescribed mass."""


class CertificationFailed(NlsgroundError):
    """A least-energy certification check failed.

    `lam` records the frequency at which the violation was detected.
    """

    def __init__(self, message: str, lam: float | None = None):
        super().__init__(message)
        self.lam = lam


class NotStarShaped(NlsgroundError):
    """Boundary-weighted identities require a star-shaped domain."""


class MassAboveBarMu(NlsgroundError):
    """Prescribed mass exceeds the frequency-bound threshold."""


class NotCritical(NlsgroundError):
    """Operation requires the mass-critical exponent 2 + 4/N."""


class InsufficientRange(NlsgroundError):
    """Asymptotic classification needs a wider frequency range."""
