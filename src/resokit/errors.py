"""Exception hierarchy for the toolkit.

Input and physics violations raise DomainError subclasses; fit and
geometry failures raise ExtractionError subclasses so callers can map
them onto the CLI exit codes (1 for input errors, 2 for fit failures).
"""


class ResokitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ResokitError):
    """A value is outside the physically meaningful domain."""


class UnreachableFrequencyError(DomainError):
    """Requested resonance frequency is at or above the zero-area ceiling."""


class SchemaError(ResokitError):
    """A file does not match any supported column schema."""


class TouchstoneFormatError(SchemaError):
    """Touchstone file is missing or has a malformed option line."""


class UnsupportedFormatError(SchemaError):
    """File is syntactically valid but uses an unsupported variant."""


class ConfigError(ResokitError):
    """Run configuration is malformed or out of its sanity window."""


class ExtractionError(ResokitError):
    """Base class for fit and geometry failures."""


class InsufficientDataError(ExtractionError):
    """Too few points for the requested operation."""


class DegenerateGeometryError(ExtractionError):
    """Point set is collinear or coincident; no circle is defined."""


class DegenerateDataError(ExtractionError):
    """Dataset cannot determine the fit parameters (singular system)."""


class RankDeficiencyError(DegenerateDataError):
    """Linear design matrix is rank deficient."""


class FitInstabilityError(ExtractionError):
    """The closed-form phase seed is singular or finds no resonance
    pole."""


class NonphysicalQinError(ExtractionError):
    """Extracted coupling exceeds the loaded loss rate (negative Q_in)."""


class NonphysicalMismatchError(ExtractionError):
    """Fitted circle center lies past the off-resonant point, which puts
    the mismatch angle outside |phi| < pi/2."""


class UnresolvedResonanceError(ExtractionError):
    """The trace does not resolve the fitted resonance: Q_l or |Q_e| has
    a relative error not within MAX_RELATIVE_ERROR, or |Q_e| is infinite."""


class ModelEvaluationError(ExtractionError):
    """Model returned non-finite values during a fit."""
