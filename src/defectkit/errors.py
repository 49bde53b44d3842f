"""Exception types raised by the analysis modules."""


class DefectKitError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(DefectKitError):
    """A domain object was constructed with inconsistent parameters."""


class DegenerateSystemError(DefectKitError):
    """The kinetic system has no meaningful solution (e.g. all rates zero)."""


class FitDegenerateError(DefectKitError):
    """The normal equations of a least-squares fit are singular."""


class ConvergenceError(DefectKitError):
    """An iterative solver did not converge; carries the last iterate."""

    def __init__(self, message, last_iterate=None, diagnostics=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.diagnostics = diagnostics


class DivergenceError(DefectKitError):
    """An iteration diverged; carries the best iterate seen so far."""

    def __init__(self, message, best_iterate=None, diagnostics=None):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.diagnostics = diagnostics


class InconsistentFitError(DefectKitError):
    """Fitted correlation parameters admit no physical rate solution."""


class InvalidFitError(DefectKitError):
    """Fitted correlation parameters imply unphysical decay constants."""


class SingularGeometryError(DefectKitError):
    """Orbital geometry puts two electrons at coincident positions."""


class SchemaError(DefectKitError):
    """An input file does not match its declared dataset schema."""
