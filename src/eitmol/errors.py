"""Exception hierarchy shared across the package."""


class EitmolError(Exception):
    """Base class for all package-specific errors."""


class SingularSystem(EitmolError):
    """Steady-state linear system is singular (w = 0 or pathological input)."""


class QuadratureNotConverged(EitmolError):
    """Velocity average failed the doubled-node refinement check."""


class UnphysicalSignal(EitmolError):
    """Scan produced a non-finite or clearly negative population signal."""


class NoDipFound(EitmolError):
    """Spectrum has no local minimum between its two largest peaks."""


class FewerThanTwoPeaks(EitmolError):
    """Spectrum does not contain two resolvable peaks."""


class ParseError(EitmolError):
    """Config or data file is syntactically malformed."""

    def __init__(self, message, path=None, line=None, column=None):
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
            if column is not None:
                loc += f":{column}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line
        self.column = column


class ValidationError(EitmolError):
    """Config file content violates the schema (unknown or missing key)."""


class UnitError(EitmolError):
    """Value carries a missing, unknown, or dimensionally wrong unit suffix."""
