"""Exception types shared across the package."""


class CknGBError(Exception):
    """Base class for package-specific errors."""


class ConfigError(CknGBError, ValueError):
    """A configuration value or document violates the schema."""


class OddNUnsupported(ConfigError):
    """BC1 requested for an odd unit count; no perpendicular axis pair exists."""


class NoTieSets(CknGBError):
    """The system admits no minimum tie-set and can never function."""


class CapacityExceeded(CknGBError):
    """A requested computation exceeds the configured size bounds."""


class SingularSystem(CknGBError, ArithmeticError):
    """A linear solve hit a singular matrix."""


class InvariantViolation(CknGBError, ArithmeticError):
    """A built model breaks a structural property its solvers rely on."""


class NonConvergence(CknGBError, ArithmeticError):
    """An iterative evaluation exhausted its term budget before converging."""
