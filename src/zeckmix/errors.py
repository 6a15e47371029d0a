"""Exception types shared across the package, and the default work guards
past which an operation raises GuardExceededError (kept here so that the
CLI's option defaults need no other layer)."""

# largest word set an enumerating operation may build (substitution, language)
DEFAULT_SET_GUARD = 10**6
# largest horizon `check_empirical` searches (semimixing)
HORIZON_GUARD = 200


class ZeckmixError(Exception):
    """Base class for all library-specific errors."""


class GuardExceededError(ZeckmixError):
    """An enumeration or search would exceed its configured resource guard."""


class DigitRuleError(ZeckmixError, ValueError):
    """A digit string violates the numeration scheme's digit rule."""


class NonPrimitiveMatrixError(ZeckmixError, ValueError):
    """Matrix is not primitive (no power is strictly positive)."""


class StructureError(ZeckmixError, ValueError):
    """A substitution lacks the structural property an operation requires."""


class IllegalWordError(ZeckmixError, ValueError):
    """A word required to be legal is not in the subshift language."""


class UnsupportedFamilyError(ZeckmixError, ValueError):
    """The requested operation does not support this substitution family."""
