"""Exception types shared across the package, the default work guards
past which an operation raises GuardExceededError (kept here so that the
CLI's option defaults need no other layer), and `Record`, the base of the
package's immutable value types (kept here because every layer imports
this module)."""

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


# object's own setter, which a record's __init__ stores its fields with
_setattr = object.__setattr__


class Record:
    """A frozen record: a plain slotted class, so that defining one runs
    no generated code and imports nothing.

    A subclass lists its slots, its constructor fields `_fields` in order
    (shown by repr, and passed back to __init__ by pickle, copy and
    `_replace`) and the fields `_compared` that equality and hashing read;
    its __init__ validates and stores each field with `_setattr`.
    Assigning or deleting any attribute raises AttributeError.
    """

    __slots__ = ()
    _fields = _compared = ()

    def _values(self, names) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._compared) == other._values(self._compared)

    def __hash__(self):
        return hash(self._values(self._compared))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self._fields)

    def _replace(self, **changes):
        """A copy with the named fields changed, built (and validated) by
        __init__; an unknown name raises TypeError."""
        values = [changes.pop(name, getattr(self, name)) for name in self._fields]
        return type(self)(*values, **changes)
