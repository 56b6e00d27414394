"""Immutability for the value classes that are not NamedTuples.

A class that derives from :class:`Frozen` refuses attribute assignment and
deletion, as a frozen dataclass does, and writes its own ``__init__``,
``__eq__``, ``__hash__`` and ``__repr__``.  Its ``__init__`` sets each field
with ``object.__setattr__``, which goes past the refusal.  Its ``__slots__``
are its constructor's parameters in order, so that copies and pickles are
rebuilt by calling the class; a class without them overrides
``__reduce__``.
"""

__all__ = ["Frozen"]


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(map(self.__getattribute__, self.__slots__))
