"""The base of the library's immutable records.

A record is a class with __slots__ and an explicit __init__ that checks
its arguments and then sets every slot once, by _fill.  Record refuses any
later assignment or deletion with AttributeError, prints its slots as
Name(slot=value, ...), and lets pickle and copy rebuild it from its slots
without calling __init__.  A Record compares by identity; a Value compares
and hashes by its slots, in order.
"""
from operator import attrgetter


class Record:
    __slots__ = ()

    def _fill(self, *values) -> None:
        """Set every slot, in order: the last step of an __init__."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # pickle and copy pass (None, {slot: value}), the default state of slots
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)   # the slots, read in C; not a method

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))
