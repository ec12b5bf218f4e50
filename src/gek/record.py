"""Immutable slotted value records, without ``dataclasses``.

``dataclasses`` imports ``inspect``, which costs a cold ``gek`` command 8-15 ms
it never uses, so every record of ``gek`` derives from ``Record`` instead.  A
subclass names its fields in ``__slots__``, in constructor order.  ``Record.__init__`` takes one value per field, in that
order, and sets them; a subclass that checks or converts its arguments does so
in its own ``__init__`` and then calls ``super().__init__``.  ``Record`` gives
it what ``@dataclass(frozen=True)`` gave: equality between records of one
class, the hash of the field tuple, the ``Name(field=value, ...)`` repr, and an
``AttributeError`` on assignment or deletion.  A subclass with a slot that is
derived from the others, not part of its value, overrides ``_fields`` and
``__repr__`` to leave it out.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *values) -> None:
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} values {names}, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, which validates again
        return type(self), self._fields()
