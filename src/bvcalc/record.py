"""The shared base of the package's record types.

A record sets its fields once, in a written-out `__init__`, and no code
changes them afterwards: records are immutable by convention, as
`PolyElement` and `Multivector` are.  Two records are equal when they
have the same class and equal `_fields`, and `hash` and `repr` read the
same fields, so an attribute outside `_fields` (a cache filled on first
use) takes no part in any of them.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
