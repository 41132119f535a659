"""Immutable value types that run no generated code when the package loads.

A ``Record`` subclass writes its own ``__init__``, whose parameters name its
fields in order, and stores each field with ``set_field``.  ``Record``
supplies what a frozen dataclass would: equality within one class, a hash
and a repr over the fields, pickling through the constructor, and an
AttributeError on assignment or deletion.  ``functools.cached_property``
still caches on a record, since it writes the instance ``__dict__`` directly.
"""

from __future__ import annotations

# Stores one field past Record.__setattr__, as a frozen dataclass does.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
