"""Immutable records: the one base for the package's value classes.

A ``Record`` subclass names its fields in ``__slots__``, after those of
its bases (``_fields``); the constructor takes them in order, and a
subclass with defaults or checks writes its own.  A record cannot be
assigned to, equals a record of its type with equal fields, and prints
as ``Name(field=value, ...)``.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for c in reversed(cls.__mro__) for f in c.__dict__.get("__slots__", ()))

    def __init__(self, *values):
        for f, v in zip(self._fields, values, strict=True):
            object.__setattr__(self, f, v)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return (type(self), *(getattr(self, f) for f in self._fields))

    def __eq__(self, other) -> bool:
        return isinstance(other, Record) and self._key() == other._key()

    def __hash__(self) -> int:
        # fields only: hash(type) is the type's address, not the same in each process
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"
