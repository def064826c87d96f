"""Immutable slotted records: the base of term nodes, indices and results."""

from __future__ import annotations


class Record:
    """An immutable record whose fields are its classes' ``__slots__``, in
    order.  It is built from positional or keyword fields (``_defaults``
    gives values for fields left out), equal only to a record of the same
    class with equal fields, hashed as its field tuple and shown as
    ``Name(field=value, ...)``.  Assignment raises ``AttributeError``, and
    pickling rebuilds a record through its constructor.

    A class whose records are made in bulk writes its own ``__init__``,
    setting each slot through the slot's descriptor (``Meet.left.__set__``),
    which bypasses the refusing ``__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            values = {**self._defaults, **given, **kwargs}
            if (len(args) > len(fields) or not given.keys().isdisjoint(kwargs)
                    or values.keys() != set(fields)):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
