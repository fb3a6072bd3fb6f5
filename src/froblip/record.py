"""Immutable value records.  A subclass lists its fields in ``_fields``
and stores them with ``_set`` from its own ``__init__``; records compare,
hash and print by those fields.  Fields live in the instance ``__dict__``,
where ``functools.cached_property`` keeps its values too."""


class Record:
    _fields = ()

    def _set(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={self.__dict__[name]!r}" for name in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
