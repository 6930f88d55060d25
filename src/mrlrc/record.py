"""Value records for the package's result and parameter types.

They stand in for dataclasses, whose import pulls `inspect`, `ast` and
`dis` into the start-up of every command.
"""


class Record:
    """A record whose fields are its ``__slots__``, in order.

    Each subclass defines ``__init__`` over its fields.  Records are
    equal when their classes and field values are, show every field in
    their repr, and are unhashable, as a mutable dataclass is.
    """

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A record whose fields are set once, by ``_set`` in ``__init__``;
    hashable by value, as a frozen dataclass is."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
