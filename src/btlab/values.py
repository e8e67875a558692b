"""The base of the validated value types: equality by exact type and fields."""


class Value:
    """A value whose ``__slots__`` are its fields, set once by its
    ``__init__`` after validation.  Two values are equal, and hash alike,
    when their exact types and fields agree, so a value never equals a
    tuple, nor a value of another type with the same fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
