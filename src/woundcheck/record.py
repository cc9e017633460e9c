"""Value classes whose methods are written out, not generated at import."""


class Record:
    """Fields are the subclass's ``__slots__``, set in its ``__init__`` and
    then left alone (immutable by convention, like FieldElem).  Equal to a
    record of its own class with equal fields; repr Name(field=value, ...)."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
