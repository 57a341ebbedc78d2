"""The base of the package's immutable records.

A record lists its fields in `__slots__` and, in order, in `_fields`,
and sets them once in its own `__init__` with `_init` (or `_set`);
assigning or deleting an attribute afterwards raises AttributeError.
Two records are equal when they are of the same class and their
`_key()`s are equal, and a record hashes as its key: the tuple of its
fields, unless the class narrows it.  Pickling and copying rebuild a
record from its fields.
"""

_set = object.__setattr__


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


def _rebuild(cls, values):
    """A record from its field values, as pickling and copying rebuild it:
    set by the class's `_init`, the values already passed its checks."""
    record = object.__new__(cls)
    record._init(*values)
    return record


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    _key = _values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return _rebuild, (type(self), self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    __setattr__ = __delattr__ = _frozen
