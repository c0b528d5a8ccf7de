"""Immutable records with named fields, built without the dataclasses module.

A record holds its field values, in order, as one tuple, _key, set once by
Record.__init__; each name in _fields reads one entry. A record type that
checks or defaults its fields does so in its own __init__ and ends in
super().__init__. Equality (with a record of the same type only), hashing
and pickling are one operation on _key, and a pickled copy is rebuilt, so
checked, through __init__. The hash is kept in _hash after the first call,
so a memo key holding a whole expression tree hashes it once. Attribute
assignment is refused.
"""


class Record:
    __slots__ = ("_key", "_hash")
    _fields: tuple = ()

    def __init_subclass__(cls):
        for i, name in enumerate(vars(cls).get("_fields", ())):
            setattr(cls, name, property(lambda r, i=i: r._key[i]))

    def __init__(self, *values, **named):
        """Field values by position, then by name, in _fields order."""
        fields = self._fields
        if named and named.keys() == set(fields[len(values):]):
            values += tuple(named[f] for f in fields[len(values):])
        elif named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes each of {fields} once,"
                            " by position then by name")
        _set_key(self, values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # the first call; a key that cannot hash raises every time
            _set_hash(self, hash(self._key))
            return self._hash

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key))
        return f"{type(self).__name__}({fields})"


# the two writes a record makes, past its __setattr__
_set_key, _set_hash = Record._key.__set__, Record._hash.__set__
