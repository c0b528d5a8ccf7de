"""Immutable records with named fields, built without the dataclasses module.

A record holds its field values, in order, as one tuple, _key, set once by
its hand-written __init__ through set_key; each name in _fields reads one
entry. Equality (with a record of the same type only), hashing and
pickling are one operation on _key, and a pickled copy is rebuilt, so
checked, through __init__. Attribute assignment is refused.
"""


class Record:
    __slots__ = ("_key",)
    _fields: tuple = ()

    def __init_subclass__(cls):
        for i, name in enumerate(vars(cls).get("_fields", ())):
            setattr(cls, name, property(lambda r, i=i: r._key[i]))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key))
        return f"{type(self).__name__}({fields})"


set_key = Record._key.__set__  # the one write a record makes, past its __setattr__
