"""Frozen records: the one base class of the package's record types.

A record class subclasses Record and lists its fields as class
annotations, in order; a field with a class-level value defaults to it.
Record supplies the keyword-or-positional constructor, which calls the
class's __post_init__ (its validation hook), equality and hashing over
the field values in order (an ndarray field by np.array_equal), the
repr Name(field=value, ...), and assignment and deletion that raise
AttributeError.  These methods are ordinary functions shared by every
record, so defining a record class generates no code.  replace(record,
**changes) rebuilds a record through its constructor, so the changed
copy is validated again.

A __post_init__ that normalizes a field stores the new value with
object.__setattr__(self, name, value).
"""

import numpy as np


def _same_field(a, b) -> bool:
    """Identity first, as tuples compare; an ndarray by np.array_equal."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is b or np.array_equal(a, b)
    return a is b or a == b


class Record:
    """Base class of a frozen record whose fields are its annotations."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError("%s() takes %d positional arguments but %d were "
                            "given" % (cls.__name__, len(fields), len(args)))
        values = dict(zip(fields, args))
        for name in kwargs:
            if name in values:
                raise TypeError("%s() got multiple values for argument %r"
                                % (cls.__name__, name))
            if name not in fields:
                raise TypeError("%s() got an unexpected keyword argument %r"
                                % (cls.__name__, name))
        values.update(kwargs)
        missing = [name for name in fields
                   if name not in values and name not in cls._defaults]
        if missing:
            raise TypeError("%s() missing required argument(s): %s"
                            % (cls.__name__, ", ".join(map(repr, missing))))
        state = self.__dict__
        for name in fields:
            state[name] = values[name] if name in values \
                else cls._defaults[name]
        self.__post_init__()

    def __post_init__(self):
        """Validate or normalize the fields; the base accepts any."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_same_field, self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


def replace(record: Record, **changes) -> Record:
    """Copy of `record` with the named fields changed, built by its
    constructor so that __post_init__ validates the copy."""
    values = {name: getattr(record, name) for name in record._fields}
    values.update(changes)
    return type(record)(**values)
