"""Frozen records: the part of `dataclasses` this package uses.

Every value type in the package is an immutable record of named fields.
`dataclasses` would do, but importing it loads `inspect` (and with it
`ast`, `dis` and `tokenize`), and every decorated class compiles its
generated methods through `exec`; on the command-line path that is most
of the package's import time, paid again by every short invocation.
This base defines the same methods once, for all records.

A subclass lists its fields as class annotations, in order; a class
attribute of the same name is that field's default.  The fields are the
keys of cls.__annotations__, which from Python 3.10 on holds the class's
own annotations only; from 3.14 on a class keeps them behind
__annotate__, and its __dict__ need not hold __annotations__ at all.  A
default is shared between instances, so a mutable default must be copied
in __post_init__.  __post_init__ may normalize fields through
object.__setattr__.  Instances keep a __dict__, so
functools.cached_property works on them; cached values are not fields
and never enter equality, hashing or repr.

A field may be kept in another form than the one it is read in: when
the class also binds the field's name to a property or a
cached_property (a view), the field's value is stored at "_" + name,
where __post_init__ may normalize it, and the view reads it from there.
Equality, hashing and replace work on the stored values, so a stored
form must be one the constructor takes; repr shows the views.

>>> class Point(Record):
...     x: int
...     y: int = 0
>>> p = Point(1)
>>> p, p == Point(x=1, y=0), p.replace(y=2)
(Point(x=1, y=0), True, Point(x=1, y=2))
"""

from functools import cached_property
from operator import attrgetter

_MISSING = object()


class Record:
    _fields: tuple[str, ...] = ()
    #: the name each field's value is stored under ("_" + a view's name)
    _stored: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        views = {name for name in own if isinstance(
            cls.__dict__.get(name), (property, cached_property))}
        cls._fields = cls._fields + own
        cls._stored = cls._stored + tuple(
            "_" + name if name in views else name for name in own)
        cls._defaults = {**cls._defaults, **{
            name: cls.__dict__[name] for name in own
            if name in cls.__dict__ and name not in views}}
        # the tuple of stored field values, at C speed (attrgetter of one
        # name returns the bare value)
        getter = attrgetter(*cls._stored)
        cls._values = staticmethod(getter if len(cls._stored) > 1
                                   else lambda record: (getter(record),))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._complete(args, kwargs)
        d = self.__dict__
        for name, value in zip(self._stored, args):
            d[name] = value
        self.__post_init__()

    def _complete(self, args: tuple, kwargs: dict) -> list:
        """All field values, in order, from a call with keywords or with
        defaulted fields left out."""
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated "
                                f"argument {key!r}")
            values[key] = value
        out = []
        for field in fields:
            value = values.get(field, self._defaults.get(field, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{name}() missing argument {field!r}")
            out.append(value)
        return out

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{field}={getattr(self, field)!r}"
                          for field in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def replace(self, **changes):
        """A copy with some fields changed; __post_init__ runs again."""
        return type(self)(**{**dict(zip(self._fields, self._values(self))),
                             **changes})
