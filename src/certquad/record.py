"""Immutable value records, the base of every certquad result type.

Not dataclasses: importing ``dataclasses`` pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``, and each decoration compiles six methods; that
was most of a ``certquad`` process's start-up.  A subclass lists its
fields in ``__slots__``, trailing defaults in ``_defaults``, and may
override ``__post_init__``, which every construction calls.  A record
with caches names its fields in ``_fields`` and adds a slot per cache for
``__post_init__`` to fill.  Equality and hash by field tuple (the
frozen-dataclass hash), the dataclass repr and pickling see fields only;
every slot is read-only.  No metaclass, so a failing ``isinstance`` stays
fast; no instance ``__dict__``, so attribute loads stay specialised.
"""


class Record:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        # each slot's own setter skips the attribute lookup of object.__setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        i = 0
        for setter in setters:
            setter(self, args[i])
            i += 1
        self.__post_init__()

    def _bind(self, args, kwargs):
        """Field values of a keyword, defaulted or malformed call."""
        fields, where = self._fields, f"{type(self).__qualname__}()"
        if len(args) > len(fields):
            raise TypeError(f"{where} takes {len(fields)} positional arguments, got {len(args)}")
        given = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
        values = {**self._defaults, **given, **kwargs}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{where} missing required arguments: {', '.join(missing)}")
        return [values[name] for name in fields]

    def __post_init__(self):
        pass

    def _astuple(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._astuple()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
