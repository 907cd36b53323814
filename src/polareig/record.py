"""The base of the package's frozen value classes.

A subclass names its fields as class annotations, in order, after those of
its parent (a subclass that names none only adds methods).  Instances are
built by position or keyword, compare and hash by the tuple of their field
values (``_asdict()`` gives them by name), print as
``Name(field=value, ...)`` and refuse assignment and deletion.  They keep an
instance ``__dict__``, so ``functools.cached_property`` works on them.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        if not own:  # a subclass that names no field keeps its parent's
            return
        cls._fields = fields = cls._fields + own
        get = attrgetter(*fields)
        cls._astuple = get if len(fields) > 1 else lambda self: (get(self),)
        # an __init__ compiled per class: a real signature (position or
        # keyword, the usual TypeError) and one object.__setattr__ per field,
        # which, unlike filling self.__dict__, keeps attribute reads fast
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        scope = {}
        exec(f"def __init__(self, {', '.join(fields)}):{body}",
             {"_set": object.__setattr__}, scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def _asdict(self) -> dict:
        """The fields by name, in declaration order."""
        return dict(zip(self._fields, self._astuple(self)))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}"
                         for name, value in zip(self._fields, self._astuple(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
