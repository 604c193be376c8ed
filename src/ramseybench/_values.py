"""Frozen value classes, without runtime code generation.

``value`` turns a class whose body annotates its fields into an immutable
record that behaves as ``dataclasses.dataclass(frozen=True)`` would make
it: the same positional and keyword ``__init__`` with plain defaults,
then ``__post_init__``; the same ``repr``; ``==`` between instances of
one class only; ``hash`` of the tuple of hashed fields; with
``order=True``, tuple ordering; assignment and deletion of attributes
raise ``FrozenInstanceError``.  Instances keep a ``__dict__``, so
``functools.cached_property`` works on them.

The methods are closures over the class's field names, built with
``operator.attrgetter``.  ``dataclasses`` writes each method as source
text and compiles it for every class on every start, and imports
``inspect`` to do so; a CLI call loads up to two dozen value classes, and
that compiling cost more than the call's own work.  Only what this
package's classes use is supported: ``order``, per-field ``compare`` and
``hash`` through ``field``, and plain defaults.  Fields are the class's
own annotations; a value class does not inherit fields.
"""

from operator import attrgetter

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion from, a value instance."""


class Field:
    """How one field takes part in ``==``, ordering and ``hash``."""

    __slots__ = ("default", "compare", "hash")

    def __init__(self, default=_MISSING, compare=True, hash=True):
        self.default = default
        self.compare = compare
        self.hash = hash


def field(*, compare=True, hash=True) -> Field:
    """A required field left out of ``==``, ordering and ``hash``
    (``compare=False``) or out of ``hash`` alone (``hash=False``)."""
    return Field(_MISSING, compare, hash)


def _tuple_getter(names):
    """obj -> the tuple of obj's attributes ``names``."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _quoted(names) -> str:
    """'a'; 'a' and 'b'; 'a', 'b', and 'c', as the interpreter lists them."""
    quoted = [repr(n) for n in names]
    if len(quoted) < 3:
        return " and ".join(quoted)
    return ", ".join(quoted[:-1]) + ", and " + quoted[-1]


def _bind(where, names, defaults, args, kwargs) -> list:
    """The field values of a call with keywords or a short or long
    argument list, or the interpreter's TypeError for a bad call."""
    values = dict(zip(names, args))
    for key, v in kwargs.items():
        if key not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {key!r}")
        if key in values:
            raise TypeError(f"{where} got multiple values for argument {key!r}")
        values[key] = v
    if len(args) > len(names):
        most = len(names) + 1
        takes = f"from {most - len(defaults)} to {most}" if defaults else str(most)
        plural = "s" if defaults or most != 1 else ""
        raise TypeError(f"{where} takes {takes} positional argument{plural} "
                        f"but {len(args) + 1} were given")
    missing = [n for n in names if n not in values and n not in defaults]
    if missing:
        plural = "s" if len(missing) > 1 else ""
        raise TypeError(f"{where} missing {len(missing)} required positional "
                        f"argument{plural}: {_quoted(missing)}")
    return [values[n] if n in values else defaults[n] for n in names]


def _methods(cls, names, defaults, compared, hashed, order) -> dict:
    where = f"{cls.__qualname__}.__init__()"
    count = len(names)
    post = hasattr(cls, "__post_init__")
    every, key, hash_key = map(_tuple_getter, (names, compared, hashed))
    namelist = frozenset(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(where, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post:
            self.__post_init__()

    def __repr__(self):
        shown = ", ".join([f"{n}={v!r}" for n, v in zip(names, every(self))])
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(hash_key(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in namelist:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in namelist:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = [__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__]
    if order:
        def __lt__(self, other):
            if other.__class__ is self.__class__:
                return key(self) < key(other)
            return NotImplemented

        def __le__(self, other):
            if other.__class__ is self.__class__:
                return key(self) <= key(other)
            return NotImplemented

        def __gt__(self, other):
            if other.__class__ is self.__class__:
                return key(self) > key(other)
            return NotImplemented

        def __ge__(self, other):
            if other.__class__ is self.__class__:
                return key(self) >= key(other)
            return NotImplemented

        methods += [__lt__, __le__, __gt__, __ge__]
    return {fn.__name__: fn for fn in methods}


def value(cls=None, /, *, order: bool = False):
    """Make ``cls`` a frozen value class; use as ``@value`` or
    ``@value(order=True)``.

    The fields are the annotations of the class body, in order.  A field
    assigned ``field(...)`` is required; one assigned any other value
    takes it as its default, and no required field may follow a default.
    The class records its fields as ``__value_fields__``, a dict from
    name to ``Field``, and ``order`` as ``__value_order__``.
    """
    if cls is None:
        return lambda c: value(c, order=order)
    fields = {}
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if isinstance(spec, Field):
            delattr(cls, name)
        else:
            spec = Field(spec)
        if spec.default is _MISSING and any(
                f.default is not _MISSING for f in fields.values()):
            raise TypeError(f"non-default field {name!r} follows a default field")
        fields[name] = spec
    names = tuple(fields)
    defaults = {n: f.default for n, f in fields.items() if f.default is not _MISSING}
    compared = tuple(n for n, f in fields.items() if f.compare)
    hashed = tuple(n for n, f in fields.items() if f.compare and f.hash)
    for name, fn in _methods(cls, names, defaults, compared, hashed, order).items():
        if name in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} defines its own {name}")
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__value_fields__ = fields
    cls.__value_order__ = order
    return cls
