"""Records: classes declared by their annotated fields.

``@record`` gives a class the ``__init__``, ``__eq__``, ``__hash__`` and
``__repr__`` a dataclass would have, and with ``frozen=True`` a
``__setattr__`` and ``__delattr__`` that refuse.  The methods are closures
made once per class over its field names; no source text is compiled.  A
method the class body defines is kept, so a value class on a hot path
writes its own.

- The fields are the class's annotated names, in order.  A class
  attribute of the same name is that field's default.
- ``__init__`` takes the fields positionally or by name and then calls
  ``__post_init__`` when the class has one.
- ``repr`` is ``QualName(field=value, ...)`` over every field not named
  in ``omit_repr``.
- ``==`` holds only between instances of one class, when their field
  tuples are equal, and ``hash`` is the hash of that tuple.  A frozen
  record is hashable; a mutable one is not.  ``eq=False`` keeps
  identity for both.
"""

from __future__ import annotations

import operator

_MISSING = object()
_setattr = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def record(cls=None, /, *, frozen: bool = False, eq: bool = True,
           omit_repr: tuple = ()):
    """Decorate ``cls`` (or return a decorator) as described in the module."""
    if cls is None:
        return lambda c: _make(c, frozen, eq, omit_repr)
    return _make(cls, frozen, eq, omit_repr)


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with ``changes``, built by its ``__init__``."""
    for name in obj._fields:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return type(obj)(**changes)


def _make(cls, frozen, eq, omit_repr):
    own = cls.__dict__
    names = tuple(own.get("__annotations__", {}))
    defaults = {n: own[n] for n in names if n in own}
    cls._fields = names
    n = len(names)
    post = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls.__qualname__, names, defaults, args, kwargs)
        # one attribute at a time, in order, keeps the instance's compact
        # attribute layout, which writing ``__dict__`` would give up
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post is not None:
            post(self)

    def __repr__(self):
        shown = ", ".join(f"{k}={getattr(self, k)!r}" for k in visible)
        return f"{type(self).__qualname__}({shown})"

    visible = tuple(k for k in names if k not in omit_repr)
    methods = {"__init__": __init__, "__repr__": __repr__}
    if eq:
        get = operator.attrgetter(*names)
        values = get if n > 1 else (lambda obj: (get(obj),))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        methods["__eq__"] = __eq__
        if own.get("__hash__") is None:  # absent, or None beside an own __eq__
            cls.__hash__ = __hash__ if frozen else None
    if frozen:
        def __setattr__(self, name, *value):
            raise FrozenInstanceError(f"cannot assign to field {name!r}")

        methods["__setattr__"] = methods["__delattr__"] = __setattr__
    for name, fn in methods.items():
        if name not in own:
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
    return cls


def _bind(qualname, names, defaults, args, kwargs) -> list:
    # the slow path of ``__init__``: keywords, defaults and refusals
    if len(args) > len(names):
        raise TypeError(f"{qualname}() takes {len(names)} arguments "
                        f"but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        value = kwargs.pop(name, defaults.get(name, _MISSING))
        if value is _MISSING:
            raise TypeError(f"{qualname}() missing argument {name!r}")
        values.append(value)
    if kwargs:
        raise TypeError(f"{qualname}() got unexpected or repeated "
                        f"arguments {sorted(kwargs)}")
    return values
