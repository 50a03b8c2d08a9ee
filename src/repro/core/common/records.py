"""Frozen records built through their slots.

Everything the per-message path allocates — messages, effects, outcomes,
dependencies, operations, envelopes, checker records — is an immutable
record.  ``@dataclass(frozen=True)`` makes such a value cost more than it
carries: its generated ``__init__`` stores every field through
``object.__setattr__`` (the frozen class's own ``__setattr__`` refuses), and
every instance drags a ``__dict__``.  :func:`record` is
``dataclass(frozen=True, slots=True)`` whose ``__init__`` is compiled once
per class to store each field straight through its slot's member
descriptor.  Everything else is the dataclass's own: signature, defaults,
``default_factory``, ``__post_init__``, ``__eq__`` / ``__hash__`` /
``__repr__``, ``dataclasses.replace``, pickling, and assignment raising
``FrozenInstanceError``.

:func:`interned` is a record a cluster has few values of and looks up in
every routing table (its addresses): ``cls(*fields)`` returns the one
instance of that value, so a route built from one construction and a lookup
key built from another meet in the dictionary's identity test, never in
``__eq__``.  Equality and hashing stay by value — once a class holds
:data:`MAX_INTERNED` instances, construction hands out fresh, equal ones —
and a pickled or copied instance is interned again on the way back.

``slots=True`` re-creates the class, so methods of a record must not use
zero-argument ``super()`` (its cell still names the discarded class).
"""

from __future__ import annotations

import dataclasses

#: Instances one :func:`interned` class keeps: a cluster's address space is
#: closed and small, and a stream of fresh values must not grow the table.
MAX_INTERNED = 4096


def record(cls: type) -> type:
    """``@dataclass(frozen=True, slots=True)``, built through its slots."""
    return _build(cls, interned=False)


def interned(cls: type) -> type:
    """A :func:`record` with one instance per value (see the module doc)."""
    return _build(cls, interned=True)


def _build(cls: type, interned: bool) -> type:
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    generated = cls.__init__.__code__
    if (generated.co_kwonlyargcount
            or generated.co_varnames[1:generated.co_argcount] != names):
        raise TypeError(f"{cls.__name__}: a record's fields are positional "
                        f"__init__ parameters (no init=False, kw_only or "
                        f"InitVar)")
    namespace = {"MISSING": dataclasses.MISSING, "NEW": object.__new__,
                 "TABLE": {}, "MAX": MAX_INTERNED}
    params, stores = [], []
    for i, f in enumerate(fields):
        # The field's member descriptor: its ``__set__`` writes the slot
        # without passing through the frozen ``__setattr__``.
        namespace[f"set{i}"] = getattr(cls, f.name).__set__
        value = f.name
        if f.default_factory is not dataclasses.MISSING:
            namespace[f"factory{i}"] = f.default_factory
            params.append(f"{f.name}=MISSING")
            value = f"factory{i}() if {f.name} is MISSING else {f.name}"
        elif f.default is not dataclasses.MISSING:
            namespace[f"default{i}"] = f.default
            params.append(f"{f.name}=default{i}")
        else:
            params.append(f.name)
        stores.append(f"set{i}(self, {value})")
    if hasattr(cls, "__post_init__"):
        stores.append("self.__post_init__()")
    if interned:
        key = "".join(f"{name}, " for name in names)
        source = [f"def __new__(cls, {', '.join(params)}):",
                  f"    self = TABLE.get(({key}))",
                  "    if self is None:",
                  "        self = NEW(cls)",
                  *("        " + store for store in stores),
                  "        if len(TABLE) < MAX:",
                  f"            TABLE[({key})] = self",
                  "    return self",
                  "def __reduce__(self):",
                  "    return type(self), ("
                  + "".join(f"self.{name}, " for name in names) + ")"]
    else:
        source = [f"def __init__(self, {', '.join(params)}):",
                  *("    " + store for store in stores or ["pass"])]
    exec(compile("\n".join(source), f"<record {cls.__qualname__}>", "exec"),
         namespace)
    for name in ("__init__", "__new__", "__reduce__"):
        if name in namespace:
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    if interned:
        # ``__new__`` builds the instance; ``object.__init__`` ignores the
        # arguments of a class that overrides ``__new__``.
        del cls.__init__
        cls.__new__ = staticmethod(namespace["__new__"])
        cls.__reduce__ = namespace["__reduce__"]
    else:
        cls.__init__ = namespace["__init__"]
    return cls


__all__ = ["MAX_INTERNED", "interned", "record"]
