"""Shared helpers of the wire tests: values derived from the codec's own plan.

Nothing here lists message types or fields by hand.  Samples and hypothesis
strategies are built from :func:`repro.wire.codec.field_plan` — the same
per-type description the codec compiles — over
:func:`~repro.wire.codec.registered_wire_types`, so a message type added
later is covered by the round-trip, golden and fuzz tests without touching
them.
"""

import dataclasses

import pytest
from hypothesis import settings, strategies as st

# Importing these registers every runtime-internal wire type (addresses,
# envelopes, control plane, checker records, trace events).
import repro.obs.events  # noqa: F401
import repro.runtime.process  # noqa: F401
from repro.wire.codec import field_plan, registered_wire_types

#: Reproducible in tier-1; ``max_examples`` comes from the loaded hypothesis
#: profile (the nightly job loads one with ten times the default).
WIRE_SETTINGS = settings(derandomize=True, deadline=None)

WIRE_TYPES = registered_wire_types()
#: ``@EVERY_TYPE``: one test per registered class, as argument ``cls``.
EVERY_TYPE = pytest.mark.parametrize("cls", WIRE_TYPES,
                                     ids=lambda cls: cls.__name__)
INT64 = st.integers(-(2 ** 63), 2 ** 63 - 1)
TEXT = st.text(max_size=24)

#: Values of the generic walker: what a ``value`` field may hold besides a
#: registered dataclass.
PLAIN = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2 ** 70), 2 ** 70),
              st.floats(allow_nan=False), TEXT, st.binary(max_size=24)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(TEXT, INT64), inner, max_size=3)),
    max_leaves=8)


def _has_value_field(cls) -> bool:
    return any(kind.base == "value" for _name, kind in field_plan(cls))


#: What ``value`` fields are filled with: types without ``value`` fields of
#: their own, so instances nest to a finite depth.
VALUE_TYPES = tuple(cls for cls in WIRE_TYPES if not _has_value_field(cls))


def field_strategy(kind):
    """The values a field of ``kind`` may hold."""
    base = {
        "int": INT64,
        "bool": st.booleans(),
        "float": st.floats(allow_nan=False),
        "str": TEXT,
        "bytes": st.binary(max_size=300),
        "ints": st.lists(INT64, max_size=5).map(tuple),
        "floats": st.lists(st.floats(allow_nan=False), max_size=5).map(tuple),
        "strs": st.lists(TEXT, max_size=5).map(tuple),
    }.get(kind.base)
    if kind.base == "rows":
        base = st.lists(st.tuples(TEXT, *[INT64] * kind.arg),
                        max_size=4).map(tuple)
    elif kind.base == "structs":
        base = st.lists(instances(kind.arg), max_size=3).map(tuple)
    elif kind.base == "value":
        base = st.one_of(PLAIN, st.sampled_from(VALUE_TYPES).flatmap(instances))
    return st.none() | base if kind.optional else base


def instances(cls):
    """Instances of the registered class ``cls`` with plan-conforming fields."""
    return st.builds(cls, **{name: field_strategy(kind)
                             for name, kind in field_plan(cls)})


def sample(cls, variant: int = 0):
    """A deterministic, fully populated instance of ``cls``; ``variant`` 1
    takes the other branch of everything optional or variable-length."""
    values = {}
    for index, (name, kind) in enumerate(field_plan(cls), start=1):
        if kind.optional and variant:
            values[name] = None
            continue
        ints = range(kind.arg if kind.base == "rows" else 0)
        values[name] = {
            "int": 0x0101 * index + (2 ** 40) * variant,
            "bool": not variant,
            "float": index + 0.25 + variant,
            "str": "" if variant else f"{name}-{index}",
            "bytes": b"" if variant else bytes((index, 0xFF)),
            "ints": () if variant else (index, 2 ** 40 + index),
            "floats": () if variant else (0.5, index + 0.25),
            "strs": () if variant else ("k", f"{name}:{index}"),
            "rows": () if variant else tuple(
                (f"dep:{row}", *(row + extra for extra in ints))
                for row in (1, 2)),
        }.get(kind.base)
        if kind.base == "structs":
            values[name] = () if variant else (sample(kind.arg),
                                               sample(kind.arg, 1))
        elif kind.base == "value":
            # Always the lowest type id, so registering a new type does not
            # move the golden frames of the existing ones.
            values[name] = (("plain", index, None) if variant
                            else sample(VALUE_TYPES[0]))
    return cls(**values)


def same(left, right) -> bool:
    """Deep equality that also requires identical types: a ``bool`` is not
    an ``int``, a tuple is not a list."""
    if type(left) is not type(right):
        return False
    if isinstance(left, (tuple, list)):
        return len(left) == len(right) and all(map(same, left, right))
    if isinstance(left, dict):
        return (len(left) == len(right)
                and all(key in right and same(value, right[key])
                        for key, value in left.items()))
    if dataclasses.is_dataclass(left):
        return all(same(getattr(left, field.name), getattr(right, field.name))
                   for field in dataclasses.fields(left))
    return left == right
