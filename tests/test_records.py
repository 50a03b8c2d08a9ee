"""The record contract: what ``@record`` / ``@interned`` keep of a frozen
dataclass, and what they add.

``slots=True`` re-creates each class and frozen-slots pickling differs from
one CPython to the next, so every decorated class of the per-message path is
put through the same checks here: frozen, no ``__dict__``, equality and hash
by value, the dataclass signature, and pickle / copy / deepcopy /
``dataclasses.replace`` round trips.  Addresses are interned on top: one
instance per value, also after pickling, copying and wire decoding, and still
equal by value once the intern table is full.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest

from repro.causal import checker as checker_module
from repro.causal import dependencies as dependencies_module
from repro.core.common import kernel as kernel_module
from repro.core.common import messages as messages_module
from repro.core.common.kernel import (
    ClientAddr,
    Complete,
    PutOutcome,
    RotOutcome,
    Send,
    ServerAddr,
    SetTimer,
    TimerSpec,
)
from repro.core.common.messages import (
    WIRE_MESSAGES,
    Message,
    PendingRot,
    ReadResult,
    VectorPutReply,
)
from repro.core.common.records import MAX_INTERNED, interned, record
from repro.core.vector import clockbox as clockbox_module
from repro.errors import WorkloadError
from repro.runtime import transport as transport_module
from repro.storage.version import Version
from repro.wire.codec import decode, encode
from repro.workload import generator as generator_module
from repro.workload.generator import Operation

from wire_support import sample

_READ = ReadResult("k", 7, 1, 8)

#: One instance of every record of the per-message path.
EXAMPLES = [
    *(sample(cls) for cls in WIRE_MESSAGES),
    Message(),
    ServerAddr(1, 2),
    ClientAddr("client-dc0-0"),
    Send(ServerAddr(0, 1), VectorPutReply("k", 3, (1, 2))),
    SetTimer(0.25, "put-wait", ("k", 3)),
    PutOutcome("k", 3, 0, (("j", 1, 0),)),
    RotOutcome("client-dc0-0#1", {"k": _READ}),
    Complete("put", PutOutcome("k", 3, 0)),
    TimerSpec("heartbeat", 0.005, 0.001),
    dependencies_module.Dependency("k", 3, 1, 1),
    Operation("rot", ("a", "b")),
    transport_module.Envelope(ServerAddr(0, 1), ClientAddr("c"), _READ, "t"),
    clockbox_module.TimestampDecision(42, 0.5),
    checker_module.RecordedPut("k", 3, 0, "c", 1, (("j", 1, 0),)),
    checker_module.RecordedRead("k", None),
    checker_module.RecordedRot("r", "c", 2, (checker_module.RecordedRead("k", 3),)),
]
EVERY_RECORD = pytest.mark.parametrize("obj", EXAMPLES,
                                       ids=lambda obj: type(obj).__name__)


def _is_record(cls) -> bool:
    """Whether ``cls`` builds its instances with code ``records`` compiled
    (an interned class holds its ``__new__`` as a staticmethod)."""
    builder = cls.__dict__.get("__init__") or cls.__dict__.get("__new__")
    code = getattr(getattr(builder, "__func__", builder), "__code__", None)
    return code is not None and code.co_filename.startswith("<record ")


def test_every_record_of_the_decorated_modules_has_an_example():
    modules = (checker_module, dependencies_module, kernel_module,
               messages_module, clockbox_module, transport_module,
               generator_module)
    records = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and _is_record(value)}
    assert records == {type(obj) for obj in EXAMPLES}


def _values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


@EVERY_RECORD
def test_a_record_is_frozen_and_slotted(obj):
    assert not hasattr(obj, "__dict__")
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
    # Not a field: CPython's frozen-slots ``__setattr__`` raises TypeError.
    with pytest.raises((TypeError, AttributeError)):
        obj.undeclared = 1
    assert not hasattr(obj, "undeclared")


@EVERY_RECORD
def test_equality_and_hash_are_by_value(obj):
    rebuilt = type(obj)(*_values(obj))
    assert rebuilt == obj and not rebuilt != obj
    assert repr(rebuilt) == repr(obj)
    try:
        expected = hash(_values(obj))
    except TypeError:  # a dict-valued field: unhashable, as before
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(rebuilt) == expected


@EVERY_RECORD
def test_the_signature_is_the_dataclass_one(obj):
    parameters = inspect.signature(type(obj)).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING
         else f.default)
        for f in dataclasses.fields(obj)]


@EVERY_RECORD
@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips(obj, protocol):
    copied = pickle.loads(pickle.dumps(obj, protocol))
    assert type(copied) is type(obj) and copied == obj


@EVERY_RECORD
def test_copy_deepcopy_and_replace_round_trip(obj):
    for copied in (copy.copy(obj), copy.deepcopy(obj),
                   dataclasses.replace(obj)):
        assert type(copied) is type(obj) and copied == obj
    fields = dataclasses.fields(obj)
    if fields:
        name = fields[0].name
        assert dataclasses.replace(obj, **{name: getattr(obj, name)}) == obj


def test_defaults_and_post_init_behave_as_before():
    assert SetTimer(0.1, "t").payload is None
    assert TimerSpec("t", 1.0).start_delay is None
    assert dependencies_module.Dependency("k", 1, 0).origin_dc == 0
    assert transport_module.Envelope(None, ServerAddr(0, 0), 1).trace is None
    assert checker_module.RecordedRead("k", 1).origin_dc == 0
    assert Operation("put", ("k",)).value_size == 0
    for kind, keys in (("x", ("k",)), ("rot", ()), ("put", ("a", "b"))):
        with pytest.raises(WorkloadError):
            Operation(kind, keys)


def test_a_record_builds_factories_and_runs_post_init():
    @record
    class Local:
        count: int
        items: list = dataclasses.field(default_factory=list)
        label: str = "x"

        def __post_init__(self):
            if self.count < 0:
                raise ValueError("negative")

    first, second = Local(1), Local(1)
    assert first.items == [] and first.items is not second.items
    assert Local(2, [3], "y") == Local(count=2, items=[3], label="y")
    with pytest.raises(ValueError):
        Local(-1)
    with pytest.raises(TypeError):
        Local()


def test_a_record_refuses_fields_it_cannot_build():
    class Hidden:
        shown: int
        hidden: int = dataclasses.field(init=False, default=0)

    with pytest.raises(TypeError):
        record(Hidden)


def test_versions_and_pending_rots_are_slotted():
    version = Version("k", None, 3)
    assert not hasattr(version, "__dict__")
    # Every version that bars no ROT shares one read-only empty mapping.
    assert version.old_readers is Version("k", None, 3).old_readers
    with pytest.raises(TypeError):
        version.old_readers["r"] = 1  # type: ignore[index]
    version.visible = False
    pending = PendingRot("r", ("k",), 0.0, 1)
    pending.record_reply((_READ,))
    assert pending.complete and not hasattr(pending, "__dict__")


# ------------------------------------------------------------- addresses
@pytest.mark.parametrize("addr", [ServerAddr(0, 1), ClientAddr("client-dc1-3")],
                         ids=lambda addr: type(addr).__name__)
def test_an_address_is_one_object_per_value(addr):
    values = _values(addr)
    assert type(addr)(*values) is addr
    assert type(addr)(**{f.name: getattr(addr, f.name)
                         for f in dataclasses.fields(addr)}) is addr
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(addr, protocol)) is addr
    assert copy.copy(addr) is addr and copy.deepcopy(addr) is addr
    assert dataclasses.replace(addr) is addr
    assert decode(encode(addr)) is addr
    envelope = decode(encode(transport_module.Envelope(addr, addr, None)))
    assert envelope.sender is addr and envelope.dest is addr


def test_a_full_intern_table_still_yields_addresses_equal_by_value():
    @interned
    class Point:
        x: int

    kept = [Point(index) for index in range(MAX_INTERNED)]
    assert Point(0) is kept[0] and Point(MAX_INTERNED - 1) is kept[-1]
    fresh, again = Point(MAX_INTERNED), Point(MAX_INTERNED)
    assert fresh is not again
    assert fresh == again and hash(fresh) == hash(again) == hash((MAX_INTERNED,))
    table = {fresh: "route"}
    assert table[again] == "route" and table.get(Point(0)) is None
