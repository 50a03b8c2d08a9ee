"""A noise-free guard for the per-message path: interpreter calls per
operation.

Timing tests cannot tell a 10% regression from a neighbour's build on a
shared VM; a count of interpreter calls can.  The drive is the loop-free one
of ``benchmarks/run_kernel_cost.py`` (an unstarted 2 DC x 4 partition
``RealtimeCluster`` on an ``InprocTransport``, fixed seed, a manual clock:
``client.issue``, then ``cluster._drain()`` until the run queue is empty,
every server's periodic timers fired by hand every 19 operations, CC-LO's
250 ms reader GC in every 50th such round), run for 500 operations under
``sys.setprofile`` after 2,000 uncounted ones — more than one turn of CC-LO's
500 ms reader window on the manual clock, so the counted operations record
into, answer from and expire a full window.  The count repeats exactly and is
the same on CPython 3.10 and 3.11; 3.12 inlines comprehensions and counts a
few percent fewer.  Ceilings sit about 10% above what the tree reached when
they were set (Python-level: contrarian 236.5, cure 258.5, cc-lo 222.7;
cc-lo 296.0 while its old readers were mutable dataclasses recorded one call
per id and each remote dependency check copied a version chain; 255, 277,
298 while a completed ROT folded every reply into the client's
causal context separately; 270, 293, 309 while route lookups still compared
equal addresses with ``__eq__``; before the kernels' allocations were cut:
408, 425, 327 on a 100-operation warm-up), so the frames and allocations
that change removed cannot come back unnoticed.  The tree now counts
contrarian 234.8, cure 256.8 and cc-lo 220.3 (233.2, 255.2 and 220.4
before the vector servers trimmed each key's chain under a snapshot floor
after every install; cc-lo 221.4 while every
install rebuilt a PUT's dependency triples into pairs and origins, and every
replication rebuilt the triples).  CC-LO's C-level calls are
pinned as well: a reader record examined is a ``dict.get``, not a frame,
and a readers check that rescans the
window again (521 C-level calls per operation on the scan implementation, 265
on the per-client index, 246 with its records as tuples recorded in bulk)
would pass the Python-level ceiling.  So are CC-LO's calls into a
non-frozen dataclass's generated ``__init__`` (2.0 per operation: a
``Version``, a ``PendingCheck`` and a ``PendingRot`` where needed; 13.1
while every old-reader record was a ``ReaderEntry``).

Two kinds of call are pinned at exactly zero, because no ceiling can see
them: a dataclass-generated ``__eq__`` (a route looked up with an address
that is equal to the table's key but another object — 8.6 per Contrarian
operation before addresses were interned, inside a ceiling's headroom) and a
frozen dataclass's generated ``__init__`` (a record built through
``object.__setattr__`` — 25.5 per Contrarian operation before records were
built through their slots, one frame each like the ``__init__`` that replaced
it).  ``cProfile`` files every generated method under one ``<string>:2``
entry, so only the per-code-object count of ``generated_calls_per_op`` shows
them.

The same kernels under the discrete-event simulator (the script's second
drive: the layered benchmark's loaded ``sim-three-protocols`` cluster, seed 7,
30 virtual ms counted after 30 uncounted) are pinned the same way: what an
operation costs there beyond the loop-free count is the simulator carrying
its messages — engine, network, CPU queues, cost model.  Python-level calls
per simulated operation: contrarian 278.0, cure 332.4, cc-lo 356.5 when the
ceilings were last set (300, 352, 378 when they were first set; 291.1,
342.6, 371.0 while the host sized every
server send for its counters and the network sized it again; cc-lo 474
before its old readers were tuples recorded in bulk; 336, 386, 493
while the generator spelled ``random.sample`` and every key as calls and a
ROT folded each reply separately; 343, 394, 498 with ``__eq__`` on routes;
478, 565, 695 before the simulator's per-message path was cut to two heap
events and a handful of frames).  The operations,
engine events and messages of the counted window are pinned to the digit:
they are functions of the seed, and a change that moves them changed the
simulation, not its cost (Cure's moved from 1176 / 23328 / 10962 when the
vector servers began to collect versions under a snapshot floor and the
stabilization message gained the sender's previous GSS).

The wire is pinned the same way, per envelope: a fixed batch of 28
envelopes in the mix ``tcp-contrarian-read`` sends between its client and
server transports (21 ``RotValueReply`` with one or two results, 6
``RotCoordinatorRequest``, 1 ``VectorPutRequest``; 24 distinct addresses),
encoded by ``encode_batch`` and delivered by the transport's row decoder to
nodes whose ``deliver`` does nothing — that call is one of the counted.
Python-level calls per envelope: 13.3 (23.2 while a frame was a run of
tagged ``Envelope`` records, each decoded with both its addresses and then
delivered through the transport's per-envelope check).

The loop-free drive draws its operations before the counted region, so
neither count above ever saw the workload generator — the client's own
turn, one of the hottest functions under load.  Its Python-level calls per
``next_operation`` are pinned on their own, at the drive's two write ratios
(0.05: 10.0, 0.1: 9.1; 27.1 and 24.6 while every draw went through
``random.sample``, a generator expression and a key formatted per call).
"""

import importlib.util
import os

import pytest

from repro.core.common.kernel import ClientAddr, ServerAddr, client_node_id
from repro.core.common.messages import (
    ReadResult,
    RotCoordinatorRequest,
    RotValueReply,
    VectorPutRequest,
)
from repro.runtime.transport import TcpTransport
from repro.wire.batch import Envelope, encode_batch

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                       "run_kernel_cost.py")
_spec = importlib.util.spec_from_file_location("run_kernel_cost", _SCRIPT)
run_kernel_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_kernel_cost)

#: Python-level calls per operation.
CEILINGS = {"contrarian": 260, "cure": 284, "cc-lo": 245}
#: C-level calls per operation, where they are what a regression would add.
C_CEILINGS = {"cc-lo": 270}
#: Calls per operation into a non-frozen dataclass's generated ``__init__``,
#: where a mutable record per reader or message would add them.
INIT_CEILINGS = {"cc-lo": 2.5}
#: Python-level calls per simulated operation.
SIM_CEILINGS = {"contrarian": 306, "cure": 366, "cc-lo": 392}
#: Python-level calls per drawn operation, by the protocol whose write ratio
#: the generators draw at (contrarian 0.05, cc-lo 0.1).
GENERATOR_CEILINGS = {"contrarian": 11, "cc-lo": 10}
#: Calls per operation into dataclass-generated code that the per-message
#: path must not make: an address ``__eq__`` (a route looked up with an
#: address equal to, but not the same object as, the table's key) and a
#: frozen dataclass's ``__init__`` (a record built through
#: ``object.__setattr__`` instead of its slots).
NO_GENERATED = ("__eq__", "frozen __init__")
#: Python-level calls per envelope through ``encode_batch`` and the TCP
#: transport's row decoder, deliveries included.
WIRE_CEILING = 14.6
#: Operations completed, engine events executed and messages sent in the
#: counted window of the simulator drive.
SIM_WINDOWS = {"contrarian": [1909, 28932, 14381],
               "cure": [1175, 23351, 10949],
               "cc-lo": [1077, 23060, 11533]}


@pytest.mark.parametrize("protocol", run_kernel_cost.PROTOCOLS)
def test_python_calls_per_operation_stay_under_the_ceiling(protocol):
    counts = run_kernel_cost.count_calls(protocol, operations=500)
    print(f"{protocol}: {counts['py_calls_per_op']:.1f} Python-level and "
          f"{counts['c_calls_per_op']:.1f} C-level calls per operation, "
          f"{counts['msgs_per_op']:.2f} messages per operation "
          f"(ceilings {CEILINGS[protocol]}, {C_CEILINGS.get(protocol)})")
    assert counts["py_calls_per_op"] < CEILINGS[protocol]
    assert counts["c_calls_per_op"] < C_CEILINGS.get(protocol, float("inf"))
    generated = counts["generated_calls_per_op"]
    assert generated.get("__init__", 0) < INIT_CEILINGS.get(
        protocol, float("inf")), generated
    # The drive did what it says: every operation ran to completion through
    # the run queue (a ROT alone is 1 + 3 + 4 deliveries).
    assert counts["msgs_per_op"] > 5
    assert {name: generated.get(name, 0) for name in NO_GENERATED} == {
        name: 0 for name in NO_GENERATED}, generated


@pytest.mark.parametrize("protocol", run_kernel_cost.PROTOCOLS)
def test_python_calls_per_simulated_operation_stay_under_the_ceiling(protocol):
    counts = run_kernel_cost.count_sim_calls(protocol)
    print(f"{protocol}: {counts['py_calls_per_op']:.1f} Python-level and "
          f"{counts['c_calls_per_op']:.1f} C-level calls, "
          f"{counts['events_per_op']:.2f} events and "
          f"{counts['msgs_per_op']:.2f} messages per simulated operation "
          f"(ceiling {SIM_CEILINGS[protocol]})")
    assert counts["window"] == SIM_WINDOWS[protocol]
    assert counts["py_calls_per_op"] < SIM_CEILINGS[protocol]


@pytest.mark.parametrize("protocol", sorted(GENERATOR_CEILINGS))
def test_python_calls_per_drawn_operation_stay_under_the_ceiling(protocol):
    calls = run_kernel_cost.count_generator_calls(protocol)
    print(f"write ratio {run_kernel_cost.WRITE_RATIO[protocol]}: "
          f"{calls:.1f} Python-level calls per drawn operation "
          f"(ceiling {GENERATOR_CEILINGS[protocol]})")
    assert calls < GENERATOR_CEILINGS[protocol]


def wire_batch() -> list[Envelope]:
    """28 envelopes in ``tcp-contrarian-read``'s client-server mix."""
    servers = [ServerAddr(dc, p) for dc in range(2) for p in range(4)]
    clients = [ClientAddr(client_node_id(dc, i))
               for dc in range(2) for i in range(8)]
    rows = []
    for k in range(28):
        server, client = servers[k % 8], clients[k % 16]
        rot_id = f"{client.client_id}#{1000 + k}"
        if k < 21:
            results = tuple(ReadResult(f"key-{k}-{j}", 1_700_000_000 + k,
                                       k % 2, 8) for j in range(1 + k % 2))
            rows.append(Envelope(server, client, RotValueReply(
                rot_id, results, (k, k + 1), (k, k))))
        elif k < 27:
            rows.append(Envelope(client, server, RotCoordinatorRequest(
                rot_id, (f"key-{k}-0", f"key-{k}-1"), 1_700_000_000 + k,
                (k, k), client.client_id)))
        else:
            rows.append(Envelope(client, server, VectorPutRequest(
                f"key-{k}", 8, (k, k), client.client_id, k)))
    return rows


class _Idle:
    def deliver(self, sender, message, trace=None) -> None:
        pass


def test_python_calls_per_envelope_stay_under_the_ceiling():
    rows = wire_batch()
    transport = TcpTransport()
    for envelope in rows:
        transport.register_local(envelope.dest, _Idle())

    def hop() -> None:
        transport._receive(encode_batch(rows))

    hop()  # compile the codecs outside the counted region
    counts, _, _ = run_kernel_cost.profiled(hop)
    calls = counts["call"] / len(rows)
    print(f"{calls:.1f} Python-level calls per envelope "
          f"(ceiling {WIRE_CEILING})")
    assert calls < WIRE_CEILING
