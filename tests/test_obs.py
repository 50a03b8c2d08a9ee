"""Tests for the observability layer: event bus, trace assembly, exporters.

Unit tests pin the bus ring/sequence semantics, the write-chain
reconstruction and the two exporters on hand-built events; integration
tests run traced experiments on every backend and assert the acceptance
bar — gap-free merged timelines with complete issue→send→apply→visible
chains, and bit-identical results when tracing is off.
"""

import json

import pytest

from repro.cluster.config import ClusterConfig
from repro.harness.runner import run_experiment
from repro.obs.bus import DEFAULT_BUS_CAPACITY, EventBus
from repro.obs.events import (
    EVENT_KINDS,
    MSG_SEND,
    OP_FINISH,
    OP_START,
    REPLICATE_APPLY,
    TraceEvent,
    VISIBLE,
)
from repro.obs.export import (
    chrome_trace_events,
    prometheus_snapshot,
    write_chrome_trace,
)
from repro.obs.trace import TraceAssembler, WriteChain, render_span_tree
from repro.workload.parameters import WorkloadParameters

PROTOCOLS = ("contrarian", "cure", "cc-lo")


class _Clock:
    """Minimal settable time source for bus tests."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now


def _tiny_config(**overrides):
    defaults = dict(num_dcs=2, num_partitions=2, clients_per_dc=2,
                    duration_seconds=0.4, warmup_seconds=0.05)
    defaults.update(overrides)
    return ClusterConfig.test_scale(**defaults)


TINY_WORKLOAD = WorkloadParameters(rot_size=2)


# --------------------------------------------------------------------- bus
class TestEventBus:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            EventBus(_Clock(), capacity=0)

    def test_default_capacity(self):
        bus = EventBus(_Clock())
        assert bus.capacity == DEFAULT_BUS_CAPACITY

    def test_emit_stamps_time_source_and_sequence(self):
        clock = _Clock(1.5)
        bus = EventBus(clock, source="test")
        bus.emit("client-0", OP_START, trace="t1", name="put", dc=0,
                 data=(("key", "k1"),))
        clock.now = 2.5
        bus.emit("server-0", MSG_SEND, trace="t1", name="Put")
        first, second = bus.events()
        assert (first.seq, first.ts, first.node, first.kind) == \
            (0, 1.5, "client-0", OP_START)
        assert first.datum("key") == "k1"
        assert first.datum("missing", "fallback") == "fallback"
        assert (second.seq, second.ts, second.dc) == (1, 2.5, -1)
        assert len(bus) == 2
        assert bus.dropped == 0

    def test_ring_eviction_counts_drops_and_keeps_sequencing(self):
        bus = EventBus(_Clock(), capacity=3)
        for index in range(5):
            bus.emit(f"n{index}", OP_START)
        assert len(bus) == 3
        assert bus.dropped == 2
        assert bus.next_seq == 5
        # The oldest events were evicted; the survivors keep their seq.
        assert [event.seq for event in bus.events()] == [2, 3, 4]

    def test_drain_snapshots_and_clears(self):
        bus = EventBus(_Clock())
        bus.emit("a", OP_START)
        bus.emit("a", OP_FINISH)
        drained = bus.drain()
        assert [event.kind for event in drained] == [OP_START, OP_FINISH]
        assert len(bus) == 0
        # Sequence numbering continues across drains.
        bus.emit("a", OP_START)
        assert bus.events()[0].seq == 2


# --------------------------------------------------------------- assembler
def _event(seq, ts, node, kind, *, trace=None, name="", dc=-1, data=()):
    return TraceEvent(seq=seq, ts=ts, node=node, kind=kind, trace=trace,
                      name=name, dc=dc, data=data)


def _write_lifecycle(trace="client-0#1", key="k3"):
    """A hand-built full write lifecycle across two sources."""
    origin = [
        _event(0, 0.000, "client-0", OP_START, trace=trace, name="put",
               dc=0, data=(("key", key),)),
        _event(1, 0.001, "server-0-0", MSG_SEND, trace=trace,
               name="ReplicateUpdate", dc=0),
        _event(2, 0.004, "client-0", OP_FINISH, trace=trace, name="put",
               dc=0),
    ]
    remote = [
        _event(0, 0.005, "server-1-0", REPLICATE_APPLY, trace=trace,
               name=key, dc=1),
        _event(1, 0.010, "server-1-0", VISIBLE, trace=trace, name=key,
               dc=1),
    ]
    return origin, remote


class TestTraceAssembler:
    def test_gap_free_sources(self):
        origin, remote = _write_lifecycle()
        assembler = TraceAssembler()
        assembler.add_events(origin, source="dc0")
        assembler.add_events(remote, source="dc1")
        assert assembler.sources == ("dc0", "dc1")
        assert assembler.sequence_gaps() == {"dc0": 0, "dc1": 0}
        assert assembler.total_dropped() == 0

    def test_missing_sequence_numbers_surface_as_gaps(self):
        events = [_event(0, 0.0, "a", OP_START),
                  _event(3, 0.3, "a", OP_FINISH)]  # 1, 2 lost in transit
        assembler = TraceAssembler()
        assembler.add_events(events, source="w")
        assert assembler.sequence_gaps() == {"w": 2}

    def test_missing_head_counts_as_ring_eviction(self):
        events = [_event(2, 0.2, "a", OP_START), _event(3, 0.3, "a", VISIBLE)]
        assembler = TraceAssembler()
        assembler.add_events(events, source="w")
        assert assembler.sequence_gaps() == {"w": 2}

    def test_declared_drops_are_cumulative_maxima(self):
        assembler = TraceAssembler()
        assembler.add_events([_event(0, 0.0, "a", OP_START)], source="w",
                             dropped=5)
        assembler.add_events([_event(1, 0.1, "a", OP_FINISH)], source="w",
                             dropped=3)
        assert assembler.sequence_gaps() == {"w": 5}

    def test_merged_timeline_orders_by_timestamp(self):
        origin, remote = _write_lifecycle()
        assembler = TraceAssembler()
        assembler.add_events(remote, source="dc1")
        assembler.add_events(origin, source="dc0")
        merged = assembler.events()
        assert [event.ts for event in merged] == sorted(
            event.ts for event in merged)
        assert merged[0].kind == OP_START
        assert merged[-1].kind == VISIBLE

    def test_ingest_bus_uses_bus_source_and_drains(self):
        bus = EventBus(_Clock(), source="sim")
        bus.emit("client-0", OP_START, trace="t", name="put")
        assembler = TraceAssembler()
        assembler.ingest_bus(bus)
        assert assembler.sources == ("sim",)
        assert len(bus) == 0
        assert len(assembler.events()) == 1

    def test_write_chain_reconstruction(self):
        origin, remote = _write_lifecycle()
        assembler = TraceAssembler()
        assembler.add_events(origin, source="dc0")
        assembler.add_events(remote, source="dc1")
        chains = assembler.write_chains()
        assert set(chains) == {"client-0#1"}
        chain = chains["client-0#1"]
        assert chain.key == "k3"
        assert chain.origin_dc == 0
        assert chain.issue_ts == 0.0
        assert chain.send_ts == 0.001
        assert chain.finish_ts == 0.004
        assert chain.applies == {1: 0.005}
        assert chain.visibles == {1: 0.010}
        assert chain.is_complete(num_remote_dcs=1)
        assert not chain.is_complete(num_remote_dcs=2)
        assert chain.visibility_lags() == {1: 0.010}
        assert assembler.complete_chains(1) == [chain]
        assert assembler.visibility_lags() == [("client-0#1", 1, 0.010)]
        summary = assembler.visibility_summary()
        assert summary.count == 1
        assert summary.p50_ms == pytest.approx(10.0)

    def test_rots_and_untraced_events_do_not_create_chains(self):
        events = [
            _event(0, 0.0, "client-0", OP_START, trace="t-rot", name="rot"),
            _event(1, 0.1, "server-0-0", MSG_SEND, name="Heartbeat"),
            _event(2, 0.2, "server-1-0", REPLICATE_APPLY, name="k",
                   dc=1),  # untraced background apply
        ]
        assembler = TraceAssembler()
        assembler.add_events(events, source="s")
        assert assembler.write_chains() == {}
        assert assembler.visibility_summary().count == 0

    def test_events_for_filters_one_trace(self):
        origin, remote = _write_lifecycle()
        other = [_event(4, 0.2, "client-1", OP_START, trace="other",
                        name="put")]
        assembler = TraceAssembler()
        assembler.add_events(origin + other, source="dc0")
        assembler.add_events(remote, source="dc1")
        slice_ = assembler.events_for("client-0#1")
        assert len(slice_) == 5
        assert all(event.trace == "client-0#1" for event in slice_)

    def test_incomplete_chain_is_not_complete(self):
        chain = WriteChain(trace="t", issue_ts=0.0, send_ts=0.1)
        assert not chain.is_complete(1)
        assert chain.visibility_lags() == {}


# --------------------------------------------------------------- exporters
class TestChromeTraceExport:
    def test_op_pairs_become_complete_spans(self):
        origin, _remote = _write_lifecycle()
        records = chrome_trace_events(origin, pid=7, group="contrarian")
        spans = [record for record in records if record.get("ph") == "X"]
        assert len(spans) == 1
        span = spans[0]
        assert span["name"] == "put"
        assert span["pid"] == 7
        assert span["ts"] == 0.0
        assert span["dur"] == pytest.approx(4000.0)  # 4 ms in µs
        assert span["args"]["trace"] == "client-0#1"
        process_meta = [record for record in records
                        if record.get("name") == "process_name"]
        assert process_meta[0]["args"]["name"] == "contrarian"
        thread_meta = [record for record in records
                       if record.get("name") == "thread_name"]
        assert {meta["args"]["name"] for meta in thread_meta} == \
            {"client-0", "server-0-0"}

    def test_unmatched_start_exports_zero_duration_span(self):
        events = [_event(0, 0.0, "c", OP_START, trace="t", name="put")]
        records = chrome_trace_events(events)
        spans = [record for record in records if record.get("ph") == "X"]
        assert len(spans) == 1
        assert spans[0]["dur"] == 0.0

    def test_other_events_export_as_instants(self):
        _origin, remote = _write_lifecycle()
        records = chrome_trace_events(remote)
        instants = [record for record in records if record.get("ph") == "i"]
        assert [record["cat"] for record in instants] == \
            [REPLICATE_APPLY, VISIBLE]

    def test_write_chrome_trace_file(self, tmp_path):
        origin, remote = _write_lifecycle()
        path = tmp_path / "trace.json"
        info = write_chrome_trace(str(path),
                                  {"contrarian": origin + remote},
                                  metadata={"run": "unit"})
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert document["metadata"] == {"run": "unit"}
        assert len(document["traceEvents"]) == info["records"]
        assert info["events_per_group"] == {"contrarian": 5}


class TestPrometheusSnapshot:
    def test_bus_and_assembler_sections(self):
        bus = EventBus(_Clock(), source="sim")
        bus.emit("c", OP_START, trace="t", name="put")
        assembler = TraceAssembler()
        origin, remote = _write_lifecycle()
        assembler.add_events(origin, source="dc0")
        assembler.add_events(remote, source="dc1")
        text = prometheus_snapshot(bus=bus, assembler=assembler)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "repro_trace_events_emitted_total 1" in lines
        assert "repro_trace_events_dropped_total 0" in lines
        assert "repro_trace_sources 2" in lines
        assert "repro_trace_events_lost_total 0" in lines
        assert 'repro_visibility_lag_assembled_ms{quantile="0.5"} 10.0' \
            in lines
        assert any(line.startswith("# TYPE repro_trace_events_emitted_total")
                   for line in lines)

    def test_empty_snapshot_is_just_a_newline(self):
        assert prometheus_snapshot() == "\n"


class TestRenderSpanTree:
    def test_empty(self):
        assert render_span_tree(()) == "(no events)"

    def test_tree_structure_and_offsets(self):
        origin, remote = _write_lifecycle()
        text = render_span_tree(origin + remote)
        lines = text.splitlines()
        assert lines[0] == "trace client-0#1"
        assert any("client-0 (dc0)" in line for line in lines)
        assert any("server-1-0 (dc1)" in line for line in lines)
        assert any("+    0.000ms" in line for line in lines)
        assert any("+   10.000ms" in line for line in lines)
        assert any("visible" in line for line in lines)
        # The last branch is closed with rounded corners.
        assert lines[-2].lstrip().startswith("└─") or \
            lines[-1].lstrip().startswith("└─")


# ------------------------------------------------------------- integration
class TestSimTracing:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_traced_sim_run_is_gap_free_with_complete_chains(self, protocol):
        outcome = run_experiment(protocol, _tiny_config(), TINY_WORKLOAD,
                                 trace=True)
        assembler = outcome.trace
        assert assembler is not None
        gaps = assembler.sequence_gaps()
        assert sum(gaps.values()) == 0, gaps
        complete = assembler.complete_chains(num_remote_dcs=1)
        assert complete, "no write completed its full lifecycle chain"
        assert outcome.result.visibility_trace is not None
        assert outcome.result.visibility_trace.count > 0
        kinds = {event.kind for event in assembler.events()}
        assert kinds <= set(EVENT_KINDS)
        assert {OP_START, MSG_SEND, REPLICATE_APPLY, VISIBLE} <= kinds

    def test_untraced_run_is_bit_identical_to_traced(self):
        baseline = run_experiment("contrarian", _tiny_config(),
                                  TINY_WORKLOAD)
        traced = run_experiment("contrarian", _tiny_config(), TINY_WORKLOAD,
                                trace=True)
        assert baseline.trace is None
        assert baseline.result.visibility_trace is None
        assert baseline.result.rot_latency == traced.result.rot_latency
        assert baseline.result.put_latency == traced.result.put_latency
        assert baseline.result.throughput_kops == \
            traced.result.throughput_kops
        assert baseline.result.rots_completed == traced.result.rots_completed

    def test_span_tree_renders_a_real_trace(self):
        outcome = run_experiment("cure", _tiny_config(), TINY_WORKLOAD,
                                 trace=True)
        chain = outcome.trace.complete_chains(1)[0]
        text = render_span_tree(outcome.trace.events_for(chain.trace))
        assert f"trace {chain.trace}" in text
        assert "visible" in text


class TestRealtimeTracing:
    def test_traced_inproc_run_is_gap_free(self):
        outcome = run_experiment(
            "contrarian", _tiny_config(duration_seconds=0.6), TINY_WORKLOAD,
            backend="inproc", trace=True)
        assembler = outcome.trace
        assert assembler is not None
        assert sum(assembler.sequence_gaps().values()) == 0
        assert assembler.complete_chains(num_remote_dcs=1)
        assert outcome.result.visibility_trace.count > 0

    def test_untraced_run_carries_no_trace(self):
        outcome = run_experiment(
            "cure", _tiny_config(duration_seconds=0.3), TINY_WORKLOAD,
            backend="inproc")
        assert outcome.trace is None
        assert outcome.result.visibility_trace is None


@pytest.mark.slow
class TestTcpTracing:
    def test_tcp_cluster_assembles_one_gap_free_timeline(self):
        outcome = run_experiment(
            "contrarian", _tiny_config(duration_seconds=1.0), TINY_WORKLOAD,
            backend="tcp", trace=True)
        assembler = outcome.trace
        assert assembler is not None
        # One stream per worker process plus the parent's view.
        assert outcome.cluster.worker_count == 6
        worker_sources = [source for source in assembler.sources
                          if source.startswith("worker-")]
        assert len(worker_sources) == 6
        gaps = assembler.sequence_gaps()
        assert sum(gaps.values()) == 0, gaps
        complete = assembler.complete_chains(num_remote_dcs=1)
        assert complete
        for chain in complete:
            assert chain.issue_ts <= chain.send_ts
            assert all(chain.send_ts <= ts for ts in chain.applies.values())
            assert all(chain.applies[dc] <= ts
                       for dc, ts in chain.visibles.items())
        assert outcome.result.visibility_trace.count > 0
