"""Tests for message wire sizes and the protocol registry."""

import pytest

from repro.core.common.kernel import ClientKernel, ServerKernel
from repro.core.common.messages import (
    CcloPutRequest,
    CcloReplicateUpdate,
    HEADER_BYTES,
    Message,
    OneRoundReadReply,
    OneRoundReadRequest,
    PendingRot,
    ReadResult,
    ReadersCheckReply,
    ReadersCheckRequest,
    RemoteHeartbeat,
    ReplicateUpdate,
    RotCoordinatorRequest,
    RotValueReply,
    StabilizationMessage,
    VectorPutRequest,
)
from repro.core.registry import (
    implemented_protocols,
    protocol_properties,
    resolve_spec,
    surveyed_properties,
)
from repro.errors import ConfigurationError


class TestMessageSizes:
    def test_base_message_size(self):
        assert Message().size_bytes() == HEADER_BYTES

    def test_put_request_includes_value_and_vector(self):
        small = VectorPutRequest(key="k", value_size=8, client_vector=(1,),
                                 client_id="c", sequence=1)
        large = VectorPutRequest(key="k", value_size=2048, client_vector=(1, 2),
                                 client_id="c", sequence=1)
        assert large.size_bytes() > small.size_bytes()
        assert large.size_bytes() - small.size_bytes() >= 2040

    def test_rot_request_scales_with_keys(self):
        few = RotCoordinatorRequest(rot_id="r", keys=("a",), client_local_ts=0,
                                    client_gss=(0,), client_id="c")
        many = RotCoordinatorRequest(rot_id="r", keys=tuple("abcdefgh"),
                                     client_local_ts=0, client_gss=(0,),
                                     client_id="c")
        assert many.size_bytes() > few.size_bytes()

    def test_value_reply_includes_payload(self):
        results = (ReadResult(key="a", timestamp=1, origin_dc=0, value_size=100),
                   ReadResult(key="b", timestamp=2, origin_dc=0, value_size=100))
        reply = RotValueReply(rot_id="r", results=results, snapshot=(0,), gss=(0,))
        assert reply.size_bytes() >= 200

    def test_readers_check_reply_scales_with_ids(self):
        empty = ReadersCheckReply(check_id="c", old_readers=())
        loaded = ReadersCheckReply(check_id="c",
                                   old_readers=tuple((f"rot{i}", i) for i in range(100)))
        assert loaded.size_bytes() - empty.size_bytes() == 100 * 16

    def test_cclo_put_request_scales_with_dependencies(self):
        no_deps = CcloPutRequest(key="k", value_size=8, dependencies=(),
                                 dependency_partitions=(), client_id="c", sequence=1)
        deps = tuple((f"k{i}", i, 0) for i in range(20))
        with_deps = CcloPutRequest(key="k", value_size=8, dependencies=deps,
                                   dependency_partitions=(0, 1), client_id="c",
                                   sequence=1)
        assert with_deps.size_bytes() - no_deps.size_bytes() == 20 * 16

    def test_replicate_update_sizes(self):
        vector_update = ReplicateUpdate(key="k", timestamp=1, origin_dc=0,
                                        value_size=8, dependency_vector=(1, 2))
        cclo_update = CcloReplicateUpdate(key="k", timestamp=1, origin_dc=0,
                                          value_size=8,
                                          dependencies=(("a", 1, 0),),
                                          writer="c", sequence=1,
                                          old_readers=(("r", 1),))
        assert vector_update.size_bytes() > HEADER_BYTES
        assert cclo_update.size_bytes() > vector_update.size_bytes()

    def test_misc_message_sizes_positive(self):
        for message in (
                StabilizationMessage(partition_index=0, version_vector=(1, 2),
                                     previous_gss=(0, 1)),
                RemoteHeartbeat(origin_dc=0, timestamp=5),
                OneRoundReadRequest(rot_id="r", keys=("a",), client_id="c"),
                OneRoundReadReply(rot_id="r", results=()),
                ReadersCheckRequest(check_id="c", dependencies=(("a", 1, 0),),
                                    put_key="k", put_timestamp=2)):
            assert message.size_bytes() >= HEADER_BYTES


class TestPendingRot:
    def test_completion_tracking(self):
        pending = PendingRot(rot_id="r", keys=("a", "b"), started_at=0.0,
                             expected_replies=2)
        assert not pending.complete
        pending.record_reply((ReadResult("a", 1, 0, 8),))
        assert not pending.complete
        pending.record_reply((ReadResult("b", 2, 0, 8),))
        assert pending.complete
        assert set(pending.results) == {"a", "b"}


class TestRegistry:
    def test_implemented_protocols(self):
        assert set(implemented_protocols()) == {"contrarian", "cure", "cc-lo"}

    def test_spec_carries_the_kernel_classes(self):
        for name in implemented_protocols():
            spec = resolve_spec(name)
            assert issubclass(spec.kernel, ServerKernel)
            assert issubclass(spec.client_kernel, ClientKernel)

    def test_resolve_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="known"):
            resolve_spec("spanner")

    def test_properties_match_table2(self):
        contrarian = protocol_properties("contrarian")
        assert contrarian.nonblocking
        assert contrarian.rot_versions == 1
        assert not contrarian.latency_optimal
        cclo = protocol_properties("cc-lo")
        assert cclo.latency_optimal
        assert cclo.rot_rounds == "1"
        assert cclo.metadata_server_server == "O(K)"
        cure = protocol_properties("cure")
        assert not cure.nonblocking
        assert cure.clock == "Physical"

    def test_unknown_properties_rejected(self):
        with pytest.raises(ConfigurationError):
            protocol_properties("occult")

    def test_surveyed_rows_cover_the_papers_table(self):
        names = {properties.name for properties in surveyed_properties()}
        assert {"COPS", "Eiger", "Orbe", "GentleRain", "Occult", "POCC",
                "ChainReaction"} <= names
