"""The definition of how a vector client folds a ROT into its context.

This is ``VectorClientKernel._handle_value_reply`` as it stood before a ROT
was folded in once, at completion: every value reply raises
``local_ts_seen`` to its snapshot's local entry and merges the snapshot
(local entry zeroed) and the reply's GSS into ``gss_seen`` as it arrives,
and the completed ROT records each result it found in the dependency
context one ``observe_read`` at a time.  It is kept unchanged as the
reference the kernel is compared with (``tests/test_vector_client_fold.py``):
what the client's context holds after a ROT is *defined* by this file.
"""

from __future__ import annotations

from repro.causal.vectors import entrywise_max, with_entry
from repro.core.common.kernel import RotOutcome
from repro.core.common.messages import RotValueReply
from repro.core.vector.kernel import VectorClientKernel


class PerReplyVectorClientKernel(VectorClientKernel):
    """The vector client with the per-reply fold."""

    def _handle_value_reply(self, message: RotValueReply) -> None:
        pending = self._expect_pending(message.rot_id)
        pending.record_reply(message.results)
        # The snapshot vector dominates the dependency vector of every version
        # returned by this ROT, so folding it into the client's causal context
        # guarantees that the client's subsequent PUTs causally cover what it
        # just read (including the remote dependencies of those versions).
        local = self.dc_id
        self.local_ts_seen = max(self.local_ts_seen, message.snapshot[local])
        # The snapshot's local entry is a clock reading, not a stable time.
        self.gss_seen = entrywise_max(
            entrywise_max(self.gss_seen, with_entry(message.snapshot, local, 0)),
            message.gss)
        if not pending.complete:
            return
        self._pending_rot = None
        for result in pending.results.values():
            if result.timestamp is not None:
                partition = self.partitioner.partition_of(result.key)
                self.dep_context.observe_read(result.key, result.timestamp,
                                              partition, result.origin_dc)
        self._complete("rot", RotOutcome(rot_id=message.rot_id,
                                         results=pending.results))
