"""A naive spec-replay reference for the causal-consistency checker.

It shares no code with :mod:`repro.causal.streaming` (it imports only the
record types) and prefers being obviously right to being fast: every ROT is
judged by searching the orders its causal past can be replayed in, which is
exponential in the worst case, so it is meant for histories of a few
hundred operations.

The shape is c3py's ``History``/``Specification`` split.  A
:class:`History` holds one operation list per client session and a
happens-before poset, the transitive closure of

* session order: a client's operations by sequence number;
* dependencies: every version a PUT's recorded context names precedes it;
* reads-from: every version a ROT returned precedes the ROT.

A version named in a context or a read but never recorded as a PUT is a
write with no known past.  The preloaded version (timestamp 0) and "no
version" are both :data:`INITIAL`, the value of a key nobody wrote.

A ROT is correct iff the writes in its causal past can be replayed, in an
order the poset allows, through :class:`MultiVersionMemory` so that the ROT
step returns exactly what the ROT recorded.  That one rule covers causal
snapshots, read-your-writes and monotonic reads: a client's own writes and
the versions its earlier ROTs returned are in the past of its next ROT.
"""

from __future__ import annotations

from collections import defaultdict

from repro.causal.checker import RecordedPut, RecordedRead, RecordedRot

#: What a read of a key that no write in its past touched returns.
INITIAL = "initial"


class MultiVersionMemory:
    """The specification: a key-value memory of versioned writes.

    A write installs its version as the key's current one; a ROT reads the
    current version of every key it names, all at one point.  There is no
    arbitration between writes: which of two concurrent writes a replay
    installs last is up to the order it replays them in.
    """

    def start(self) -> dict:
        return {}

    def step(self, state: dict, op) -> tuple[dict, object]:
        """Apply a write ``(key, timestamp, origin)`` or read a ROT's keys."""
        if isinstance(op, RecordedRot):
            return state, tuple(state.get(read.key, INITIAL)
                                for read in op.reads)
        return {**state, op[0]: op}, None


class History:
    """Per-session operation lists and their happens-before poset; its
    nodes are version ids (writes) and indexes into ``rots`` (ROTs)."""

    def __init__(self, puts: list[RecordedPut], rots: list[RecordedRot]):
        self.rots = list(rots)
        self.sessions: dict[str, list] = defaultdict(list)
        self.before: dict[object, set] = defaultdict(set)
        for put in puts:
            self.sessions[put.client].append((put.sequence, put.version_id))
            for dependency in put.dependencies:
                if dependency[1] != 0:
                    self.before[put.version_id].add(dependency)
        for index, rot in enumerate(self.rots):
            self.sessions[rot.client].append((rot.sequence, index))
            for read in rot.reads:
                if (version := self.value(read)) != INITIAL:
                    self.before[index].add(version)
        for session in self.sessions.values():
            session.sort(key=lambda entry: entry[0])
            for (_, earlier), (_, later) in zip(session, session[1:]):
                self.before[later].add(earlier)
        self._past: dict[object, set] = {}

    @staticmethod
    def value(read: RecordedRead) -> object:
        if read.timestamp is None or read.timestamp == 0:
            return INITIAL
        return read.version_id

    def past(self, node) -> set:
        """Every node that happens before ``node`` (closure by search)."""
        if node not in self._past:
            seen: set = set()
            stack = list(self.before[node])
            while stack:
                current = stack.pop()
                if current not in seen:
                    seen.add(current)
                    stack.extend(self.before[current])
            self._past[node] = seen
        return self._past[node]

    # ------------------------------------------------------------- verdicts
    def satisfies(self, index: int, spec=MultiVersionMemory()) -> bool:
        """Can the ROT's causal past be replayed into what it returned?

        Only writes to keys the ROT reads can change its result, and a
        linear order of a subset of a poset extends to the whole poset, so
        the search orders those writes alone.  A branch dies as soon as a
        key's returned version can no longer be the last one installed; a
        branch still alive has the same future as any other that placed the
        same writes, so dead ends are remembered by set.
        """
        rot = self.rots[index]
        wanted = {read.key: self.value(read) for read in rot.reads}
        expected = tuple(wanted[read.key] for read in rot.reads)
        writes = {node for node in self.past(index)
                  if isinstance(node, tuple) and node[0] in wanted}
        earlier = {write: self.past(write) & writes for write in writes}
        dead: set[frozenset] = set()

        def search(placed: frozenset, state: dict) -> bool:
            if len(placed) == len(writes):
                return spec.step(state, rot)[1] == expected
            if placed in dead:
                return False
            ready = [write for write in writes - placed
                     if earlier[write] <= placed]
            ready.sort(key=lambda write: write == wanted[write[0]])
            for write in ready:
                target = wanted[write[0]]
                if write != target and (target == INITIAL or target in placed):
                    continue  # the returned version could no longer be last
                if search(placed | {write}, spec.step(state, write)[0]):
                    return True
            dead.add(placed)
            return False

        return search(frozenset(), spec.start())

    def flagged_rots(self) -> list[str]:
        """Ids of the ROTs no replay of their causal past explains."""
        return [rot.rot_id for index, rot in enumerate(self.rots)
                if not self.satisfies(index)]


def oracle_flagged(puts, rots) -> list[str]:
    return History(list(puts), list(rots)).flagged_rots()

