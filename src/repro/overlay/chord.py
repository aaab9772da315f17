"""Chord distributed hash table (Stoica et al., SIGCOMM 2001).

SOS routes messages to beacons and secret servlets over Chord (paper §2):
the beacon for a target is the Chord node owning ``hash(target)``. This
module implements the full protocol at simulation level — every node keeps
a finger table, predecessor pointer, and successor list, and lookups hop
through fingers exactly as the distributed protocol would, including
failure handling via successor lists.

Routing state is columnar: one sorted identifier array plus ``(n, bits)``
finger, ``(n, W)`` successor, predecessor, and liveness columns per ring
(wide rings, ``bits > 62``, use object-dtype columns holding Python ints).
:class:`ChordNode` objects are cached views whose list-valued properties
materialize lazily from the columns, so the scalar protocol code reads
unchanged while :meth:`ChordRing.rebuild_routing_state` writes the
columns directly with no per-node Python loops.

Supported operations:

* bulk :meth:`ChordRing.build` with exact routing state;
* incremental :meth:`ChordRing.join` followed by :meth:`ChordRing.stabilize`
  rounds (``stabilize``/``notify``/``fix_fingers`` from the paper's Fig. 6);
* node failure (:meth:`ChordRing.fail`) and graceful departure
  (:meth:`ChordRing.leave`), with lookups routing around dead nodes;
* iterative :meth:`ChordRing.lookup` returning the full hop path, so tests
  can assert the O(log N) bound.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, RoutingError
from repro.overlay.identifiers import DEFAULT_ID_BITS, IdentifierSpace

#: Default successor-list length; Chord recommends O(log N), and 8 covers
#: the simulated ring sizes used here.
DEFAULT_SUCCESSOR_LIST = 8

#: Widest ring whose identifiers (and their pairwise differences) fit in
#: int64; wider rings use object columns and the scalar rebuild.
_VECTOR_BITS_LIMIT = 62


class _RoutingColumns:
    """The flat-array routing state of one ring.

    Rows are sorted by identifier and include dead nodes (live nodes'
    stale pointers may still reference them). ``epoch`` is bumped on
    every mutation; :class:`ChordNode` views key their caches on it.
    """

    __slots__ = (
        "dtype",
        "bits",
        "ids",
        "alive",
        "fingers",
        "fingers_set",
        "succ",
        "succ_len",
        "pred",
        "epoch",
    )

    def __init__(self, bits: int, succ_width: int) -> None:
        self.bits = bits
        self.dtype: object = object if bits > _VECTOR_BITS_LIMIT else np.int64
        self.ids = np.empty(0, dtype=self.dtype)
        self.alive = np.empty(0, dtype=bool)
        self.fingers = np.full((0, bits), -1, dtype=self.dtype)
        self.fingers_set = np.empty(0, dtype=bool)
        self.succ = np.full((0, succ_width), -1, dtype=self.dtype)
        self.succ_len = np.empty(0, dtype=np.int32)
        self.pred = np.empty(0, dtype=self.dtype)
        self.epoch = 0

    def __len__(self) -> int:
        return len(self.ids)

    def row_of(self, node_id: int) -> int:
        index = int(np.searchsorted(self.ids, node_id))
        if index < len(self.ids) and self.ids[index] == node_id:
            return index
        return -1

    def install(self, sorted_ids: Sequence[int]) -> None:
        """Bulk-install a fresh (all-live, no routing state) population."""
        n = len(sorted_ids)
        self.ids = np.asarray(sorted_ids, dtype=self.dtype)
        self.alive = np.ones(n, dtype=bool)
        self.fingers = np.full((n, self.bits), -1, dtype=self.dtype)
        self.fingers_set = np.zeros(n, dtype=bool)
        self.succ = np.full((n, self.succ.shape[1]), -1, dtype=self.dtype)
        self.succ_len = np.zeros(n, dtype=np.int32)
        self.pred = np.full(n, -1, dtype=self.dtype)
        self.epoch += 1

    def insert(self, node_id: int) -> int:
        """Insert a new (live, blank) row, keeping ids sorted."""
        pos = int(np.searchsorted(self.ids, node_id))
        self.ids = np.insert(self.ids, pos, node_id)
        self.alive = np.insert(self.alive, pos, True)
        blank = np.full(self.bits, -1, dtype=self.dtype)
        self.fingers = np.insert(self.fingers, pos, blank, axis=0)
        self.fingers_set = np.insert(self.fingers_set, pos, False)
        blank_s = np.full(self.succ.shape[1], -1, dtype=self.dtype)
        self.succ = np.insert(self.succ, pos, blank_s, axis=0)
        self.succ_len = np.insert(self.succ_len, pos, 0)
        self.pred = np.insert(self.pred, pos, -1)
        self.epoch += 1
        return pos

    def ensure_succ_width(self, width: int) -> None:
        if width > self.succ.shape[1]:
            grown = np.full((len(self.ids), width), -1, dtype=self.dtype)
            grown[:, : self.succ.shape[1]] = self.succ
            self.succ = grown

    def set_fingers(self, row: int, values: Sequence[int]) -> None:
        if len(values) == 0:
            self.fingers[row, :] = -1
            self.fingers_set[row] = False
        else:
            if len(values) != self.bits:
                raise ConfigurationError(
                    f"finger table must have {self.bits} entries, "
                    f"got {len(values)}"
                )
            self.fingers[row, :] = np.asarray(values, dtype=self.dtype)
            self.fingers_set[row] = True
        self.epoch += 1

    def set_successor_list(self, row: int, values: Sequence[int]) -> None:
        self.ensure_succ_width(len(values))
        count = len(values)
        if count:
            self.succ[row, :count] = np.asarray(values, dtype=self.dtype)
        self.succ[row, count:] = -1
        self.succ_len[row] = count
        self.epoch += 1


class ChordNode:
    """Routing state of one Chord participant (view over ring columns).

    List-valued properties (``fingers``, ``successor_list``) materialize
    from the columns lazily and are cached until the ring's next
    mutation, so the scalar protocol/lookup code pays the column read
    once per (node, epoch) rather than per access.
    """

    __slots__ = (
        "_cols",
        "_kv",
        "node_id",
        "_row",
        "_epoch",
        "_fingers_cache",
        "_succ_cache",
    )

    def __init__(
        self,
        node_id: int,
        cols: Optional[_RoutingColumns] = None,
        kv: Optional[Dict[int, Dict[int, object]]] = None,
    ) -> None:
        if cols is None:
            # Standalone node (no ring): private single-row columns.
            cols = _RoutingColumns(DEFAULT_ID_BITS, DEFAULT_SUCCESSOR_LIST)
            cols.install([node_id])
        self._cols = cols
        self._kv = kv if kv is not None else {}
        self.node_id = node_id
        self._row = -1
        self._epoch = -1
        self._fingers_cache: Optional[List[int]] = None
        self._succ_cache: Optional[List[int]] = None

    def _sync(self) -> int:
        cols = self._cols
        if self._epoch != cols.epoch:
            self._row = cols.row_of(self.node_id)
            self._fingers_cache = None
            self._succ_cache = None
            self._epoch = cols.epoch
        return self._row

    # -- column-backed attributes --------------------------------------
    @property
    def fingers(self) -> List[int]:
        row = self._sync()
        if self._fingers_cache is None:
            if self._cols.fingers_set[row]:
                self._fingers_cache = self._cols.fingers[row].tolist()
            else:
                self._fingers_cache = []
        return self._fingers_cache

    @fingers.setter
    def fingers(self, values: Sequence[int]) -> None:
        row = self._sync()
        self._cols.set_fingers(row, list(values))

    @property
    def successor_list(self) -> List[int]:
        row = self._sync()
        if self._succ_cache is None:
            count = int(self._cols.succ_len[row])
            self._succ_cache = self._cols.succ[row, :count].tolist()
        return self._succ_cache

    @successor_list.setter
    def successor_list(self, values: Sequence[int]) -> None:
        row = self._sync()
        self._cols.set_successor_list(row, list(values))

    @property
    def predecessor(self) -> Optional[int]:
        row = self._sync()
        value = self._cols.pred[row]
        return None if value == -1 else int(value)

    @predecessor.setter
    def predecessor(self, value: Optional[int]) -> None:
        row = self._sync()
        self._cols.pred[row] = -1 if value is None else value
        self._cols.epoch += 1

    @property
    def alive(self) -> bool:
        row = self._sync()
        return bool(self._cols.alive[row])

    @alive.setter
    def alive(self, value: bool) -> None:
        row = self._sync()
        self._cols.alive[row] = bool(value)
        self._cols.epoch += 1

    @property
    def store(self) -> Dict[int, object]:
        """Key-value replica storage hosted on this node."""
        existing = self._kv.get(self.node_id)
        if existing is None:
            existing = {}
            self._kv[self.node_id] = existing
        return existing

    @property
    def successor(self) -> int:
        """First live entry of the successor list (primary successor)."""
        successors = self.successor_list
        if not successors:
            return self.node_id
        return successors[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChordNode(node_id={self.node_id}, fingers={self.fingers}, "
            f"successor_list={self.successor_list}, "
            f"predecessor={self.predecessor}, alive={self.alive})"
        )


@dataclasses.dataclass(frozen=True)
class LookupResult:
    """Outcome of an iterative Chord lookup."""

    key: int
    owner: Optional[int]
    path: Tuple[int, ...]
    succeeded: bool

    @property
    def hops(self) -> int:
        """Number of forwarding hops (path length minus the origin)."""
        return max(0, len(self.path) - 1)


class ChordRing:
    """A simulated Chord ring.

    Examples
    --------
    >>> ring = ChordRing.build([1, 18, 36, 99, 200], bits=8)
    >>> ring.find_successor(37)
    99
    >>> result = ring.lookup(37, start=1)
    >>> result.owner
    99
    """

    def __init__(
        self,
        bits: int = DEFAULT_ID_BITS,
        successor_list_length: int = DEFAULT_SUCCESSOR_LIST,
    ) -> None:
        if successor_list_length < 1:
            raise ConfigurationError("successor_list_length must be >= 1")
        self.space = IdentifierSpace(bits)
        self.successor_list_length = successor_list_length
        self._cols = _RoutingColumns(bits, successor_list_length)
        self._kv: Dict[int, Dict[int, object]] = {}
        self._views: Dict[int, ChordNode] = {}
        self._alive_sorted: List[int] = []
        #: Same membership as _alive_sorted; O(1) liveness tests keep the
        #: scalar lookup path as fast as the old per-node dict.
        self._alive_set: set = set()

    def _node_view(self, node_id: int) -> ChordNode:
        view = self._views.get(node_id)
        if view is None:
            view = ChordNode(node_id, cols=self._cols, kv=self._kv)
            self._views[node_id] = view
        return view

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        node_ids: Sequence[int],
        bits: int = DEFAULT_ID_BITS,
        successor_list_length: int = DEFAULT_SUCCESSOR_LIST,
    ) -> "ChordRing":
        """Build a ring with exact routing state for ``node_ids``."""
        ring = cls(bits=bits, successor_list_length=successor_list_length)
        if len(node_ids) == 0:
            raise ConfigurationError("cannot build an empty ring")
        if (
            isinstance(node_ids, np.ndarray)
            and node_ids.dtype.kind == "i"
            and bits <= _VECTOR_BITS_LIMIT
        ):
            # Array fast path: vectorized validation for large rings.
            ids = np.sort(node_ids.astype(np.int64))
            if bool((ids < 0).any()) or bool((ids >= ring.space.size).any()):
                bad = int(ids[0]) if ids[0] < 0 else int(ids[-1])
                ring.space.validate(bad)
            if bool((ids[1:] == ids[:-1]).any()):
                dupe = int(ids[1:][ids[1:] == ids[:-1]][0])
                raise ConfigurationError(f"duplicate node id {dupe}")
            ring._alive_sorted = ids.tolist()
        else:
            unique = set()
            for node_id in node_ids:
                ring.space.validate(node_id)
                if node_id in unique:
                    raise ConfigurationError(f"duplicate node id {node_id}")
                unique.add(node_id)
            ring._alive_sorted = sorted(unique)
        ring._alive_set = set(ring._alive_sorted)
        ring._cols.install(ring._alive_sorted)
        ring.rebuild_routing_state()
        return ring

    def rebuild_routing_state(self) -> None:
        """Recompute exact fingers, successor lists, and predecessors for
        every live node (an omniscient stabilization).

        Vectorized: finger starts for all (node, index) pairs are one
        modular broadcast, owners one ``searchsorted`` over the sorted
        live ring, successor lists one roll of ring offsets — written
        straight into the routing columns (no per-node Python lists, the
        step that used to dominate memory and time on large rings).
        Rings wider than int64 fall back to the per-node scalar path,
        which also serves as the equivalence oracle in tests.
        """
        ring = self._alive_sorted
        n = len(ring)
        if n == 0:
            return
        if self.space.bits > _VECTOR_BITS_LIMIT:
            self._rebuild_routing_state_scalar()
            return
        cols = self._cols
        ids = np.asarray(ring, dtype=np.int64)
        powers = np.int64(1) << np.arange(self.space.bits, dtype=np.int64)
        starts = (ids[:, None] + powers[None, :]) % np.int64(self.space.size)
        finger_idx = np.searchsorted(ids, starts, side="left") % n
        finger_rows = ids[finger_idx]
        length = min(self.successor_list_length, n - 1) if n > 1 else 1
        succ_idx = (np.arange(n)[:, None] + 1 + np.arange(length)[None, :]) % n
        succ_rows = ids[succ_idx]
        predecessors = np.roll(ids, 1)
        cols.ensure_succ_width(length)
        if len(cols) == n:
            # Every row is live: whole-column writes.
            cols.fingers[:, :] = finger_rows
            cols.fingers_set[:] = True
            cols.succ[:, :length] = succ_rows
            cols.succ[:, length:] = -1
            cols.succ_len[:] = length
            cols.pred[:] = predecessors
        else:
            rows = np.searchsorted(cols.ids, ids)
            cols.fingers[rows] = finger_rows
            cols.fingers_set[rows] = True
            cols.succ[rows, :length] = succ_rows
            cols.succ[rows, length:] = -1
            cols.succ_len[rows] = length
            cols.pred[rows] = predecessors
        cols.epoch += 1

    def _rebuild_routing_state_scalar(self) -> None:
        """Per-node bisect path; oracle for the vectorized rebuild."""
        for node_id in self._alive_sorted:
            node = self._node_view(node_id)
            node.fingers = [
                self._ideal_successor(self.space.finger_start(node_id, i))
                for i in range(self.space.bits)
            ]
            node.successor_list = self._ideal_successor_list(node_id)
            node.predecessor = self._ideal_predecessor(node_id)

    # ------------------------------------------------------------------
    # Oracle views (ground truth over live nodes)
    # ------------------------------------------------------------------
    def _ideal_successor(self, key: int) -> int:
        """The live node owning ``key`` (first node at or after it)."""
        if not self._alive_sorted:
            raise RoutingError("ring has no live nodes")
        index = bisect_left(self._alive_sorted, key)
        if index == len(self._alive_sorted):
            index = 0
        return self._alive_sorted[index]

    def _ideal_predecessor(self, node_id: int) -> int:
        index = bisect_left(self._alive_sorted, node_id)
        return self._alive_sorted[index - 1]

    def _ideal_successor_list(self, node_id: int) -> List[int]:
        ring = self._alive_sorted
        index = bisect_right(ring, node_id)
        length = min(self.successor_list_length, max(1, len(ring) - 1) if len(ring) > 1 else 1)
        result = []
        for offset in range(length):
            result.append(ring[(index + offset) % len(ring)])
        return result

    def find_successor(self, key: int) -> int:
        """Ground-truth owner of ``key`` among live nodes."""
        self.space.validate(key)
        return self._ideal_successor(key)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._alive_sorted)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._alive_set

    @property
    def live_node_ids(self) -> List[int]:
        return list(self._alive_sorted)

    @property
    def known_node_ids(self) -> List[int]:
        """Every identifier the ring has seen, dead nodes included."""
        return self._cols.ids.tolist()

    def node(self, node_id: int) -> ChordNode:
        if self._cols.row_of(node_id) < 0:
            raise RoutingError(f"unknown chord node {node_id}")
        return self._node_view(node_id)

    def join(self, node_id: int) -> None:
        """Add a node with only its successor pointer set (Chord join).

        The new node learns its successor via a lookup through an existing
        member; fingers, predecessor, and successor list converge through
        subsequent :meth:`stabilize` rounds.
        """
        self.space.validate(node_id)
        row = self._cols.row_of(node_id)
        if row >= 0 and bool(self._cols.alive[row]):
            raise ConfigurationError(f"node {node_id} already in the ring")
        if row < 0:
            self._cols.insert(node_id)
        else:
            # Dead node rejoining: fresh state, fresh storage.
            self._cols.alive[row] = True
            self._kv.pop(node_id, None)
            self._cols.epoch += 1
        node = self._node_view(node_id)
        if self._alive_sorted:
            successor = self._ideal_successor(node_id)
            node.successor_list = [successor]
            node.fingers = [successor] * self.space.bits
        else:
            node.successor_list = [node_id]
            node.fingers = [node_id] * self.space.bits
        node.predecessor = None
        insort(self._alive_sorted, node_id)
        self._alive_set.add(node_id)

    def fail(self, node_id: int) -> None:
        """Crash-fail a node: it disappears without notifying anyone.

        Other nodes' routing state still references it until stabilization
        (or :meth:`rebuild_routing_state`) repairs the ring; lookups route
        around it via successor lists in the meantime.
        """
        node = self.node(node_id)
        if not node.alive:
            return
        node.alive = False
        index = bisect_left(self._alive_sorted, node_id)
        if index < len(self._alive_sorted) and self._alive_sorted[index] == node_id:
            self._alive_sorted.pop(index)
        self._alive_set.discard(node_id)
        if not self._alive_sorted:
            raise RoutingError("last live node failed; ring is empty")

    def leave(self, node_id: int) -> None:
        """Graceful departure: hand pointers over before going away."""
        node = self.node(node_id)
        if not node.alive:
            return
        predecessor_id = self._ideal_predecessor(node_id)
        successor_id = self._ideal_successor((node_id + 1) % self.space.size)
        self.fail(node_id)
        if predecessor_id != node_id:
            predecessor = self._node_view(predecessor_id)
            predecessor.successor_list = self._ideal_successor_list(predecessor_id)
        if successor_id != node_id:
            successor = self._node_view(successor_id)
            if successor.predecessor == node_id:
                successor.predecessor = predecessor_id if predecessor_id != node_id else None

    # ------------------------------------------------------------------
    # Stabilization protocol (Chord Fig. 6)
    # ------------------------------------------------------------------
    def stabilize(self, rounds: int = 1) -> None:
        """Run ``rounds`` of stabilize/notify/fix_fingers on every live node."""
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        for _ in range(rounds):
            for node_id in list(self._alive_sorted):
                node = self._node_view(node_id)
                if node.alive:
                    self._stabilize_node(node)
            for node_id in list(self._alive_sorted):
                node = self._node_view(node_id)
                if node.alive:
                    self._fix_fingers(node)
                    self._refresh_successor_list(node)

    def _first_live_successor(self, node: ChordNode) -> int:
        """First live entry in the successor list, pruning dead ones."""
        for candidate in node.successor_list:
            if candidate in self:
                return candidate
        # Whole list dead: fall back to any live finger, then to self.
        for candidate in node.fingers:
            if candidate in self:
                return candidate
        return node.node_id

    def _stabilize_node(self, node: ChordNode) -> None:
        successor_id = self._first_live_successor(node)
        successor = self._node_view(successor_id)
        candidate = successor.predecessor
        if (
            candidate is not None
            and candidate in self
            and self.space.in_open_interval(candidate, node.node_id, successor_id)
        ):
            successor_id = candidate
            successor = self._node_view(successor_id)
        if successor_id == node.node_id and len(self._alive_sorted) > 1:
            # Pointing at ourselves on a multi-node ring: adopt any live node.
            successor_id = self._ideal_successor((node.node_id + 1) % self.space.size)
            successor = self._node_view(successor_id)
        node.successor_list = ([successor_id] + [
            s for s in node.successor_list if s != successor_id
        ])[: self.successor_list_length]
        # notify(successor, node)
        if (
            successor.predecessor is None
            or successor.predecessor not in self
            or self.space.in_open_interval(
                node.node_id, successor.predecessor, successor_id
            )
        ):
            if successor_id != node.node_id:
                successor.predecessor = node.node_id

    def _fix_fingers(self, node: ChordNode) -> None:
        node.fingers = [
            self._lookup_internal(self.space.finger_start(node.node_id, i), node.node_id)
            or node.successor
            for i in range(self.space.bits)
        ]

    def _refresh_successor_list(self, node: ChordNode) -> None:
        chain = []
        current = self._first_live_successor(node)
        for _ in range(self.successor_list_length):
            if current == node.node_id and chain:
                break
            chain.append(current)
            current = self._first_live_successor(self._node_view(current))
            if current in chain:
                break
        node.successor_list = chain or [node.node_id]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _closest_preceding_node(self, node: ChordNode, key: int) -> int:
        for finger in reversed(node.fingers):
            if finger in self and self.space.in_open_interval(
                finger, node.node_id, key
            ):
                return finger
        for candidate in node.successor_list:
            if candidate in self and self.space.in_open_interval(
                candidate, node.node_id, key
            ):
                return candidate
        return node.node_id

    def _lookup_internal(self, key: int, start: int) -> Optional[int]:
        result = self.lookup(key, start)
        return result.owner if result.succeeded else None

    def lookup(self, key: int, start: int) -> LookupResult:
        """Iteratively resolve the owner of ``key`` starting at ``start``.

        Follows fingers exactly as a distributed Chord lookup would: at each
        step the current node either answers (its live successor owns the
        key) or forwards to the closest preceding live finger. Dead next
        hops are skipped via successor lists. Gives up (``succeeded=False``)
        after ``2 * bits + len(ring)`` hops, which only happens on heavily
        corrupted routing state.
        """
        self.space.validate(key)
        if start not in self:
            raise RoutingError(f"lookup must start at a live node, got {start}")
        path = [start]
        current = self._node_view(start)
        max_hops = 2 * self.space.bits + len(self._alive_sorted)
        for _ in range(max_hops):
            successor_id = self._first_live_successor(current)
            if successor_id == current.node_id and len(self._alive_sorted) == 1:
                return LookupResult(key, current.node_id, tuple(path), True)
            if self.space.in_half_open_interval(key, current.node_id, successor_id):
                path.append(successor_id)
                return LookupResult(key, successor_id, tuple(path), True)
            next_id = self._closest_preceding_node(current, key)
            if next_id == current.node_id:
                next_id = successor_id
            if next_id == current.node_id:
                break
            path.append(next_id)
            current = self._node_view(next_id)
        return LookupResult(key, None, tuple(path), False)

    def lookup_key(self, key_string: str, start: int) -> LookupResult:
        """Hash ``key_string`` onto the ring and resolve its owner."""
        return self.lookup(self.space.hash_key(key_string), start)

    # ------------------------------------------------------------------
    # Key-value storage with successor-list replication
    # ------------------------------------------------------------------
    # SOS beacons keep state in the DHT (the target -> servlet binding);
    # Chord replicates each key on the owner and its next live successors
    # so the binding survives owner failures until re-replication runs.

    DEFAULT_REPLICAS = 3

    def _replica_nodes(self, key: int, replicas: int) -> List[int]:
        """The owner of ``key`` plus its next ``replicas - 1`` live
        successors (ring order, distinct)."""
        owner = self._ideal_successor(key)
        nodes = [owner]
        index = bisect_right(self._alive_sorted, owner) % max(
            1, len(self._alive_sorted)
        )
        while len(nodes) < min(replicas, len(self._alive_sorted)):
            candidate = self._alive_sorted[index % len(self._alive_sorted)]
            index += 1
            if candidate not in nodes:
                nodes.append(candidate)
        return nodes

    def put(
        self, key: int, value: object, replicas: int = DEFAULT_REPLICAS
    ) -> List[int]:
        """Store ``value`` under ``key`` on the owner and its replicas.

        Returns the node identifiers holding a copy.
        """
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        self.space.validate(key)
        holders = self._replica_nodes(key, replicas)
        for node_id in holders:
            self._kv.setdefault(node_id, {})[key] = value
        return holders

    def put_key(
        self, key_string: str, value: object, replicas: int = DEFAULT_REPLICAS
    ) -> List[int]:
        """Hash ``key_string`` and store under the resulting identifier."""
        return self.put(self.space.hash_key(key_string), value, replicas)

    def get(self, key: int, start: Optional[int] = None) -> object:
        """Retrieve the value for ``key``, surviving owner failures.

        Routes to the owner via :meth:`lookup`; when the owner has no copy
        (e.g. it took over the range after a crash and re-replication has
        not run yet), its successor list is consulted for a surviving
        replica. Raises :class:`RoutingError` when no copy is found.
        """
        self.space.validate(key)
        if start is None:
            start = self._alive_sorted[0]
        result = self.lookup(key, start)
        if not result.succeeded or result.owner is None:
            raise RoutingError(f"lookup for key {key} failed")
        owner_store = self._kv.get(result.owner, {})
        if key in owner_store:
            return owner_store[key]
        for candidate in self._node_view(result.owner).successor_list:
            if candidate in self and key in self._kv.get(candidate, {}):
                return self._kv[candidate][key]
        # Last resort: any live replica (models a directory-wide search).
        for node_id in self._alive_sorted:
            if key in self._kv.get(node_id, {}):
                return self._kv[node_id][key]
        raise RoutingError(f"no surviving replica for key {key}")

    def get_key(self, key_string: str, start: Optional[int] = None) -> object:
        """Hash ``key_string`` and retrieve the stored value."""
        return self.get(self.space.hash_key(key_string), start)

    def maintain_replicas(self, replicas: int = DEFAULT_REPLICAS) -> int:
        """Restore the replication factor after churn.

        For every stored key, copies the value onto missing replica nodes
        and drops copies from nodes outside the replica set. Returns the
        number of copy operations performed.
        """
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        # Collect the surviving copies.
        values: Dict[int, object] = {}
        holders: Dict[int, List[int]] = {}
        for node_id in self._alive_sorted:
            for key, value in self._kv.get(node_id, {}).items():
                values[key] = value
                holders.setdefault(key, []).append(node_id)
        copies = 0
        for key, value in values.items():
            desired = set(self._replica_nodes(key, replicas))
            current = set(holders.get(key, ()))
            for node_id in desired - current:
                self._kv.setdefault(node_id, {})[key] = value
                copies += 1
            for node_id in current - desired:
                del self._kv[node_id][key]
        return copies

    def replica_count(self, key: int) -> int:
        """Number of live nodes currently holding ``key``."""
        return sum(
            1
            for node_id in self._alive_sorted
            if key in self._kv.get(node_id, {})
        )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def lookup_statistics(self, samples: int = 200, rng=None) -> "LookupStatistics":
        """Sample random lookups and summarize hop counts and correctness.

        Used by operational dashboards and tests asserting the O(log N)
        bound; lookups start at uniformly random live nodes with uniformly
        random keys.
        """
        if samples < 1:
            raise ConfigurationError("samples must be >= 1")
        generator = np.random.default_rng(rng) if not isinstance(
            rng, np.random.Generator
        ) else rng
        hops: List[int] = []
        correct = 0
        failed = 0
        live = self._alive_sorted
        for _ in range(samples):
            key = int(generator.integers(0, self.space.size))
            start = live[int(generator.integers(0, len(live)))]
            result = self.lookup(key, start)
            if not result.succeeded:
                failed += 1
                continue
            if result.owner == self.find_successor(key):
                correct += 1
                hops.append(result.hops)
        return LookupStatistics(
            samples=samples,
            correct=correct,
            failed=failed,
            mean_hops=sum(hops) / len(hops) if hops else float("nan"),
            max_hops=max(hops) if hops else 0,
        )


@dataclasses.dataclass(frozen=True)
class LookupStatistics:
    """Aggregate outcome of sampled Chord lookups."""

    samples: int
    correct: int
    failed: int
    mean_hops: float
    max_hops: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.samples
