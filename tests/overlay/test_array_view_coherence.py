"""Object views vs struct-of-arrays columns: one state, two faces.

Since the struct-of-arrays refactor every :class:`OverlayNode` is a thin
view over :class:`~repro.overlay.arrays.OverlayStore` columns, and the
fast-path encoder borrows those columns directly. These are the property
tests guarding that contract: random mutation storms driven through the
*object* API must be visible — exactly — through the columns, counters,
and the array encoder, and column-side bulk writes must be visible
through the object views. The encoder itself is pinned bit-identical to
the original object-walking oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SOSArchitecture
from repro.overlay.arrays import (
    HEALTH_COMPROMISED,
    HEALTH_CRASHED,
    HEALTH_GOOD,
    OverlayStore,
)
from repro.overlay.node import NodeHealth
from repro.perf.fastsim import (
    SlotIndex,
    _encode_deployment_objects,
    encode_deployment,
)
from repro.sos.deployment import SOSDeployment
from repro.utils.seeding import make_rng


def deployment(seed=17, nodes=300, sos=40):
    arch = SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=nodes,
        sos_nodes=sos,
        filters=4,
    )
    return SOSDeployment.deploy(arch, rng=seed)


def brute_force_counts(dep):
    """Recount bad/crashed per layer by walking every node object."""
    layers = dep.architecture.layers + 1
    bad = {layer: 0 for layer in range(1, layers + 1)}
    crashed = dict(bad)
    for layer in range(1, layers + 1):
        for node_id in dep.layer_members(layer):
            node = dep.resolve(node_id)
            bad[layer] += int(node.is_bad)
            crashed[layer] += int(node.is_crashed)
    return bad, crashed


class TestMutationStormCoherence:
    """Random object-API churn never desynchronizes columns or counters."""

    MUTATIONS = ("compromise", "congest", "crash", "restore", "recover")

    @pytest.mark.parametrize("seed", range(5))
    def test_object_writes_visible_in_columns(self, seed):
        dep = deployment(seed=seed)
        rng = make_rng(1000 + seed)
        members = dep.sos_member_ids()
        for round_index in range(20):
            for node_id in rng.choice(members, size=12, replace=False):
                node = dep.resolve(int(node_id))
                action = self.MUTATIONS[int(rng.integers(len(self.MUTATIONS)))]
                getattr(node, action)()
            # Column truth equals object truth, node by node.
            for node_id in members:
                node = dep.resolve(node_id)
                store = node._store
                assert store.get_health(node._row) == int(
                    store.health[node._row]
                )
                assert node.is_bad == (
                    int(store.health[node._row]) != HEALTH_GOOD
                )
            # Incremental counters equal the brute-force recount.
            bad, crashed = brute_force_counts(dep)
            assert dep.bad_counts() == bad
            assert dep.crashed_counts() == crashed

    def test_column_writes_visible_in_objects(self):
        dep = deployment()
        store = dep.network.store
        victims = dep.member_array(1)[:5]
        store.set_health_many(store.rows_of(victims), HEALTH_CRASHED)
        for node_id in victims:
            node = dep.resolve(int(node_id))
            assert node.health is NodeHealth.CRASHED
            assert node.is_crashed
        assert dep.crashed_counts()[1] == 5
        # And back: restore through the object API drains the counter.
        for node_id in victims:
            assert dep.resolve(int(node_id)).restore()
        assert dep.crashed_counts()[1] == 0

    def test_counter_recompute_is_idempotent(self):
        dep = deployment()
        store = dep.network.store
        dep.resolve(dep.sos_member_ids()[0]).compromise()
        before = (
            store._bad_per_layer.copy(),
            store._crashed_per_layer.copy(),
        )
        store.recompute_counters()
        assert np.array_equal(store._bad_per_layer, before[0])
        assert np.array_equal(store._crashed_per_layer, before[1])


class TestNeighborTableCoherence:
    """Compact neighbor storage behaves like the per-node tuples."""

    def test_object_and_matrix_reads_agree(self):
        dep = deployment()
        store = dep.network.store
        for layer in range(1, dep.architecture.layers):
            rows = dep.member_rows(layer)
            lens = store.neighbor_len[rows]
            width = int(lens.max(initial=0))
            matrix = store.neighbor_matrix(rows, width)
            for position, node_id in enumerate(dep.member_array(layer)):
                node = dep.resolve(int(node_id))
                row = matrix[position]
                assert tuple(row[row >= 0].tolist()) == node.neighbors

    def test_rows_without_tables_hit_the_sentinel(self):
        store = OverlayStore([5, 6, 7])
        store.set_neighbors(1, (6, 7))
        matrix = store.neighbor_matrix(np.asarray([0, 1, 2]), 2)
        assert matrix.tolist() == [[-1, -1], [6, 7], [-1, -1]]
        assert store.neighbors_of(0) == ()
        assert store.neighbors_of(1) == (6, 7)

    def test_rewrite_shrinks_and_pads(self):
        store = OverlayStore([1, 2])
        store.set_neighbors(0, (9, 8, 7))
        store.set_neighbors(0, (4,))
        assert store.neighbors_of(0) == (4,)
        assert store.neighbor_matrix(np.asarray([0]), 3).tolist() == [
            [4, -1, -1]
        ]

    def test_width_beyond_storage_raises(self):
        from repro.errors import ConfigurationError

        store = OverlayStore([1])
        store.set_neighbors(0, (2,))
        with pytest.raises(ConfigurationError):
            store.neighbor_matrix(np.asarray([0]), 9)

    def test_reset_roles_releases_tables(self):
        store = OverlayStore(list(range(10)))
        for row in range(10):
            store.set_neighbors(row, (row + 1,))
        store.reset_roles()
        assert all(store.neighbors_of(row) == () for row in range(10))
        # Released compact rows are reused, not leaked: re-wiring the
        # same population must not grow the table.
        capacity = store._nbr_table.shape[0]
        for row in range(10):
            store.set_neighbors(row, (row + 2,))
        assert store._nbr_table.shape[0] == capacity

    def test_epoch_bumps_invalidate_cached_structure(self):
        dep = deployment()
        first = encode_deployment(dep)
        assert encode_deployment(dep).node_ids is first.node_ids
        node = dep.resolve(dep.layer_members(1)[0])
        node.set_neighbors(node.neighbors)
        assert encode_deployment(dep).node_ids is not first.node_ids


class TestBulkNeighborRows:
    """``set_neighbor_rows`` equals one ``set_neighbors`` per row."""

    @staticmethod
    def _pair(ids):
        return OverlayStore(ids), OverlayStore(ids)

    @staticmethod
    def assert_same_tables(bulk, per_row):
        assert np.array_equal(bulk.neighbor_len, per_row.neighbor_len)
        rows = np.arange(len(bulk))
        width = int(per_row.neighbor_len.max(initial=0))
        assert np.array_equal(
            bulk.neighbor_matrix(rows, width), per_row.neighbor_matrix(rows, width)
        )
        for row in rows.tolist():
            assert bulk.neighbors_of(row) == per_row.neighbors_of(row)

    def test_matches_per_row_writes(self):
        bulk, per_row = self._pair(range(100, 120))
        rows = np.asarray([7, 2, 15, 0])
        table = np.asarray([[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]])
        bulk.set_neighbor_rows(rows, table)
        for row, neighbors in zip(rows.tolist(), table.tolist()):
            per_row.set_neighbors(row, neighbors)
        self.assert_same_tables(bulk, per_row)

    def test_rewrite_mixes_fresh_and_wired_rows(self):
        bulk, per_row = self._pair(range(10))
        for store in (bulk, per_row):
            store.set_neighbors(3, (1, 2, 4, 5))
            store.set_neighbors(6, (9,))
        rows = np.asarray([6, 1, 3])
        table = np.asarray([[0, 2], [7, 8], [5, 4]])
        bulk.set_neighbor_rows(rows, table)
        for row, neighbors in zip(rows.tolist(), table.tolist()):
            per_row.set_neighbors(row, neighbors)
        self.assert_same_tables(bulk, per_row)
        assert bulk.neighbor_matrix(np.asarray([3]), 4).tolist() == [[5, 4, -1, -1]]

    def test_grows_past_table_capacity(self):
        bulk, per_row = self._pair(range(40))
        rows = np.arange(40)[::-1]
        table = np.stack([rows + 1, rows + 2], axis=1)
        bulk.set_neighbor_rows(rows, table)
        for row, neighbors in zip(rows.tolist(), table.tolist()):
            per_row.set_neighbors(row, neighbors)
        self.assert_same_tables(bulk, per_row)

    def test_zero_width_rows(self):
        bulk, per_row = self._pair(range(4))
        bulk.set_neighbor_rows(np.asarray([1, 2]), np.empty((2, 0), dtype=np.int64))
        per_row.set_neighbors(1, ())
        per_row.set_neighbors(2, ())
        self.assert_same_tables(bulk, per_row)

    def test_invalidates_cached_tuples(self):
        store = OverlayStore(range(5))
        store.set_neighbors(2, (3, 4))
        assert store.neighbors_of(2) == (3, 4)  # cached tuple
        store.set_neighbor_rows(np.asarray([2, 0]), np.asarray([[1], [2]]))
        assert store.neighbors_of(2) == (1,)
        assert store.neighbors_of(0) == (2,)

    def test_one_epoch_bump_per_write(self):
        store = OverlayStore(range(6))
        epoch = store.wiring_epoch
        store.set_neighbor_rows(np.arange(6), np.zeros((6, 2), dtype=np.int64))
        assert store.wiring_epoch == epoch + 1

    def test_epoch_bump_invalidates_cached_structure(self):
        dep = deployment()
        first = encode_deployment(dep)
        rows = dep.member_rows(1)
        store = dep.network.store
        width = int(store.neighbor_len[rows].max())
        store.set_neighbor_rows(rows, store.neighbor_matrix(rows, width))
        assert encode_deployment(dep).node_ids is not first.node_ids

    def test_rejects_mismatched_or_repeated_rows(self):
        from repro.errors import ConfigurationError

        store = OverlayStore(range(5))
        with pytest.raises(ConfigurationError):
            store.set_neighbor_rows(np.asarray([0, 1]), np.zeros((3, 2)))
        with pytest.raises(ConfigurationError):
            store.set_neighbor_rows(np.asarray([1, 1]), np.zeros((2, 2)))


class TestBulkLayerRows:
    """``set_layer_rows`` equals one ``set_layer`` per row."""

    def test_matches_per_row_writes_and_migrates_counters(self):
        bulk, per_row = OverlayStore(range(12)), OverlayStore(range(12))
        for store in (bulk, per_row):
            store.set_layer(0, 2)
            store.set_health(0, HEALTH_CRASHED)
            store.set_health(5, HEALTH_COMPROMISED)
        rows = np.asarray([5, 0, 9, 3])
        layers = np.asarray([1, 3, 3, 2])
        epoch = bulk.wiring_epoch
        bulk.set_layer_rows(rows, layers)
        assert bulk.wiring_epoch == epoch + 1
        for row, layer in zip(rows.tolist(), layers.tolist()):
            per_row.set_layer(row, layer)
        assert np.array_equal(bulk.layer, per_row.layer)
        for layer in range(4):
            assert bulk.bad_count(layer) == per_row.bad_count(layer)
            assert bulk.crashed_count(layer) == per_row.crashed_count(layer)
        assert bulk.bad_count(3) == 1 and bulk.crashed_count(3) == 1


class TestEncoderBitIdentity:
    """Column-borrowing encoder == original object-walking oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_encodings_identical(self, seed):
        dep = deployment(seed=seed)
        # Mixed damage so is_bad is non-trivial.
        rng = make_rng(seed)
        for node_id in rng.choice(dep.sos_member_ids(), size=10, replace=False):
            node = dep.resolve(int(node_id))
            (node.compromise if rng.random() < 0.5 else node.congest)()
        fast = encode_deployment(dep)
        oracle = _encode_deployment_objects(dep)
        assert fast.layers == oracle.layers
        assert np.array_equal(fast.node_ids, oracle.node_ids)
        assert np.array_equal(fast.layer_of, oracle.layer_of)
        assert np.array_equal(fast.local_of, oracle.local_of)
        assert np.array_equal(fast.is_bad, oracle.is_bad)
        assert set(fast.members) == set(oracle.members)
        for layer in fast.members:
            assert np.array_equal(fast.members[layer], oracle.members[layer])
        assert set(fast.neighbors) == set(oracle.neighbors)
        for layer in fast.neighbors:
            assert np.array_equal(
                fast.neighbors[layer], oracle.neighbors[layer]
            )
        for node_id in fast.node_ids[:25]:
            assert fast.slot_of[int(node_id)] == oracle.slot_of[int(node_id)]


class TestSlotIndex:
    def test_dict_like_reads(self):
        index = SlotIndex(np.asarray([30, 10, 20], dtype=np.int64))
        assert 10 in index and 30 in index
        assert 11 not in index
        assert index[30] == 0 and index[10] == 1 and index[20] == 2
        with pytest.raises(KeyError):
            index[99]

    def test_vectorized_lookup_matches_scalar(self):
        ids = np.asarray([7, 3, 11, 5], dtype=np.int64)
        index = SlotIndex(ids)
        wanted = np.asarray([[5, 3], [7, 11]], dtype=np.int64)
        slots = index.lookup(wanted)
        assert slots.shape == wanted.shape
        for row in range(2):
            for col in range(2):
                assert slots[row, col] == index[int(wanted[row, col])]
        with pytest.raises(KeyError):
            index.lookup(np.asarray([3, 4], dtype=np.int64))
