"""Tests for deploying architectures onto overlays."""

from __future__ import annotations

import pytest

from repro.core import SOSArchitecture
from repro.errors import ConfigurationError
from repro.overlay import OverlayNetwork
from repro.sos.deployment import SOSDeployment
from repro.sos.roles import Role


def small_arch(**kwargs):
    defaults = dict(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=400,
        sos_nodes=60,
        filters=5,
    )
    defaults.update(kwargs)
    return SOSArchitecture(**defaults)


@pytest.fixture
def deployment():
    return SOSDeployment.deploy(small_arch(), rng=7)


class TestDeploy:
    def test_layer_sizes_match_architecture(self, deployment):
        sizes = [len(deployment.layer_members(i)) for i in (1, 2, 3)]
        assert sizes == deployment.architecture.integer_layer_sizes

    def test_filter_layer_present(self, deployment):
        assert len(deployment.layer_members(4)) == 5

    def test_sos_enrollment_marks_nodes(self, deployment):
        assert len(deployment.network.sos_nodes) == 60

    def test_deterministic_under_seed(self):
        a = SOSDeployment.deploy(small_arch(), rng=11)
        b = SOSDeployment.deploy(small_arch(), rng=11)
        assert a.layer_members(1) == b.layer_members(1)
        node = a.layer_members(1)[0]
        assert a.network.get(node).neighbors == b.network.get(node).neighbors

    def test_existing_network_reused(self):
        network = OverlayNetwork(400, rng=3)
        deployment = SOSDeployment.deploy(small_arch(), network=network, rng=5)
        assert deployment.network is network

    def test_network_size_mismatch_rejected(self):
        network = OverlayNetwork(100, rng=3)
        with pytest.raises(ConfigurationError, match="expects N=400"):
            SOSDeployment.deploy(small_arch(), network=network)

    def test_redeploy_resets_previous_roles(self):
        network = OverlayNetwork(400, rng=3)
        SOSDeployment.deploy(small_arch(), network=network, rng=5)
        second = SOSDeployment.deploy(small_arch(), network=network, rng=6)
        assert len(network.sos_nodes) == 60
        assert len(second.layer_members(1)) == 20


class TestNeighborTables:
    def test_mapping_degree_respected(self, deployment):
        arch = deployment.architecture
        for layer in (1, 2):
            expected = min(
                arch.mapping_degree(layer + 1),
                len(deployment.layer_members(layer + 1)),
            )
            for node_id in deployment.layer_members(layer):
                assert len(deployment.network.get(node_id).neighbors) == expected

    def test_neighbors_live_in_next_layer(self, deployment):
        for layer in (1, 2):
            next_members = set(deployment.layer_members(layer + 1))
            for node_id in deployment.layer_members(layer):
                neighbors = deployment.network.get(node_id).neighbors
                assert set(neighbors) <= next_members

    def test_neighbors_distinct(self, deployment):
        for layer in (1, 2, 3):
            for node_id in deployment.layer_members(layer):
                neighbors = deployment.resolve(node_id).neighbors
                assert len(set(neighbors)) == len(neighbors)

    def test_servlets_point_at_filters(self, deployment):
        filters = set(deployment.filters.filter_ids)
        for node_id in deployment.layer_members(3):
            neighbors = deployment.network.get(node_id).neighbors
            assert set(neighbors) <= filters
            assert deployment.filters.admits(node_id)

    def test_authenticator_enrollment(self, deployment):
        for layer in (1, 2, 3, 4):
            for node_id in deployment.layer_members(layer):
                assert deployment.authenticator.is_enrolled(layer, node_id)


class TestViews:
    def test_roles(self, deployment):
        assert deployment.role_of(deployment.layer_members(1)[0]) is Role.ACCESS_POINT
        assert deployment.role_of(deployment.layer_members(2)[0]) is Role.BEACON
        assert (
            deployment.role_of(deployment.layer_members(3)[0]) is Role.SECRET_SERVLET
        )
        assert deployment.role_of(deployment.filters.filter_ids[0]) is Role.FILTER

    def test_role_of_plain_node_rejected(self, deployment):
        plain = deployment.network.plain_nodes[0]
        with pytest.raises(ConfigurationError, match="not enrolled"):
            deployment.role_of(plain.node_id)

    def test_layer_members_out_of_range(self, deployment):
        with pytest.raises(ConfigurationError):
            deployment.layer_members(9)

    def test_client_contacts_are_layer_one(self, deployment):
        import numpy as np

        contacts = deployment.sample_client_contacts(np.random.default_rng(1))
        assert set(contacts) <= set(deployment.layer_members(1))
        assert len(contacts) == min(
            deployment.architecture.mapping_degree(1),
            len(deployment.layer_members(1)),
        )

    def test_bad_counts_and_reset(self, deployment):
        victim = deployment.layer_members(2)[0]
        deployment.network.get(victim).congest()
        deployment.filters.congest(deployment.filters.filter_ids[0])
        counts = deployment.bad_counts()
        assert counts[2] == 1
        assert counts[4] == 1
        deployment.reset_attack_state()
        assert all(v == 0 for v in deployment.bad_counts().values())

    def test_good_members(self, deployment):
        victim = deployment.layer_members(1)[0]
        deployment.network.get(victim).congest()
        good = deployment.good_members(1)
        assert victim not in good
        assert len(good) == len(deployment.layer_members(1)) - 1

    def test_reassign_membership(self, deployment):
        import numpy as np

        generator = np.random.default_rng(9)
        chosen = [node.node_id for node in deployment.network][:60]
        deployment.reassign_membership(chosen, generator)
        assert sorted(
            node_id
            for layer in (1, 2, 3)
            for node_id in deployment.layer_members(layer)
        ) == sorted(chosen)
        # Tables rewired and enrollment refreshed.
        first = deployment.layer_members(1)[0]
        assert deployment.network.get(first).neighbors
        assert deployment.authenticator.is_enrolled(1, first)

    def test_reassign_membership_drops_stale_trust(self, deployment):
        import numpy as np

        old_first = deployment.layer_members(1)
        assert len(old_first) == 20
        auth = deployment.authenticator
        stamps = {node_id: auth.issue(1, node_id, 7) for node_id in old_first}
        old_sos = set(deployment.sos_member_ids())
        fresh = [
            node.node_id for node in deployment.network
            if node.node_id not in old_sos
        ][:60]
        deployment.reassign_membership(fresh, np.random.default_rng(9))
        for node_id, mac in stamps.items():
            assert not auth.verify(1, node_id, 7, mac)
            assert not auth.is_enrolled(1, node_id)
        new_servlets = deployment.layer_members(3)
        everyone = [node.node_id for node in deployment.network]
        admitted = [n for n in everyone if deployment.filters.admits(n)]
        assert len(new_servlets) == 20
        assert sorted(admitted) == new_servlets

    def test_reassign_membership_wrong_count(self, deployment):
        import numpy as np

        with pytest.raises(ConfigurationError, match="need exactly"):
            deployment.reassign_membership([1, 2, 3], np.random.default_rng(1))

    def test_chord_ring_covers_sos_nodes(self, deployment):
        sos_ids = {node.node_id for node in deployment.network.sos_nodes}
        assert set(deployment.chord.live_node_ids) == sos_ids

    def test_chord_ring_covers_reassigned_nodes(self, deployment):
        import numpy as np

        assert deployment.chord.live_node_ids  # ring over the first membership
        chosen = [node.node_id for node in deployment.network][:60]
        deployment.reassign_membership(chosen, np.random.default_rng(9))
        sos_ids = {node.node_id for node in deployment.network.sos_nodes}
        assert sos_ids == set(chosen)
        assert set(deployment.chord.live_node_ids) == sos_ids
