"""Column deployment and congestion vs their per-node oracles.

Each test runs the column path and the per-node loop of
:mod:`tests.sos.deploy_oracle` from equal seeds and compares everything
the loops write: layer codes and membership, every neighbor table (as
tuples and as the gathered matrix), authenticator enrollment, the
filters' servlet whitelist, the health columns and the per-layer
``bad``/``crashed`` counters, and the RNG state left behind.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.attacks.knowledge import AttackerKnowledge
from repro.attacks.strategies import _congestion_phase, _outcome
from repro.core import SOSArchitecture
from repro.core.mapping import MappingPolicy
from repro.overlay.network import OverlayNetwork
from repro.sos.deployment import SOSDeployment
from repro.utils.seeding import make_rng
from tests.sos.deploy_oracle import (
    congestion_phase_per_node,
    damage_per_node,
    deploy_per_node,
    reassign_per_node,
)

NODES = 300


@dataclasses.dataclass(frozen=True)
class _Unclamped(MappingPolicy):
    """Asks for more neighbors than any layer holds (deployment clips)."""

    degree: int = 40

    def degree_for(self, next_layer_size: float) -> int:
        return self.degree

    @property
    def label(self) -> str:
        return f"one-to-{self.degree}-unclamped"


ARCHITECTURES = {
    "one-to-one": dict(layers=3, mapping="one-to-one", sos_nodes=30),
    "one-to-half": dict(layers=3, mapping="one-to-half", sos_nodes=30),
    "one-to-two": dict(layers=4, mapping="one-to-two", sos_nodes=41),
    "clipped": dict(layers=3, mapping=_Unclamped(), sos_nodes=30),
    "increasing": dict(
        layers=3, mapping="one-to-half", sos_nodes=31, distribution="increasing"
    ),
}


def _architecture(name: str) -> SOSArchitecture:
    return SOSArchitecture(total_overlay_nodes=NODES, filters=4, **ARCHITECTURES[name])


def _pair(name: str, seed: int):
    """``(column, oracle)`` deployments of one architecture from one seed."""
    architecture = _architecture(name)
    column_rng, oracle_rng = make_rng(seed), make_rng(seed)
    column = SOSDeployment.deploy(
        architecture, network=OverlayNetwork(NODES, rng=seed), rng=column_rng
    )
    oracle = deploy_per_node(architecture, OverlayNetwork(NODES, rng=seed), oracle_rng)
    assert column_rng.bit_generator.state == oracle_rng.bit_generator.state
    return column, oracle


def _counters(deployment: SOSDeployment):
    return deployment.bad_counts(), deployment.crashed_counts()


def assert_same_state(column: SOSDeployment, oracle: SOSDeployment) -> None:
    top = column.architecture.layers + 1
    store, oracle_store = column.network.store, oracle.network.store
    np.testing.assert_array_equal(store.layer, oracle_store.layer)
    np.testing.assert_array_equal(store.neighbor_len, oracle_store.neighbor_len)
    for layer in range(1, top + 1):
        assert column.layer_members(layer) == oracle.layer_members(layer)
    for row in range(len(store)):
        assert store.neighbors_of(row) == oracle_store.neighbors_of(row)
    for layer in range(1, top):
        width = column.architecture.mapping_degree(layer + 1)
        width = min(width, len(column.layer_members(layer + 1)))
        rows = column.member_rows(layer)
        np.testing.assert_array_equal(
            store.neighbor_matrix(rows, width),
            oracle_store.neighbor_matrix(rows, width),
        )
    everyone = store.ids.tolist() + column.filters.filter_ids
    for layer in range(0, top + 1):
        for node_id in everyone:
            assert column.authenticator.is_enrolled(
                layer, node_id
            ) == oracle.authenticator.is_enrolled(layer, node_id)
    for node_id in store.ids.tolist():
        assert column.filters.admits(node_id) == oracle.filters.admits(node_id)
    np.testing.assert_array_equal(store.health, oracle_store.health)
    np.testing.assert_array_equal(
        column.filters.store.health, oracle.filters.store.health
    )
    assert _counters(column) == _counters(oracle)


def _damage(deployment: SOSDeployment) -> None:
    """Crash, congest and compromise a spread of members via node views."""
    for layer in range(1, deployment.architecture.layers + 1):
        members = deployment.layer_members(layer)
        deployment.network.get(members[0]).crash()
        deployment.network.get(members[1]).congest()
        deployment.network.get(members[-1]).compromise()
    deployment.filters.congest(deployment.filters.filter_ids[0])


@pytest.mark.parametrize("name", sorted(ARCHITECTURES))
@pytest.mark.parametrize("seed", [3, 11])
def test_deploy_matches_oracle(name, seed):
    column, oracle = _pair(name, seed)
    assert_same_state(column, oracle)
    _damage(column)
    _damage(oracle)
    assert_same_state(column, oracle)
    counts = [
        damage_per_node(oracle, health)
        for health in ("compromised", "congested", "crashed")
    ]
    bad = {layer: sum(count[layer] for count in counts) for layer in counts[0]}
    assert _counters(column) == (bad, counts[2])


@pytest.mark.parametrize("name", ["one-to-half", "clipped"])
def test_redeploy_on_a_wired_network_matches_oracle(name):
    """A second deploy rewrites tables that already hold compact rows."""
    architecture = _architecture(name)
    column_net, oracle_net = OverlayNetwork(NODES, rng=5), OverlayNetwork(NODES, rng=5)
    column_rng, oracle_rng = make_rng(6), make_rng(6)
    for _ in range(3):
        column = SOSDeployment.deploy(architecture, network=column_net, rng=column_rng)
        oracle = deploy_per_node(architecture, oracle_net, oracle_rng)
        assert_same_state(column, oracle)
    assert column_rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("name", ["one-to-half", "one-to-two"])
def test_reassign_membership_matches_oracle(name):
    column, oracle = _pair(name, 9)
    count = sum(column.architecture.integer_layer_sizes)
    chosen = column.network.store.ids[::-1][:count].tolist()
    column_rng, oracle_rng = make_rng(4), make_rng(4)
    column.reassign_membership(chosen, column_rng)
    reassign_per_node(oracle, chosen, oracle_rng)
    assert_same_state(column, oracle)
    assert column_rng.bit_generator.state == oracle_rng.bit_generator.state


# ----------------------------------------------------------------------
# Congestion phase
# ----------------------------------------------------------------------


def _knowledge(deployment: SOSDeployment, scenario: str) -> AttackerKnowledge:
    """Attacker knowledge for one scenario, with matching node damage."""
    knowledge = AttackerKnowledge()
    layer1, layer2, layer3 = (deployment.layer_members(i) for i in (1, 2, 3))
    broken = layer1[:3]
    for node_id in broken:
        knowledge.record_attempt(node_id, True)
        deployment.network.get(node_id).compromise()
    knowledge.learn_disclosure(layer2[:6] + layer3[:2])
    if scenario == "disclosed-filters":
        knowledge.learn_disclosure([], deployment.filters.filter_ids[:3])
    if scenario == "already-compromised":
        # Compromised and crashed nodes among the disclosed targets: the
        # compromised one stays compromised, the crashed one floods.
        deployment.network.get(layer2[0]).compromise()
        deployment.network.get(layer2[1]).crash()
        deployment.network.get(layer3[0]).congest()
    return knowledge


SCENARIOS = {
    # name: (scenario, budget)
    "budget-below-disclosed": ("disclosed-filters", 5),
    "budget-equals-disclosed": ("disclosed-filters", 11),
    "surplus": ("plain", 60),
    "surplus-exceeds-pool": ("plain", 1000),
    "disclosed-filters": ("disclosed-filters", 30),
    "already-compromised": ("already-compromised", 20),
    "already-compromised-below": ("already-compromised", 4),
    "zero-budget": ("plain", 0),
}


@pytest.mark.parametrize("case", sorted(SCENARIOS))
@pytest.mark.parametrize("name", ["one-to-half", "clipped"])
def test_congestion_phase_matches_oracle(case, name):
    scenario, budget = SCENARIOS[case]
    column, oracle = _pair(name, 21)
    column_knowledge = _knowledge(column, scenario)
    oracle_knowledge = _knowledge(oracle, scenario)
    column_rng, oracle_rng = make_rng(8), make_rng(8)
    spent = _congestion_phase(column, column_knowledge, budget, column_rng)
    assert spent == congestion_phase_per_node(
        oracle, oracle_knowledge, budget, oracle_rng
    )
    assert column_rng.bit_generator.state == oracle_rng.bit_generator.state
    assert_same_state(column, oracle)
    outcome = _outcome(column, column_knowledge, 1, 0, spent)
    assert outcome.broken_per_layer == damage_per_node(oracle, "compromised")
    assert outcome.congested_per_layer == damage_per_node(oracle, "congested")


def test_zero_budget_congests_nothing():
    column, _ = _pair("one-to-half", 21)
    knowledge = _knowledge(column, "plain")
    before = column.network.store.health.copy()
    rng = make_rng(8)
    state = rng.bit_generator.state
    assert _congestion_phase(column, knowledge, 0, rng) == 0
    assert rng.bit_generator.state == state
    np.testing.assert_array_equal(column.network.store.health, before)
