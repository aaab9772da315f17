"""Per-node oracles for deployment wiring and the congestion phase.

:class:`~repro.sos.deployment.SOSDeployment` enrolls and wires the
overlay with column writes, and the attack strategies congest and count
damage on the health columns. The functions here are the per-node loops
those column writes replaced: every node is resolved to its
:class:`~repro.overlay.node.OverlayNode` view and written one at a time.
They consume the same RNG draws in the same order, so a column path and
its oracle, fed equal seeds, must leave equal state behind.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.attacks.knowledge import AttackerKnowledge
from repro.core import SOSArchitecture
from repro.overlay.network import OverlayNetwork
from repro.sos.auth import HopAuthenticator
from repro.sos.deployment import SOSDeployment
from repro.sos.filters import FilterRing


def _sample(rng, pool: Sequence[int], count: int) -> List[int]:
    count = min(count, len(pool))
    if count <= 0:
        return []
    chosen = rng.choice(len(pool), size=count, replace=False)
    return [pool[int(i)] for i in chosen]


def wire_per_node(deployment: SOSDeployment, generator) -> None:
    """One ``set_neighbors`` per node view, whitelisting servlets as it goes."""
    arch = deployment.architecture
    for layer in range(1, arch.layers + 1):
        next_layer = layer + 1
        candidates = deployment.layer_members(next_layer)
        degree = min(arch.mapping_degree(next_layer), len(candidates))
        for node_id in deployment.layer_members(layer):
            chosen = generator.choice(len(candidates), size=degree, replace=False)
            neighbors = tuple(candidates[int(i)] for i in chosen)
            deployment.network.get(node_id).set_neighbors(neighbors)
            if next_layer == arch.layers + 1:
                for _ in neighbors:
                    deployment.filters.allow_servlet(node_id)


def _enroll_per_node(
    network: OverlayNetwork, node_ids: Sequence[int], sizes: Sequence[int]
) -> Dict[int, List[int]]:
    membership: Dict[int, List[int]] = {}
    cursor = 0
    for layer, size in enumerate(sizes, start=1):
        members = list(node_ids[cursor : cursor + size])
        cursor += size
        for node_id in members:
            network.get(node_id).sos_layer = layer
        membership[layer] = sorted(members)
    return membership


def deploy_per_node(
    architecture: SOSArchitecture, network: OverlayNetwork, generator
) -> SOSDeployment:
    """Sample and shuffle node views, then enroll and wire node by node."""
    network.reset_roles()
    network.reset_health()
    sizes = architecture.integer_layer_sizes
    sos_nodes = network.random_nodes(sum(sizes), rng=generator)
    generator.shuffle(sos_nodes)
    membership = _enroll_per_node(
        network, [node.node_id for node in sos_nodes], sizes
    )
    filters = FilterRing(
        count=architecture.filters,
        layer=architecture.layers + 1,
        id_offset=network.space.size,
    )
    membership[architecture.layers + 1] = filters.filter_ids
    authenticator = HopAuthenticator(architecture.layers + 1)
    for layer, members in membership.items():
        for member in members:
            authenticator.enroll(layer, member)
    deployment = SOSDeployment(
        architecture=architecture,
        network=network,
        filters=filters,
        authenticator=authenticator,
        layer_membership=membership,
    )
    wire_per_node(deployment, generator)
    return deployment


def reassign_per_node(
    deployment: SOSDeployment, chosen_nodes: Sequence[int], generator
) -> None:
    """:meth:`SOSDeployment.reassign_membership`, one node view at a time."""
    layers = deployment.architecture.layers
    for layer in range(1, layers + 1):
        for member in deployment.layer_members(layer):
            deployment.authenticator.revoke(layer, member)
            if layer == layers:
                deployment.filters.disallow_servlet(member)
    deployment.network.reset_roles()
    deployment.network.reset_health()
    membership = _enroll_per_node(
        deployment.network, chosen_nodes, deployment.architecture.integer_layer_sizes
    )
    membership[deployment.architecture.layers + 1] = deployment.filters.filter_ids
    deployment._layer_membership = membership
    deployment._invalidate_member_caches()
    for layer, members in membership.items():
        for member in members:
            deployment.authenticator.enroll(layer, member)
    wire_per_node(deployment, generator)


def congestion_phase_per_node(
    deployment: SOSDeployment,
    knowledge: AttackerKnowledge,
    budget: int,
    rng,
) -> int:
    """Flood disclosed targets, then surplus picks, one ``congest()`` each."""
    overlay_targets = sorted(knowledge.congestion_targets)
    filter_targets = sorted(knowledge.congestion_filter_targets)
    disclosed_targets = overlay_targets + filter_targets
    spent = 0
    if budget >= len(disclosed_targets):
        for node_id in disclosed_targets:
            deployment.resolve(node_id).congest()
        spent = len(disclosed_targets)
        surplus = budget - spent
        if surplus > 0:
            excluded = knowledge.broken | set(overlay_targets)
            pool = [
                node_id
                for node_id in deployment.network.node_ids
                if node_id not in excluded
            ]
            for node_id in _sample(rng, pool, surplus):
                deployment.resolve(node_id).congest()
                spent += 1
    else:
        for node_id in _sample(rng, disclosed_targets, budget):
            deployment.resolve(node_id).congest()
            spent += 1
    return spent


def damage_per_node(deployment: SOSDeployment, health: str) -> Dict[int, int]:
    """Members per layer whose view reports ``health`` (e.g. "congested")."""
    return {
        layer: sum(
            1
            for node_id in deployment.layer_members(layer)
            if deployment.resolve(node_id).health.value == health
        )
        for layer in range(1, deployment.architecture.layers + 2)
    }
