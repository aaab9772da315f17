"""Fast packet engine vs event-driven oracle.

Two tiers of fidelity, mirroring the contract in
:mod:`repro.perf.fastsim`:

* both engines consume the same per-source RNG sub-streams, so the
  injection schedules (``sent``, ``attack_packets_absorbed``) are
  *bit-identical* on every matched seed, and any run in which no
  packet drops — the degenerate single-packet scenario included —
  yields a report that is identical field for field;
* flooded scenarios are *statistically equivalent* on matched seed
  sets — delivery ratio, per-layer drop mass, and mean latency agree
  within confidence-interval-scale bounds, because the fast path
  approximates next-hop congestion from timelines rather than the
  exact per-packet interleaving.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core import SOSArchitecture
from repro.errors import SimulationError
from repro.perf.fastsim import (
    mean_delivery_ratio,
    run_packet_replicas,
)
from repro.simulation.packet_sim import (
    PacketLevelSimulation,
    PacketSimConfig,
    flood_layer,
)
from repro.sos.deployment import SOSDeployment


def deployment(seed=11):
    arch = SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=400,
        sos_nodes=30,
        filters=4,
    )
    return SOSDeployment.deploy(arch, rng=seed)


def run_both(config, seed, targets=None):
    dep = deployment()
    event = PacketLevelSimulation(dep, config, rng=seed).run(
        flood_targets=targets, fast=False
    )
    fast = PacketLevelSimulation(dep, config, rng=seed).run(
        flood_targets=targets, fast=True
    )
    return event, fast


class TestDegenerateBitIdentity:
    # At most one packet is ever in flight, so RNG consumption order
    # cannot matter: the reports must be equal field for field.
    CONFIG = PacketSimConfig(
        duration=8.0, warmup=5.0, clients=1, client_rate=0.4
    )

    @pytest.mark.parametrize("seed", range(30))
    def test_single_packet_reports_identical(self, seed):
        event, fast = run_both(self.CONFIG, seed)
        assert dataclasses.asdict(event) == dataclasses.asdict(fast)

    def test_single_packet_with_flood_identical(self):
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        for seed in range(10):
            event = PacketLevelSimulation(dep, self.CONFIG, rng=seed).run(
                flood_targets=targets, fast=False
            )
            fast = PacketLevelSimulation(dep, self.CONFIG, rng=seed).run(
                flood_targets=targets, fast=True
            )
            assert event.sent == fast.sent
            assert event.attack_packets_absorbed == fast.attack_packets_absorbed
            assert event.delivered == fast.delivered


class TestStatisticalEquivalence:
    CONFIG = PacketSimConfig(
        duration=12.0, warmup=2.0, clients=6, client_rate=2.0
    )
    SEEDS = range(40)

    @staticmethod
    def _mean_and_sem(values):
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / max(1, len(values) - 1)
        return mean, math.sqrt(var / len(values))

    def test_healthy_runs_match_exactly(self):
        # With no flood nothing ever drops, and a no-drop run is
        # bit-identical by contract: routing choices cannot affect any
        # report field when every packet survives every hop.
        for seed in (0, 1, 2):
            event, fast = run_both(self.CONFIG, seed)
            assert event.delivery_ratio == 1.0
            assert dataclasses.asdict(event) == dataclasses.asdict(fast)

    def test_flooded_delivery_ratio_within_ci(self):
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        event_ratios, fast_ratios = [], []
        for seed in self.SEEDS:
            event = PacketLevelSimulation(dep, self.CONFIG, rng=seed).run(
                flood_targets=targets, fast=False
            )
            fast = PacketLevelSimulation(dep, self.CONFIG, rng=seed).run(
                flood_targets=targets, fast=True
            )
            event_ratios.append(event.delivery_ratio)
            fast_ratios.append(fast.delivery_ratio)
        event_mean, event_sem = self._mean_and_sem(event_ratios)
        fast_mean, fast_sem = self._mean_and_sem(fast_ratios)
        # Matched seed sets: means must sit within a 3-sigma band of the
        # combined standard error.
        band = 3.0 * math.sqrt(event_sem**2 + fast_sem**2) + 1e-9
        assert abs(event_mean - fast_mean) <= band

    def test_flooded_drop_structure_matches(self):
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        event_total = {}
        fast_total = {}
        for seed in range(10):
            event = PacketLevelSimulation(dep, self.CONFIG, rng=seed).run(
                flood_targets=targets, fast=False
            )
            fast = PacketLevelSimulation(dep, self.CONFIG, rng=seed).run(
                flood_targets=targets, fast=True
            )
            for layer, count in event.drops_per_layer.items():
                event_total[layer] = event_total.get(layer, 0) + count
            for layer, count in fast.drops_per_layer.items():
                fast_total[layer] = fast_total.get(layer, 0) + count
            assert event.bottleneck_layer() == fast.bottleneck_layer()
        # Both engines concentrate drops at the flooded entry layer.
        assert max(event_total, key=event_total.get) == 1
        assert max(fast_total, key=fast_total.get) == 1

    def test_congested_node_sets_agree(self):
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        event, fast = run_both(self.CONFIG, 0, targets=targets)
        # Flooded nodes saturate under either engine.
        assert set(targets) <= set(event.congested_nodes)
        assert set(targets) <= set(fast.congested_nodes)


class TestReplicaDispatcher:
    CONFIG = PacketSimConfig(
        duration=10.0, warmup=2.0, clients=4, client_rate=2.0
    )
    ARCH = SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=400,
        sos_nodes=30,
        filters=4,
    )

    def test_mean_delivery_ratio_helper(self):
        reports = run_packet_replicas(
            self.ARCH, self.CONFIG, replicas=3, seed=5
        )
        value = mean_delivery_ratio(reports)
        assert value == pytest.approx(
            sum(r.delivery_ratio for r in reports) / 3
        )
        with pytest.raises(SimulationError):
            mean_delivery_ratio([])

    def test_event_engine_replicas_supported(self):
        fast = run_packet_replicas(
            self.ARCH, self.CONFIG, replicas=2, seed=9, fast=True
        )
        event = run_packet_replicas(
            self.ARCH, self.CONFIG, replicas=2, seed=9, fast=False
        )
        # Same deployments, no flood: both deliver everything.
        assert all(r.delivery_ratio == 1.0 for r in fast)
        assert all(r.delivery_ratio == 1.0 for r in event)
        assert [r.sent for r in fast] == [r.sent for r in event]
