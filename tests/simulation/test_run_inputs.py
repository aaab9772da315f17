"""Both packet engines reject bad run inputs with the same error.

``PacketLevelSimulation.run`` (either engine) and a standalone
``run_fast`` share one input check: flood targets, scheduled attack
targets and surge contacts must be SOS nodes or filters, marking must
cover every flood target and cannot be combined with a schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SOSArchitecture
from repro.detection.marking import (
    MarkCollector,
    MarkingConfig,
    build_attack_graph,
)
from repro.errors import DetectionError, SimulationError
from repro.perf.fastsim import run_fast
from repro.scenarios.schedule import InjectionSchedule
from repro.scenarios.vectors import SurgeSource
from repro.simulation.packet_sim import PacketLevelSimulation, PacketSimConfig
from repro.sos.deployment import SOSDeployment

CONFIG = PacketSimConfig(duration=6.0, warmup=1.0, clients=2)
NOT_A_NODE = 1_000_000_007


def _deployment():
    arch = SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=300,
        sos_nodes=24,
        filters=4,
    )
    return SOSDeployment.deploy(arch, rng=5)


def _marking(targets):
    config = MarkingConfig(probability=0.1, sources_per_target=2, path_depth=4)
    return MarkCollector(build_attack_graph(targets, config), config)


def _run(engine, dep, flood_targets=(), schedule=None, marking=None):
    if engine == "standalone":
        return run_fast(
            dep, CONFIG, rng=3, flood_targets=flood_targets,
            marking=marking, schedule=schedule,
        )
    simulation = PacketLevelSimulation(dep, CONFIG, rng=3, marking=marking)
    return simulation.run(
        flood_targets=flood_targets, fast=engine == "fast", schedule=schedule
    )


ENGINES = ["event", "fast", "standalone"]


@pytest.mark.parametrize("engine", ENGINES)
def test_unknown_flood_target(engine):
    with pytest.raises(SimulationError, match="flood target 1000000007"):
        _run(engine, _deployment(), flood_targets=[NOT_A_NODE])


@pytest.mark.parametrize("engine", ENGINES)
def test_unknown_scheduled_attack_target(engine):
    schedule = InjectionSchedule(attack_times={NOT_A_NODE: np.array([2.0])})
    with pytest.raises(SimulationError, match="scheduled attack target"):
        _run(engine, _deployment(), schedule=schedule)


@pytest.mark.parametrize("engine", ENGINES)
def test_unknown_surge_contact(engine):
    dep = _deployment()
    contacts = list(dep.sample_client_contacts(np.random.default_rng(1)))
    contacts[-1] = NOT_A_NODE
    schedule = InjectionSchedule(
        attack_times={},
        surge_sources=(
            SurgeSource(contacts=tuple(contacts), times=np.array([2.0])),
        ),
    )
    with pytest.raises(
        SimulationError, match="surge contact 1000000007 is not an SOS node"
    ):
        _run(engine, dep, schedule=schedule)


@pytest.mark.parametrize("engine", ENGINES)
def test_marking_rejects_a_schedule(engine):
    dep = _deployment()
    target = dep.layer_members(1)[0]
    schedule = InjectionSchedule(attack_times={target: np.array([2.0])})
    with pytest.raises(DetectionError, match="scheduled scenario vectors"):
        _run(engine, dep, schedule=schedule, marking=_marking([target]))


@pytest.mark.parametrize("engine", ENGINES)
def test_marking_must_cover_flood_targets(engine):
    dep = _deployment()
    covered, uncovered = dep.layer_members(1)[:2]
    with pytest.raises(DetectionError, match=f"{uncovered}"):
        _run(
            engine, dep, flood_targets=[covered, uncovered],
            marking=_marking([covered]),
        )
