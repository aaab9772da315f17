"""The scale-out knobs nothing runs stay removed.

Replicas run in-process one after another, ``run_fast`` always encodes
its deployment, Chord resolves one lookup at a time, and the overlay
store has no shared-memory transport.
"""

from __future__ import annotations

import pytest

import repro.overlay.arrays as overlay_arrays
from repro.core import SOSArchitecture
from repro.overlay.chord import ChordRing
from repro.perf.fastsim import encode_deployment, run_fast, run_packet_replicas
from repro.simulation.packet_sim import PacketSimConfig
from repro.sos.deployment import SOSDeployment

ARCH = SOSArchitecture(
    layers=3,
    mapping="one-to-half",
    total_overlay_nodes=300,
    sos_nodes=24,
    filters=4,
)
CONFIG = PacketSimConfig(duration=6.0, warmup=1.0, clients=2)


def test_replicas_take_no_worker_count():
    with pytest.raises(TypeError):
        run_packet_replicas(ARCH, CONFIG, replicas=2, seed=1, workers=2)


def test_run_fast_takes_no_pre_encoded_arrays():
    dep = SOSDeployment.deploy(ARCH, rng=5)
    with pytest.raises(TypeError):
        run_fast(dep, CONFIG, rng=3, arrays=encode_deployment(dep))


def test_chord_has_no_batched_lookup():
    assert not hasattr(ChordRing, "lookup_batch")


def test_overlay_store_has_no_shared_memory_transport():
    assert not hasattr(overlay_arrays, "share_columns")
