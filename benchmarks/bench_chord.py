"""Looped Chord lookups: 10k key resolutions on a 2000-node, 24-bit ring.

Times the per-key ``ChordRing.lookup`` that ``SOSProtocol`` resolves
beacons with, one lookup at a time.
"""

from __future__ import annotations

import numpy as np

from repro.overlay.chord import ChordRing

BITS = 24
NODES = 2000
QUERIES = 10_000
SEED = 11


def _ring() -> ChordRing:
    rng = np.random.default_rng(SEED)
    ids = sorted(
        int(i) for i in rng.choice(2**BITS, size=NODES, replace=False)
    )
    return ChordRing.build(ids, bits=BITS)


def _queries(ring: ChordRing):
    rng = np.random.default_rng(SEED + 1)
    keys = [int(k) for k in rng.integers(0, 2**BITS, size=QUERIES)]
    starts = [int(s) for s in rng.choice(ring.live_node_ids, size=QUERIES)]
    return keys, starts


def _run_loop(ring, keys, starts):
    return [
        ring.lookup(key, start=start) for key, start in zip(keys, starts)
    ]


def test_chord_10k_lookup_loop(benchmark):
    ring = _ring()
    keys, starts = _queries(ring)
    results = benchmark.pedantic(
        _run_loop, args=(ring, keys, starts), rounds=1, iterations=1
    )
    assert all(r.succeeded for r in results)
