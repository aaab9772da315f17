"""The per-event token-bucket scan oracle and its engine-level hook.

:func:`scalar_bucket_scan` replays every event's Lindley deficit
recursion one at a time in plain Python floats — no closed form, no run
skipping — and is the reference the numpy tier's
``fastsim._grouped_bucket_scan`` must match decision for decision.
:func:`engine_tier` swaps it into the numpy kernels for whole-engine
runs, so reports can be compared against it field for field.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, Tuple

import numpy as np
import pytest

from repro.perf import fastsim
from repro.perf.compiled import available_tiers

#: Test-side label of a numpy-tier run with the per-event scan swapped in.
SCAN_ORACLE = "scalar"


def scalar_bucket_scan(
    slots: np.ndarray,
    times: np.ndarray,
    capacity: float,
    burst: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-event Python replay of the grouped token-bucket scan.

    Same return convention as ``fastsim._grouped_bucket_scan``;
    rejected events leave the ``(z, y)`` state untouched because the
    clamp at zero makes the deficit a pure function of the last
    *accept*, not of intervening rejects.
    """
    n = len(slots)
    slot_list = [int(value) for value in slots.tolist()]
    time_list = [float(value) for value in times.tolist()]
    order = sorted(range(n), key=lambda i: (slot_list[i], time_list[i]))
    accept = np.zeros(n, dtype=bool)
    limit = burst - 1.0
    offered: Dict[int, int] = {}
    taken: Dict[int, int] = {}
    state: Dict[int, Tuple[float, float]] = {}
    for i in order:
        slot = slot_list[i]
        s = time_list[i] * capacity
        z, y = state.get(slot, (0.0, 0.0))
        zp = z - (s - y)
        if zp < 0.0:
            zp = 0.0
        offered[slot] = offered.get(slot, 0) + 1
        if zp <= limit:
            accept[i] = True
            state[slot] = (zp + 1.0, s)
            taken[slot] = taken.get(slot, 0) + 1
    unique = sorted(offered)
    unique_slots = np.asarray(unique, dtype=np.int64)
    accepted_per = np.asarray(
        [taken.get(slot, 0) for slot in unique], dtype=np.int64
    )
    dropped_per = np.asarray(
        [offered[slot] - taken.get(slot, 0) for slot in unique],
        dtype=np.int64,
    )
    return accept, unique_slots, accepted_per, dropped_per


def engine_tiers() -> Tuple[str, ...]:
    """The scan oracle followed by every tier this machine can run."""
    return (SCAN_ORACLE,) + available_tiers()


@contextlib.contextmanager
def engine_tier(tier: str) -> Iterator[str]:
    """Yield the ``PacketSimConfig.tier`` to run test tier ``tier`` at.

    :data:`SCAN_ORACLE` runs the numpy tier with
    :func:`scalar_bucket_scan` in place of the grouped scan (both the
    bucket replay and the congestion timelines use it) until the block
    exits; any other name is a real tier and passes through.
    """
    if tier != SCAN_ORACLE:
        yield tier
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastsim, "_grouped_bucket_scan", scalar_bucket_scan)
        yield "numpy"
