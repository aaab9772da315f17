"""Span tracing installed from outside the program.

The benchmark measures layers without touching ``src/``: :class:`Tracer`
replaces the public callables listed in :data:`TRACE_POINTS` with
wrappers that record one :class:`Span` per call (name, start, end,
parent span, iteration id) plus per-layer counts, and puts every
original back on :meth:`Tracer.restore`. Spans stay in memory until the
run writes them out.

Wrappers run in the calling thread and keep one parent stack, which is
enough for the closed-loop workloads the benchmark traces (all
single-threaded). Server-side layers of the service live in worker
processes the wrappers cannot reach; those come from ``/metrics``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Hook = Callable[["Tracer", tuple, dict, Any], None]


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    iteration: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(
    intervals: Sequence[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Intervals may nest or overlap; each is clipped to ``[lo, hi]``
    first, so time a child spends outside its parent is not subtracted.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        elif b > run_end:
            run_end = b
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration
        - covered_length(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


# ----------------------------------------------------------------------
# Result hooks: counts measured where the work happens
# ----------------------------------------------------------------------


def _count_delivered(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["sos.delivered"] += int(bool(result.delivered))


def _count_packets(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["simulation.packets_offered"] += int(result.sent)
    tracer.counts["simulation.delivered"] += int(result.delivered)
    tracer.counts["simulation.dropped_congested"] += int(result.dropped_at_congested)
    tracer.counts["simulation.dropped_no_neighbor"] += int(result.dropped_no_neighbor)
    tracer.counts["simulation.attack_packets"] += int(result.attack_packets_absorbed)


def _count_observations(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    node_ids = args[1] if len(args) > 1 else kwargs["node_ids"]
    tracer.counts["detection.observations"] += int(len(node_ids))


def _count_repaired(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["repair.nodes_repaired"] += len(args[0].last_repaired)


#: ``(module, class or None for a module function, attribute, span name,
#: result hook)``. Span names are ``<repro.* layer>.<operation>``.
TRACE_POINTS: Tuple[Tuple[str, Optional[str], str, str, Optional[Hook]], ...] = (
    ("repro.overlay.network", "OverlayNetwork", "__init__", "overlay.network_build", None),
    ("repro.overlay.chord", "ChordRing", "build", "overlay.chord_build", None),
    ("repro.sos.deployment", "SOSDeployment", "deploy", "sos.deploy", None),
    ("repro.attacks.attacker", "IntelligentAttacker", "execute", "attacks.execute", None),
    ("repro.sos.protocol", "SOSProtocol", "send", "sos.send", _count_delivered),
    ("repro.simulation.monte_carlo", "MonteCarloEstimator", "estimate", "simulation.mc", None),
    ("repro.scenarios.schedule", None, "compile_scenario", "scenarios.compile", None),
    ("repro.perf.fastsim", None, "encode_deployment", "perf.encode", None),
    ("repro.simulation.packet_sim", "PacketLevelSimulation", "run", "simulation.packet_run", _count_packets),
    ("repro.perf.compiled", "KernelSet", "bucket_scan", "perf.compiled.bucket_scan", None),
    ("repro.perf.compiled", "KernelSet", "timeline_table", "perf.compiled.timeline_table", None),
    ("repro.perf.compiled", "KernelSet", "route", "perf.compiled.route", None),
    ("repro.perf.compiled", "KernelSet", "welford", "perf.compiled.welford", None),
    ("repro.perf.compiled", "KernelSet", "detect_bins", "perf.compiled.detect_bins", None),
    ("repro.detection.monitor", "TrafficMonitor", "observe_batch", "detection.observe", _count_observations),
    ("repro.detection.monitor", "TrafficMonitor", "flagged_nodes", "detection.flag", None),
    ("repro.repair.defender", "RepairingDefender", "scan_and_repair", "repair.scan", _count_repaired),
)


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter[str] = Counter()
        self.iteration = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(self, function: Callable[..., Any], name: str, hook: Optional[Hook] = None) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, tracer.clock(), 0.0, parent, tracer.iteration)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            tracer.counts[name + "_calls"] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self, points: Sequence[Tuple[str, Optional[str], str, str, Optional[Hook]]] = TRACE_POINTS) -> None:
        """Wrap every point; module functions are also rebound wherever a
        loaded ``repro`` module imported them by name."""
        for module_name, class_name, attribute, name, hook in points:
            module = importlib.import_module(module_name)
            if class_name is None:
                original = getattr(module, attribute)
                traced = self.wrap(original, name, hook)
                for loaded_name, loaded in list(sys.modules.items()):
                    if (loaded_name == "repro" or loaded_name.startswith("repro.")) \
                            and loaded is not None \
                            and loaded.__dict__.get(attribute) is original:
                        self._set(loaded, attribute, traced)
                continue
            owner = getattr(module, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(self.wrap(raw.__func__, name, hook))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self.wrap(raw.__func__, name, hook))
            else:
                replacement = self.wrap(raw, name, hook)
            self._set(owner, attribute, replacement)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per span name: summed duration and summed self time."""
        duration: Dict[str, float] = {}
        own: Dict[str, float] = {}
        for span, self_time in zip(self.spans, self_times(self.spans)):
            duration[span.name] = duration.get(span.name, 0.0) + span.duration
            own[span.name] = own.get(span.name, 0.0) + self_time
        return duration, own

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span and count as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "meta": meta,
                    "counts": dict(sorted(self.counts.items())),
                    "spans": [dataclasses.asdict(span) for span in self.spans],
                },
                handle,
            )
