import sys
import types

import pytest

from sosbench.tracing import TRACE_POINTS, Span, Tracer, covered_length, self_times


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, 0)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 6.0, 7.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("x", 1.0, 5.0, parent=0),
        _span("y", 3.0, 8.0, parent=0),  # overlaps x on [3, 5]
        _span("z", 2.0, 4.0, parent=0),  # inside the union
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0)


def test_child_time_outside_the_parent_is_not_subtracted():
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered_length([], 0.0, 10.0) == 0.0


_FAKE_SOURCE = """
def work(n):
    return n + 1


class Thing:
    def method(self, n):
        return work(n) * 2

    @classmethod
    def make(cls):
        return cls()
"""


def _fake_module():
    module = types.ModuleType("repro._sosbench_fake")
    exec(_FAKE_SOURCE, module.__dict__)
    return module


def test_install_wraps_records_parents_and_restores(monkeypatch):
    module = _fake_module()
    alias = types.ModuleType("repro._sosbench_alias")
    alias.work = module.work  # imported by name elsewhere
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(sys.modules, alias.__name__, alias)
    originals = (module.work, module.Thing.__dict__["method"], module.Thing.__dict__["make"])
    points = (
        (module.__name__, None, "work", "fake.work", None),
        (module.__name__, "Thing", "method", "fake.method", None),
        (module.__name__, "Thing", "make", "fake.make", None),
    )
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install(points)
    try:
        thing = module.Thing.make()
        assert thing.method(1) == 4
        assert alias.work is module.work is not originals[0]
    finally:
        tracer.restore()
    assert (module.work, module.Thing.__dict__["method"], module.Thing.__dict__["make"]) == originals
    assert alias.work is originals[0]
    names = [(span.name, span.parent) for span in tracer.spans]
    assert names == [("fake.make", -1), ("fake.method", -1), ("fake.work", 1)]
    assert tracer.counts["fake.method_calls"] == 1


def _current(point):
    module_name, class_name, attribute, _, _ = point
    module = sys.modules[module_name]
    owner = module if class_name is None else getattr(module, class_name)
    return owner.__dict__[attribute]


def test_trace_points_restore_the_real_program():
    from repro.core import OneBurstAttack, SOSArchitecture
    from repro.simulation.monte_carlo import estimate_ps

    tracer = Tracer()
    originals = []
    tracer.install()
    try:
        originals = [original for _, _, original in tracer._patches]
        arch = SOSArchitecture(layers=2, mapping="one-to-two", total_overlay_nodes=300, sos_nodes=20)
        estimate = estimate_ps(arch, OneBurstAttack(5, 40), trials=3, clients_per_trial=2, seed=4)
    finally:
        tracer.restore()
    assert estimate.trials == 3
    assert tracer.counts["sos.deploy_calls"] == 3
    assert tracer.counts["sos.send_calls"] == 6
    first = {}
    for span in tracer.spans:
        first.setdefault(span.name, span)
    assert tracer.spans[first["sos.deploy"].parent].name == "simulation.mc"
    assert tracer.spans[first["overlay.chord_build"].parent].name == "sos.deploy"
    duration, own = tracer.totals()
    assert 0.0 < own["simulation.mc"] < duration["simulation.mc"]
    assert len(originals) >= len(TRACE_POINTS)
    assert all(_current(point) in originals for point in TRACE_POINTS)
