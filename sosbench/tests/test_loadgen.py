import time

import pytest

from sosbench import loadgen
from sosbench.loadgen import Request


class _Conn:
    def close(self):
        pass


def _sleeping_send(seconds):
    def send(conn, request):
        time.sleep(seconds)
        request.status = 200
        request.body = {}

    return send


def test_inflight_capped_and_lateness_measured_from_due_time():
    requests = [Request(i, 0.0, "eval", {}) for i in range(4)]
    hold = loadgen.run_open_loop(requests, _Conn, send=_sleeping_send(0.05), senders=2)
    assert hold.inflight_max == 2
    late = sorted(request.late for request in requests)
    assert late[1] < 0.03  # two went out at once
    assert late[2] >= 0.045 and late[3] >= 0.045  # two waited for a free sender
    for request in requests:
        assert request.latency == pytest.approx(request.finished - request.due)
        assert request.latency >= request.late + 0.045
    assert hold.wall_s == pytest.approx(max(r.finished for r in requests))


def test_on_time_requests_are_not_late():
    requests = [Request(i, 0.05 * i, "eval", {}) for i in range(5)]
    hold = loadgen.run_open_loop(requests, _Conn, send=_sleeping_send(0.005), senders=2)
    assert hold.inflight_max == 1
    assert max(request.late for request in requests) < 0.02


def test_failed_send_is_recorded_and_the_sender_reconnects():
    connections = []

    def connect():
        connections.append(_Conn())
        return connections[-1]

    def send(conn, request):
        if request.index == 0:
            raise ConnectionResetError("boom")
        request.status = 200

    requests = [Request(i, 0.0, "eval", {}) for i in range(3)]
    loadgen.run_open_loop(requests, connect, send=send, senders=1)
    assert not requests[0].ok and "boom" in requests[0].error
    assert requests[1].ok and requests[2].ok
    assert len(connections) == 2


def test_schedule_is_seeded_mixed_and_independent_of_hold_length():
    short = loadgen.build_schedule(3, 5.0)
    long = loadgen.build_schedule(3, 15.0)
    assert len(short) == 100 and len(long) == 300
    for a, b in zip(short[:60], long[:60]):
        assert (a.kind, a.payload) == (b.kind, b.payload)
    assert [r.due for r in loadgen.build_schedule(3, 5.0)] == [r.due for r in short]
    assert [r.kind for r in loadgen.build_schedule(4, 5.0)] != [r.kind for r in short]
    assert all(a.due <= b.due for a, b in zip(long, long[1:]))
    for start in range(0, 300, 20):
        kinds = [r.kind for r in long[start:start + 20]]
        assert (kinds.count("eval"), kinds.count("sweep"), kinds.count("campaign")) == (14, 5, 1)
    sweeps = [r.payload["sos_nodes"] for r in long if r.kind == "sweep"]
    assert len(set(sweeps)) == len(sweeps)
    evals = {str(r.payload) for r in long if r.kind == "eval"}
    assert len(evals) <= loadgen.EVAL_POOL
