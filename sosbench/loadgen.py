"""Open-loop load for the ``service-mix`` workload.

The arrival schedule is computed up front from the seed (no RNG at send
time): a fixed number of arrivals spread uniformly over the hold, with
the 70/25/5 mix of ``/eval``, ``/sweep`` and ``/campaign`` laid out in
shuffled blocks of 20 so every hold carries the same proportions.

At most ``nproc`` requests are in flight: that many sender threads, each
with its own keep-alive connection, take requests in due order. A request
whose sender is still busy waits, and that wait counts, because each
request is timed from when it was due, not from when it went out. How
late the senders ran is reported separately.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Requests per second offered during the hold: keeps the one worker
#: about a third busy with this mix.
RATE = 20.0
#: Requests of each kind in every block of 20 arrivals.
MIX = (("eval", 14), ("sweep", 5), ("campaign", 1))
#: Distinct ``/eval`` payloads; the first request for each computes it.
EVAL_POOL = 32
#: Latency limit per request kind, in seconds.
LIMITS = {"eval": 0.025, "sweep": 0.25, "campaign": 1.0}
POLL_INTERVAL = 0.010
REQUEST_TIMEOUT = 30.0
#: Seconds a server may take to listen and to become ready, each.
STARTUP_TIMEOUT = 60.0
#: Seconds a server may take to exit after SIGINT or SIGKILL, each.
SHUTDOWN_TIMEOUT = 20.0

_MAPPINGS = ("one-to-one", "one-to-two", "one-to-five", "one-to-half", "one-to-all")
_SCENARIOS = (
    "botnet-recruitment",
    "combined-assault",
    "escalating-waves",
    "flash-crowd",
    "pulsing-shrew",
    "stealth-lowrate",
)


@dataclasses.dataclass
class Request:
    index: int
    due: float  # seconds after the hold starts
    kind: str
    payload: Dict[str, Any]
    # Filled in by the generator.
    started: float = 0.0
    finished: float = 0.0
    status: int = 0
    body: Optional[Dict[str, Any]] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and not self.error

    @property
    def latency(self) -> float:
        """From when the request was due to its answer."""
        return self.finished - self.due

    @property
    def late(self) -> float:
        """How long after its due time the request went out."""
        return self.started - self.due


def eval_payload(rng: random.Random) -> Dict[str, Any]:
    layers = rng.randint(1, 6)
    sos_nodes = rng.randrange(60, 160, 4)
    attack: Dict[str, Any] = {
        "kind": rng.choice(("one-burst", "successive")),
        "break_in_budget": rng.randrange(20, 200, 10),
        "congestion_budget": rng.randrange(200, 2000, 100),
    }
    if attack["kind"] == "successive":
        attack["rounds"] = rng.randint(2, 5)
    return {
        "architecture": {
            "layers": layers,
            "mapping": rng.choice(_MAPPINGS),
            "total_overlay_nodes": 10_000,
            "sos_nodes": sos_nodes,
        },
        "attack": attack,
    }


def sweep_payload(sos_nodes: int) -> Dict[str, Any]:
    return {
        "layers": list(range(1, 9)),
        "distributions": ["even", "increasing", "decreasing"],
        "sos_nodes": sos_nodes,
        "scenarios": {
            "burst": {"kind": "one-burst", "break_in_budget": 100, "congestion_budget": 1000},
            "successive": {
                "kind": "successive",
                "break_in_budget": 100,
                "congestion_budget": 1000,
                "rounds": 3,
            },
        },
    }


def build_schedule(seed: int, seconds: float) -> List[Request]:
    """The whole hold's requests, due times ascending.

    Payloads, kinds and due times come from separate streams, so the
    first requests of a hold are the same whatever its length.
    """
    def stream(aspect: str) -> random.Random:
        return random.Random(f"sosbench:service-mix:{aspect}:{seed}")

    payloads, kind_order, arrivals = stream("payloads"), stream("kinds"), stream("arrivals")
    pool = [eval_payload(payloads) for _ in range(EVAL_POOL)]
    sos_base = payloads.randrange(100, 400)
    scenario_seed = payloads.randrange(2**20)
    count = max(1, int(round(RATE * seconds)))
    dues = sorted(arrivals.uniform(0.0, seconds) for _ in range(count))
    block = [kind for kind, share in MIX for _ in range(share)]
    kinds: List[str] = []
    while len(kinds) < count:
        kind_order.shuffle(block)
        kinds.extend(block)
    requests = []
    sweeps = campaigns = 0
    for index, (due, kind) in enumerate(zip(dues, kinds)):
        if kind == "eval":
            payload = pool[payloads.randrange(EVAL_POOL)]
        elif kind == "sweep":
            payload = sweep_payload(sos_base + sweeps)
            sweeps += 1
        else:
            payload = {
                "scenario": _SCENARIOS[campaigns % len(_SCENARIOS)],
                "seed": scenario_seed + campaigns,
            }
            campaigns += 1
        requests.append(Request(index, due, kind, payload))
    return requests


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------


def call(conn: http.client.HTTPConnection, method: str, path: str, body: Any = None) -> Tuple[int, Dict[str, Any]]:
    data = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if data is not None else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    return response.status, (json.loads(raw) if raw else {})


def execute(conn: http.client.HTTPConnection, request: Request) -> None:
    """Send one request (a campaign is submitted, then polled to the end)."""
    if request.kind != "campaign":
        request.status, request.body = call(conn, "POST", "/" + request.kind, request.payload)
        return
    status, body = call(conn, "POST", "/campaign", request.payload)
    deadline = time.perf_counter() + REQUEST_TIMEOUT
    while 200 <= status < 300 and body.get("status") in ("queued", "running"):
        if time.perf_counter() > deadline:
            request.error = "campaign timed out"
            break
        time.sleep(POLL_INTERVAL)
        status, body = call(conn, "GET", "/campaign/" + body["campaign_id"])
    request.status, request.body = status, body
    if body.get("status") != "completed" and not request.error:
        request.error = f"campaign ended {body.get('status')!r}"


@dataclasses.dataclass
class HoldStats:
    inflight_max: int
    wall_s: float  # from the first due time to the last answer


def run_open_loop(
    requests: List[Request],
    connect: Callable[[], Any],
    senders: int,
    send: Callable[[Any, Request], None] = execute,
) -> HoldStats:
    """Issue ``requests`` at their due times with at most ``senders`` in
    flight; fills in each request's timing and answer."""
    pending: "queue.Queue[Optional[Request]]" = queue.Queue()
    lock = threading.Lock()
    inflight = [0, 0]  # current, max
    clock = time.perf_counter
    start = clock()

    def sender() -> None:
        conn = connect()
        try:
            while True:
                request = pending.get()
                if request is None:
                    return
                with lock:
                    inflight[0] += 1
                    inflight[1] = max(inflight[1], inflight[0])
                request.started = clock() - start
                try:
                    send(conn, request)
                except Exception as exc:  # noqa: BLE001 - counted as a failed request
                    request.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = connect()
                request.finished = clock() - start
                with lock:
                    inflight[0] -= 1
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for request in requests:
        wait = request.due - (clock() - start)
        if wait > 0:
            time.sleep(wait)
        pending.put(request)
    for _ in threads:
        pending.put(None)
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT * 4)
        if thread.is_alive():
            raise RuntimeError("a sender thread did not finish")
    first_due = requests[0].due if requests else 0.0
    last = max((request.finished for request in requests), default=first_due)
    return HoldStats(inflight_max=inflight[1], wall_s=last - first_due)


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------


class Server:
    """``python -m repro.service --workers 1`` on a free loopback port."""

    def __init__(self, root: str, spool_dir: str, env: Dict[str, str]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.service", "--host", "127.0.0.1",
             "--port", "0", "--workers", "1", "--spool-dir", spool_dir],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
            text=True,
        )
        self.port = 0
        self._reader: Optional[threading.Thread] = None

    def wait_listening(self) -> None:
        """Read the port the server printed once it bound one. The reader
        keeps draining stdout afterwards so the pipe never fills."""
        found: "queue.Queue[str]" = queue.Queue()
        stdout = self.process.stdout

        def reader() -> None:
            for line in stdout or ():
                if "listening on http://" in line:
                    found.put(line)
            found.put("")

        self._reader = threading.Thread(target=reader, daemon=True)
        self._reader.start()
        try:
            line = found.get(timeout=STARTUP_TIMEOUT)
        except queue.Empty:
            line = ""
        if not line:
            raise RuntimeError("service did not start listening")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)

    def wait_ready(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            conn = self.connect()
            try:
                status, _ = call(conn, "GET", "/readyz")
            except OSError:
                status = 0
            finally:
                conn.close()
            if status == 200:
                return
            time.sleep(0.02)
        raise RuntimeError("service never became ready")

    def metrics(self) -> Dict[str, Any]:
        conn = self.connect()
        try:
            return call(conn, "GET", "/metrics")[1]
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the server and every process below it."""
        pids = [self.process.pid]
        children: Dict[int, List[int]] = {}
        for pid, ppid, _, _ in _proc_stats():
            children.setdefault(ppid, []).append(pid)
        total_kb = 0
        while pids:
            pid = pids.pop()
            pids.extend(children.get(pid, ()))
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGINT for a clean shutdown; kill the whole process group if it
        hangs or leaves anything behind, and wait until the group is gone."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=SHUTDOWN_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait(timeout=SHUTDOWN_TIMEOUT)
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT
        while _group_members(self.process.pid):
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("service processes outlived the shutdown")
            time.sleep(0.05)
        if self._reader is not None:
            self._reader.join(timeout=SHUTDOWN_TIMEOUT)
        if self.process.stdout is not None:
            self.process.stdout.close()


def _proc_stats() -> List[Tuple[int, int, int, str]]:
    """``(pid, ppid, pgrp, state)`` of every process visible in /proc."""
    rows = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        rows.append((int(entry), int(fields[1]), int(fields[2]), fields[0]))
    return rows


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    return [pid for pid, _, pgrp, state in _proc_stats() if pgrp == pgid and state != "Z"]
