"""The ``service-mix`` workload: an open loop against the HTTP service.

One server (``--workers 1``) per measurement, on a free loopback port
with its spool directory under the benchmark's output directory. The
hold is preceded by a warm-up (one sweep, one scenario campaign and a
few evals on payloads the hold never uses) and followed by the output
checks, which run in this process outside the timed hold.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from sosbench import loadgen, stats
from sosbench.loadgen import LIMITS, Request, Server
from sosbench.workloads import check_digest

#: Requests whose answers the default-seed digest covers; all of them are
#: due in the first few seconds of any hold the benchmark runs.
DIGEST_REQUESTS = 60

_ANSWER_NOISE = ("cached", "degraded", "degraded_reason", "age_seconds", "worker_restarts")


def _answer(request: Request) -> Any:
    """The part of a response that must not depend on timing."""
    body = request.body or {}
    if request.kind == "campaign":
        return body.get("result")
    return {key: value for key, value in body.items() if key not in _ANSWER_NOISE}


def _warm_payloads() -> List[Tuple[str, Dict[str, Any]]]:
    """Requests that warm the worker without touching the hold's inputs
    (sweep sizes and campaign seeds below are outside the schedule's)."""
    rng = random.Random("sosbench:service-mix:warm")
    evals = [("eval", loadgen.eval_payload(rng)) for _ in range(4)]
    return evals + [
        ("sweep", loadgen.sweep_payload(97)),
        ("campaign", {"scenario": "stealth-lowrate", "seed": 2**21}),
    ]


def boot(root: str, spool_root: str, env: Dict[str, str]) -> Tuple[Server, str, float]:
    """Start a server and wait for its first answered ``/eval``.

    Returns the server, its spool directory, and the seconds from
    process start to that first answer (the ``setup_s`` sample).
    """
    spool = tempfile.mkdtemp(prefix="spool-", dir=spool_root)
    started = time.perf_counter()
    server = Server(root, spool, env)
    try:
        server.wait_listening()
        server.wait_ready()
        first = Request(-1, 0.0, "eval", _warm_payloads()[0][1])
        conn = server.connect()
        try:
            loadgen.execute(conn, first)
        finally:
            conn.close()
        if not first.ok:
            raise RuntimeError(f"first /eval failed: {first.status} {first.error}")
    except BaseException:
        server.stop()
        shutil.rmtree(spool, ignore_errors=True)
        raise
    return server, spool, time.perf_counter() - started


def warm_up(server: Server) -> None:
    conn = server.connect()
    try:
        for kind, payload in _warm_payloads()[1:]:
            request = Request(-1, 0.0, kind, payload)
            loadgen.execute(conn, request)
            if not request.ok:
                raise RuntimeError(f"warm-up {kind} failed: {request.status} {request.error}")
    finally:
        conn.close()


def check(requests: List[Request], seed: int, committed: Optional[str]) -> List[str]:
    """Compare the service's answers with in-process results and return
    the mismatches, the only failures that make a run incorrect.

    A request whose answer is wrong gets its ``error`` set, so it also
    counts as failed; a digest mismatch fails every request the digest
    covers. A request that got no answer (a shed, a non-2xx status, a
    reset or a timeout) has nothing to compare: it counts against
    ``success_ratio`` only, and the digest is not compared when one of
    the requests it covers is such a request.
    """
    from repro.core.model import evaluate
    from repro.scenarios.runner import run_scenario
    from repro.service.jobs import build_architecture, build_attack

    mismatches: List[str] = []

    def mismatch(request: Request, message: str) -> None:
        request.error = message
        mismatches.append(message)

    head = requests[:DIGEST_REQUESTS]
    answered = len(head) == DIGEST_REQUESTS and all(request.ok for request in head)
    expected_eval: Dict[str, Dict[str, Any]] = {}
    for request in requests:
        if not request.ok:
            continue
        answer = _answer(request)
        where = f"request {request.index} ({request.kind})"
        if request.kind == "eval":
            key = json.dumps(request.payload, sort_keys=True)
            if key not in expected_eval:
                performance = evaluate(
                    build_architecture(request.payload["architecture"]),
                    build_attack(request.payload["attack"]),
                )
                expected_eval[key] = {
                    "p_s": performance.p_s,
                    "broken_in_total": performance.broken_in_total,
                    "disclosed_total": performance.disclosed_total,
                }
            if answer != expected_eval[key]:
                mismatch(request, f"{where}: {answer} != in-process {expected_eval[key]}")
        elif request.kind == "sweep":
            scores = answer.get("scores", [])
            if answer.get("designs_evaluated") != 120 or not scores:
                mismatch(request, f"{where}: expected 120 designs, got {answer.get('designs_evaluated')}")
            elif not all(0.0 <= score["aggregate"] <= 1.0 for score in scores):
                mismatch(request, f"{where}: a design's aggregate P_S is outside [0, 1]")
        else:
            report = run_scenario(request.payload["scenario"], seed=request.payload["seed"])
            local = json.loads(json.dumps(report.to_dict()))
            if answer != local:
                mismatch(request, f"{where}: campaign result differs from in-process run_scenario")
    if answered:
        found = check_digest(seed, [[request.kind, _answer(request)] for request in head], committed)
        if found:
            for request in head:
                request.error = request.error or found
            mismatches.append(found)
    return mismatches


def _delta(after: Dict[str, Any], before: Dict[str, Any], *path: str) -> float:
    def get(snapshot: Dict[str, Any]) -> float:
        node: Any = snapshot
        for key in path:
            node = node.get(key, {}) if isinstance(node, dict) else {}
        return float(node) if isinstance(node, (int, float)) else 0.0

    return get(after) - get(before)


def server_layers(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Server-side per-layer numbers from two ``/metrics`` snapshots."""
    hits = _delta(after, before, "store", "fresh_hits")
    lookups = hits + _delta(after, before, "store", "stale_hits") + _delta(after, before, "store", "misses")
    latency = after.get("latency_seconds", {})
    return {
        "service.eval_server_p50_ms": 1000.0 * latency.get("eval", {}).get("p50", 0.0),
        "service.sweep_server_p50_ms": 1000.0 * latency.get("sweep", {}).get("p50", 0.0),
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.computed": _delta(after, before, "counters", "serve.computed"),
        "service.shed": _delta(after, before, "counters", "serve.shed")
        + _delta(after, before, "counters", "campaign.shed"),
        "service.pool_jobs_ok": _delta(after, before, "pool", "jobs_ok"),
        "service.respawns": _delta(after, before, "pool", "respawns"),
    }


def hold_metrics(requests: List[Request], wall_s: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics of one hold, and the per-kind breakdown."""
    ok = [request for request in requests if request.ok]
    met = [request for request in ok if request.latency <= LIMITS[request.kind]]
    metrics = {
        "success_ratio": len(ok) / len(requests),
        "items_per_s": len(ok) / wall_s,
        # /eval is the interactive operation and 70% of the mix. The median
        # over the whole mix would sit where queued evals meet cache hits
        # and jump between runs; sweeps and campaigns count in
        # slo_met_ratio and in the printed per-kind breakdown instead.
        "op_ms": 1000.0 * stats.median([r.latency for r in requests if r.kind == "eval"]),
        "slo_met_ratio": len(met) / len(requests),
    }
    breakdown: Dict[str, Any] = {}
    for kind in LIMITS:
        latencies = [1000.0 * r.latency for r in requests if r.kind == kind]
        if latencies:
            breakdown[kind] = stats.summary(latencies)
    return metrics, breakdown


def generator_layers(requests: List[Request], hold: loadgen.HoldStats) -> Dict[str, float]:
    late = [1000.0 * request.late for request in requests]
    return {
        "loadgen.late_p50_ms": stats.median(late),
        "loadgen.late_max_ms": max(late),
        "loadgen.inflight_max": float(hold.inflight_max),
    }


def run(
    root: str,
    out_dir: str,
    env: Dict[str, str],
    seed: int,
    seconds: float,
    trace: bool,
    setup_repeats: int,
    committed: Optional[str],
) -> Dict[str, Any]:
    """One service-mix measurement; returns metrics, counts and details."""
    senders = len(os.sched_getaffinity(0))
    setups: List[float] = []
    server: Optional[Server] = None
    spool = ""
    try:
        # Untraced: boot several fresh servers for setup_s and keep the
        # last one for the hold. Traced: one boot is enough.
        for _ in range(1 if trace else setup_repeats):
            if server is not None:
                server.stop()
                shutil.rmtree(spool, ignore_errors=True)
            server, spool, elapsed = boot(root, out_dir, env)
            setups.append(elapsed)
        if server is None:
            raise RuntimeError("no server was started")
        warm_up(server)
        requests = loadgen.build_schedule(seed, seconds)
        snapshot_s = 0.0
        before: Dict[str, Any] = {}
        if trace:
            started = time.perf_counter()
            before = server.metrics()
            snapshot_s += time.perf_counter() - started
        hold = loadgen.run_open_loop(requests, server.connect, senders=senders)
        peak_rss_mb = server.peak_rss_mb()
        after: Dict[str, Any] = {}
        if trace:
            started = time.perf_counter()
            after = server.metrics()
            snapshot_s += time.perf_counter() - started
    finally:
        if server is not None:
            server.stop()
            shutil.rmtree(spool, ignore_errors=True)
    unanswered = [
        f"request {request.index} ({request.kind}): status {request.status} {request.error}".rstrip()
        for request in requests
        if not request.ok
    ]
    mismatches = check(requests, seed, committed)
    failed = sum(1 for request in requests if not request.ok)
    metrics, breakdown = hold_metrics(requests, hold.wall_s)
    if trace:
        layers = {**server_layers(before, after), **generator_layers(requests, hold)}
        layers["trace.overhead_s"] = snapshot_s
        result_metrics = layers
    else:
        result_metrics = {
            "setup_s": stats.median(setups),
            "peak_rss_mb": peak_rss_mb,
            **metrics,
        }
    return {
        "metrics": result_metrics,
        "attempted": len(requests),
        "failed": failed,
        "errors": mismatches,
        "details": {
            "unanswered_requests": unanswered[:20],
            "setup_samples_s": setups,
            "senders": senders,
            "requests": len(requests),
            "hold_wall_s": hold.wall_s,
            "latency_ms_by_kind": breakdown,
            "generator": generator_layers(requests, hold),
        },
    }
