"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 sosbench/run.py --workload mc-campaign --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of a separate traced run.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
output check passed, 1 when one failed, and 2 when the program could not
be found or run. ``sosbench/README.md`` describes the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".sosbench_out")
WORKLOADS = ("mc-campaign", "zoo-sweep", "flood-detect", "service-mix")
#: Fresh processes timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Cap on the BLAS/OpenMP pools; 1 is within nproc on any machine.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _environment() -> Dict[str, str]:
    """Environment for this process and every child: thread caps, and
    every cache or temporary file kept inside the checkout."""
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    updates = {name: "1" for name in THREAD_ENV}
    updates.update(
        TMPDIR=tmp,
        REPRO_CC_CACHE=os.path.join(OUT_DIR, "cc-cache"),
        PYTHONPATH=os.path.join(ROOT, "src"),
    )
    os.environ.update(updates)
    return dict(os.environ)


def _provenance(args: argparse.Namespace) -> Dict[str, Any]:
    import hashlib

    tree = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".c", ".json")):
                path = os.path.join(directory, name)
                tree.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    tree.update(hashlib.sha256(handle.read()).digest())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_tree_sha256": tree.hexdigest(),
        "machine": {
            "node": platform.node(),
            "arch": platform.machine(),
            "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "started_unix": time.time(),
    }


def _setup_seconds(workload: str, seed: int, env: Dict[str, str]) -> List[float]:
    """Time fresh processes from start to their first result."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "sosbench", "probe.py"), "setup", workload, str(seed)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        line = child.stdout.readline() if child.stdout is not None else ""
        elapsed = time.perf_counter() - started
        child.communicate(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe for {workload} failed (exit {child.returncode})")
        samples.append(elapsed)
    return samples


def _closed_loop(args: argparse.Namespace, env: Dict[str, str], committed: Dict[str, str]) -> Dict[str, Any]:
    from sosbench import stats
    from sosbench.tracing import Tracer
    from sosbench.workloads import CLOSED_LOOP, check_digest, digest

    setups = [] if args.trace else _setup_seconds(args.workload, args.seed, env)
    workload = CLOSED_LOOP[args.workload](args.seed)
    errors: List[str] = []
    attempted = failed = 0

    def account(result: Any, found: List[str]) -> bool:
        """Count one checked iteration; every operation of an iteration
        with a failed check counts as failed."""
        nonlocal attempted, failed
        attempted += result.attempted
        failed += result.attempted if found else result.failed
        errors.extend(found)
        return not found

    def iterate() -> Any:
        started = time.perf_counter()
        result = workload.iterate()
        elapsed = time.perf_counter() - started
        found = list(result.errors)
        got = digest(result.outputs)
        if got != reference:
            found.append(f"iteration output digest {got} differs from the warm-up's {reference}")
        return result, elapsed, account(result, found)

    # Warm-up iteration: excluded from every timing; its outputs are the
    # reference the later iterations must repeat.
    warm = workload.iterate()
    reference = digest(warm.outputs)
    mismatch = check_digest(args.seed, warm.outputs, committed.get(args.workload))
    account(warm, warm.errors + ([mismatch] if mismatch else []))

    details: Dict[str, Any] = {"setup_samples_s": setups, "warmup_digest": reference}
    if args.trace:
        runs = workload.trace_iterations
        untraced = sum(iterate()[1] for _ in range(runs))
        tracer = Tracer()
        with tracer:
            traced = 0.0
            for index in range(runs):
                tracer.iteration = index
                result, elapsed, _ = iterate()
                traced += elapsed
        tracer.dump(
            os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "iterations": runs},
        )
        metrics = _layer_metrics(tracer, runs, workload.detection_quality(result.outputs))
        metrics["trace.overhead_s"] = (traced - untraced) / runs
        details.update(untraced_wall_s=untraced, traced_wall_s=traced, iterations=runs)
    else:
        durations: List[float] = []
        normalized: List[float] = []
        met = 0
        deadline = time.perf_counter() + args.seconds
        while not durations or time.perf_counter() < deadline:
            before = stats.reference()
            result, elapsed, ok = iterate()
            speed = stats.REFERENCE_NOMINAL_S / ((before + stats.reference()) / 2.0)
            durations.append(elapsed)
            normalized.append(elapsed * speed)
            met += int(ok and normalized[-1] <= workload.limit_s)
        # Timings are reference-normalized: each iteration's wall time is
        # scaled by how fast a fixed reference slice ran right before and
        # after it. On a shared machine co-tenant load changes the speed of
        # a core by up to 2x for seconds to minutes at a time; README.md
        # gives the spread of plain and normalized medians over ten seeds.
        # Raw median, minimum and tail are kept in the details.
        typical = stats.median(normalized)
        metrics = {
            "setup_s": stats.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": 1.0 - failed / attempted,
            "items_per_s": result.items / typical,
            "op_ms": 1000.0 * typical,
            "slo_met_ratio": met / len(durations),
        }
        details["iteration_ms"] = stats.summary([1000.0 * d for d in durations])
        details["iteration_min_ms"] = 1000.0 * min(durations)
        details["normalized_iteration_ms"] = stats.summary([1000.0 * d for d in normalized])
        details["normalized_iteration_max_ms"] = 1000.0 * max(normalized)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors, "details": details}


def _layer_metrics(tracer: Any, runs: int, quality: Any) -> Dict[str, float]:
    """Per-layer metrics, per iteration, from the traced run's spans."""
    duration, own = tracer.totals()
    counts = tracer.counts

    def per(value: float) -> float:
        return value / runs

    metrics = {
        "overlay.network_build_s": per(duration.get("overlay.network_build", 0.0)),
        "overlay.chord_build_s": per(duration.get("overlay.chord_build", 0.0)),
        "sos.deploy_s": per(duration.get("sos.deploy", 0.0)),
        "sos.deploy_calls": per(counts["sos.deploy_calls"]),
        "attacks.execute_s": per(duration.get("attacks.execute", 0.0)),
        "attacks.execute_calls": per(counts["attacks.execute_calls"]),
        "sos.send_s": per(duration.get("sos.send", 0.0)),
        "sos.send_calls": per(counts["sos.send_calls"]),
        "sos.delivered_ratio": counts["sos.delivered"] / counts["sos.send_calls"]
        if counts["sos.send_calls"] else 0.0,
        "simulation.mc_self_s": per(own.get("simulation.mc", 0.0)),
        "scenarios.compile_s": per(duration.get("scenarios.compile", 0.0)),
        "scenarios.compile_calls": per(counts["scenarios.compile_calls"]),
        "perf.encode_s": per(duration.get("perf.encode", 0.0)),
        "perf.encode_calls": per(counts["perf.encode_calls"]),
        "simulation.packet_run_self_s": per(own.get("simulation.packet_run", 0.0)),
        "detection.observe_s": per(duration.get("detection.observe", 0.0)),
        "detection.observations": per(counts["detection.observations"]),
        "detection.flag_s": per(duration.get("detection.flag", 0.0)),
        "repair.scan_s": per(duration.get("repair.scan", 0.0)),
        "repair.nodes_repaired": per(counts["repair.nodes_repaired"]),
    }
    for kernel in ("bucket_scan", "timeline_table", "route", "welford", "detect_bins"):
        name = f"perf.compiled.{kernel}"
        metrics[name + "_s"] = per(duration.get(name, 0.0))
        metrics[name + "_calls"] = per(counts[name + "_calls"])
    for name in ("packets_offered", "delivered", "dropped_congested", "dropped_no_neighbor"):
        metrics["simulation." + name] = per(counts["simulation." + name])
    offered = counts["simulation.packets_offered"]
    metrics["simulation.delivery_ratio"] = counts["simulation.delivered"] / offered if offered else 0.0
    metrics["detection.precision"], metrics["detection.recall"] = quality if quality else (0.0, 0.0)
    return metrics


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"sosbench: no program to measure under {ROOT} (src/repro or BENCHMARK.json missing)",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    env = _environment()
    sys.path[:1] = [os.path.join(ROOT, "src"), ROOT]  # not sosbench/ itself
    subprocess.run([sys.executable, os.path.join(ROOT, "sosbench", "probe.py"), "warm"],
                   cwd=ROOT, env=env, check=True, timeout=600)
    with open(os.path.join(ROOT, "sosbench", "digests.json"), encoding="utf-8") as handle:
        committed = json.load(handle)

    if args.workload == "service-mix":
        from sosbench import service_mix

        outcome = service_mix.run(
            ROOT, OUT_DIR, env, args.seed, args.seconds, bool(args.trace),
            SETUP_REPEATS, committed.get("service-mix"),
        )
    else:
        outcome = _closed_loop(args, env, committed)

    metrics = outcome["metrics"]
    if args.trace:
        # A layer the workload never reaches reads 0: the service run
        # cannot see in-process layers, and the closed loops start no server.
        server_side = args.workload == "service-mix"
        for name in units:
            if name.startswith(("service.", "loadgen.")) != server_side:
                metrics.setdefault(name, 0.0)
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        print(f"sosbench: metric set differs from BENCHMARK.json (missing {missing}, extra {extra})",
              file=sys.stderr)
        return 2
    correct = not outcome["errors"]
    record = {
        "provenance": _provenance(args),
        "correct": correct,
        "errors": outcome["errors"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
        "details": outcome["details"],
    }
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for error in outcome["errors"][:20]:
        print(f"CHECK FAILED: {error}")
    print(f"{args.workload} seed={args.seed} attempted={outcome['attempted']} failed={outcome['failed']} "
          f"commit={record['provenance']['commit']} src={record['provenance']['src_tree_sha256'][:12]}")
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]:14.6g} {units[name]}")
    print(f"  details: {json.dumps(outcome['details'], sort_keys=True)}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
