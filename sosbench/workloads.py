"""The closed-loop workloads: inputs from a seed, one iteration, checks.

Every closed-loop workload repeats the same iteration on inputs drawn
once from the workload seed, with one caller. Because the inputs repeat,
every iteration must return outputs identical to the first; that is
checked, together with invariants that hold at any seed and, at
:data:`DEFAULT_SEED`, a digest committed in ``digests.json``.

Inputs are drawn with :class:`random.Random` on the benchmark side; the
program only sees the resulting integers and configs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The seed whose output digests are committed beside the benchmark.
DEFAULT_SEED = 0


def digest(outputs: Any) -> str:
    """SHA-256 of canonical JSON (sorted keys, exact float reprs)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_digest(seed: int, outputs: Any, committed: Optional[str]) -> Optional[str]:
    """At :data:`DEFAULT_SEED`, why ``outputs`` differ from the committed
    digest (``None`` when they match or another seed ran)."""
    if seed != DEFAULT_SEED:
        return None
    got = digest(outputs)
    if got != committed:
        return f"output digest {got} != committed {committed}"
    return None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"sosbench:{workload}:{seed}")


@dataclasses.dataclass
class Iteration:
    """What one closed-loop iteration produced."""

    outputs: Any  # JSON-ready, digested and compared across iterations
    items: int  # work items for the throughput metric
    attempted: int  # operations attempted (trials, runs, flooded runs)
    failed: int  # operations that failed inside the program
    errors: List[str]  # invariant violations


class Workload:
    name = ""
    #: Latency limit of one reference-normalized iteration (the
    #: closed-loop SLO): 1.35x the slowest normalized iteration seen in
    #: thirteen 20 s runs on the tuning machine (three pilots and a
    #: ten-seed set), rounded up to 0.1 s, so a healthy run meets it and
    #: a run whose slowest iterations get a third slower does not.
    limit_s = 0.0
    #: Iterations a traced run measures, traced and untraced each.
    trace_iterations = 1

    def first_result(self) -> Any:
        """The smallest user-visible result; what ``setup_s`` waits for."""
        raise NotImplementedError

    def iterate(self) -> Iteration:
        raise NotImplementedError

    def detection_quality(self, outputs: Any) -> Optional[Tuple[float, float]]:
        """Detection ``(precision, recall)`` of one iteration, if any."""
        return None


# ----------------------------------------------------------------------
# mc-campaign
# ----------------------------------------------------------------------


class McCampaign(Workload):
    """Two serial 200-trial ``estimate_ps`` campaigns per iteration."""

    name = "mc-campaign"
    limit_s = 4.2  # slowest seen 3.06 s
    trials = 200

    def __init__(self, seed: int) -> None:
        from repro.core import OneBurstAttack, SOSArchitecture, SuccessiveAttack

        rng = _rng(self.name, seed)
        self.architecture = SOSArchitecture(
            layers=3, mapping="one-to-two", total_overlay_nodes=2000, sos_nodes=80
        )
        self.campaigns = [
            (OneBurstAttack(60, 400), rng.randrange(2**32)),
            (SuccessiveAttack(60, 400, rounds=3), rng.randrange(2**32)),
        ]

    def _estimate(self, attack: Any, seed: int, trials: int) -> Any:
        from repro.simulation.monte_carlo import estimate_ps

        return estimate_ps(
            self.architecture,
            attack,
            trials=trials,
            clients_per_trial=4,
            metric="forward",
            seed=seed,
            workers=1,
        )

    def first_result(self) -> Any:
        attack, seed = self.campaigns[0]
        return self._estimate(attack, seed, 1)

    def iterate(self) -> Iteration:
        outputs: List[Dict[str, Any]] = []
        errors: List[str] = []
        failed = 0
        for attack, seed in self.campaigns:
            estimate = self._estimate(attack, seed, self.trials)
            failed += estimate.failed_trials
            outputs.append(dataclasses.asdict(estimate))
            if not 0.0 <= estimate.mean <= 1.0:
                errors.append(f"P_S {estimate.mean} outside [0, 1]")
            if estimate.trials + estimate.failed_trials != self.trials:
                errors.append(
                    f"{estimate.trials} trials + {estimate.failed_trials} "
                    f"failed != {self.trials} requested"
                )
        items = self.trials * len(self.campaigns)
        return Iteration(outputs, items, items, failed, errors)


# ----------------------------------------------------------------------
# zoo-sweep
# ----------------------------------------------------------------------


class ZooSweep(Workload):
    """The six committed zoo scenarios x 4 seeds, detected mode, 3 phases."""

    name = "zoo-sweep"
    limit_s = 1.8  # slowest seen 1.30 s
    seeds_per_scenario = 4
    trace_iterations = 2

    def __init__(self, seed: int) -> None:
        from repro.scenarios.zoo import list_scenarios

        rng = _rng(self.name, seed)
        self.runs: List[Tuple[str, int]] = [
            (name, rng.randrange(2**31))
            for name in list_scenarios()
            for _ in range(self.seeds_per_scenario)
        ]

    def first_result(self) -> Any:
        from repro.scenarios.runner import run_scenario

        name, seed = self.runs[0]
        return run_scenario(name, mode="detected", phases=3, seed=seed)

    def iterate(self) -> Iteration:
        from repro.scenarios.runner import run_scenario

        outputs: List[Dict[str, Any]] = []
        errors: List[str] = []
        failed = 0
        for name, seed in self.runs:
            try:
                report = run_scenario(name, mode="detected", phases=3, seed=seed)
            except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
                failed += 1
                outputs.append({"scenario": name, "seed": seed, "error": repr(exc)})
                continue
            record = report.to_dict()
            outputs.append(record)
            errors.extend(_zoo_invariants(record, name, seed))
        return Iteration(outputs, len(self.runs), len(self.runs), failed, errors)

    def detection_quality(self, outputs: Any) -> Optional[Tuple[float, float]]:
        reports = [record for record in outputs if "error" not in record]
        if not reports:
            return None
        return (
            sum(record["precision"] for record in reports) / len(reports),
            sum(record["recall"] for record in reports) / len(reports),
        )


def _zoo_invariants(record: Dict[str, Any], name: str, seed: int) -> List[str]:
    where = f"{name}@{seed}"
    errors = []
    if record["scenario"] != name or record["seed"] != seed:
        errors.append(f"{where}: report is for {record['scenario']}@{record['seed']}")
    if record["phases"] != 3 or len(record["delivery_per_phase"]) != 3:
        errors.append(f"{where}: expected 3 phases")
    for ratio in record["delivery_per_phase"]:
        if not 0.0 <= ratio <= 1.0:
            errors.append(f"{where}: delivery ratio {ratio} outside [0, 1]")
    for value in (record["precision"], record["recall"]):
        if not 0.0 <= value <= 1.0:
            errors.append(f"{where}: precision/recall {value} outside [0, 1]")
    return errors


# ----------------------------------------------------------------------
# flood-detect
# ----------------------------------------------------------------------


class FloodDetect(Workload):
    """One large flooded fast-engine run with a monitor, then flagging."""

    name = "flood-detect"
    limit_s = 1.6  # slowest seen 1.18 s
    trace_iterations = 3

    def __init__(self, seed: int) -> None:
        from repro.core import SOSArchitecture
        from repro.detection.monitor import MonitorConfig
        from repro.simulation.packet_sim import PacketSimConfig

        rng = _rng(self.name, seed)
        self.architecture = SOSArchitecture(
            layers=3,
            mapping="one-to-half",
            total_overlay_nodes=2000,
            sos_nodes=120,
            filters=8,
        )
        self.config = PacketSimConfig(
            duration=50.0, warmup=5.0, clients=1000, client_rate=1.0, flood_start=10.0
        )
        self.monitor_config = MonitorConfig(bin_width=1.0, warmup_bins=5, baseline_bins=5)
        self.deploy_seed, self.target_seed, self.sim_seed = (
            rng.randrange(2**32) for _ in range(3)
        )

    def _run(self) -> Tuple[Any, List[int], List[int], int]:
        from repro.detection.monitor import TrafficMonitor
        from repro.simulation.packet_sim import PacketLevelSimulation, flood_layer
        from repro.sos.deployment import SOSDeployment

        deployment = SOSDeployment.deploy(self.architecture, rng=self.deploy_seed)
        targets = flood_layer(deployment, layer=1, fraction=0.5, rng=self.target_seed)
        monitor = TrafficMonitor(self.monitor_config)
        simulation = PacketLevelSimulation(
            deployment, self.config, rng=self.sim_seed, monitor=monitor
        )
        report = simulation.run(flood_targets=targets, fast=True)
        flagged = monitor.flagged_nodes()
        return report, targets, flagged, monitor.observations

    def first_result(self) -> Any:
        return self._run()

    def iterate(self) -> Iteration:
        report, targets, flagged, observations = self._run()
        fields = dataclasses.asdict(report)
        fields.pop("latencies")
        outputs = {
            "report": fields,
            "targets": sorted(targets),
            "flagged": sorted(flagged),
            "observations": observations,
        }
        errors = []
        dropped = report.dropped_at_congested + report.dropped_no_neighbor
        if not report.delivered <= report.sent:
            errors.append(f"delivered {report.delivered} > sent {report.sent}")
        if report.delivered + dropped > report.sent:
            errors.append(
                f"delivered + dropped {report.delivered + dropped} > sent {report.sent}"
            )
        if report.sent <= 0 or report.attack_packets_absorbed <= 0:
            errors.append("flooded run offered no traffic")
        items = report.sent + report.attack_packets_absorbed
        return Iteration(outputs, items, 1, 0, errors)

    def detection_quality(self, outputs: Any) -> Optional[Tuple[float, float]]:
        return precision_recall(outputs["flagged"], outputs["targets"])


CLOSED_LOOP: Dict[str, Callable[[int], Workload]] = {
    McCampaign.name: McCampaign,
    ZooSweep.name: ZooSweep,
    FloodDetect.name: FloodDetect,
}


def precision_recall(flagged: List[int], truth: List[int]) -> Tuple[float, float]:
    """Same empty-side conventions as the scenario runner's report."""
    hits = len(set(flagged) & set(truth))
    precision = 1.0 if not flagged else hits / len(set(flagged))
    recall = 1.0 if not truth else hits / len(set(truth))
    return precision, recall
