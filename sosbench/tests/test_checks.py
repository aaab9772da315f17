import copy
import math
import os
import subprocess
import sys

from sosbench import service_mix
from sosbench.loadgen import Request
from sosbench.workloads import DEFAULT_SEED, FloodDetect, check_digest, digest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _committed():
    import json

    with open(os.path.join(ROOT, "sosbench", "digests.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_flood_outputs_match_the_committed_digest_and_a_perturbation_fails():
    outputs = FloodDetect(DEFAULT_SEED).iterate().outputs
    committed = _committed()["flood-detect"]
    assert check_digest(DEFAULT_SEED, outputs, committed) is None
    perturbed = copy.deepcopy(outputs)
    perturbed["report"]["delivered"] += 1
    assert "output digest" in check_digest(DEFAULT_SEED, perturbed, committed)
    # Other seeds are checked by invariants only.
    assert check_digest(DEFAULT_SEED + 1, perturbed, committed) is None


def test_digest_is_canonical():
    assert digest({"b": [1.5, 2], "a": 0.1}) == digest({"a": 0.1, "b": [1.5, 2]})
    assert digest({"a": 0.1}) != digest({"a": math.nextafter(0.1, 1.0)})


def _eval_request(index, payload, body):
    request = Request(index, 0.0, "eval", payload)
    request.status, request.body = 200, body
    return request


_PAYLOAD = {
    "architecture": {"layers": 3, "mapping": "one-to-two", "total_overlay_nodes": 10000, "sos_nodes": 90},
    "attack": {"kind": "one-burst", "break_in_budget": 100, "congestion_budget": 1000},
}


def _model_answer(payload):
    from repro.core.model import evaluate
    from repro.service.jobs import build_architecture, build_attack

    performance = evaluate(build_architecture(payload["architecture"]), build_attack(payload["attack"]))
    return {
        "p_s": performance.p_s,
        "broken_in_total": performance.broken_in_total,
        "disclosed_total": performance.disclosed_total,
    }


def test_service_eval_answers_are_compared_with_the_model():
    payload, body = _PAYLOAD, _model_answer(_PAYLOAD)
    good = _eval_request(0, payload, dict(body, cached=True))
    bad = _eval_request(1, payload, dict(body, p_s=body["p_s"] * (1 + 1e-12)))
    errors = service_mix.check([good, bad], seed=DEFAULT_SEED + 1, committed=None)
    assert good.ok and not bad.ok
    assert len(errors) == 1 and "request 1" in errors[0]


def test_unanswered_service_requests_fail_without_being_mismatches():
    body = _model_answer(_PAYLOAD)
    shed = _eval_request(0, _PAYLOAD, {"error": "overloaded"})
    shed.status = 429
    reset = _eval_request(1, _PAYLOAD, None)
    reset.status, reset.error = 0, "ConnectionResetError: reset"
    good = _eval_request(2, _PAYLOAD, body)
    assert service_mix.check([shed, reset, good], seed=DEFAULT_SEED + 1, committed=None) == []
    assert not shed.ok and not reset.ok and good.ok


def test_service_digest_mismatch_fails_every_request_it_covers():
    body = _model_answer(_PAYLOAD)
    count = service_mix.DIGEST_REQUESTS
    requests = [_eval_request(i, _PAYLOAD, body) for i in range(count + 5)]
    errors = service_mix.check(requests, seed=DEFAULT_SEED, committed="0" * 64)
    assert len(errors) == 1 and "output digest" in errors[0]
    assert sum(1 for request in requests if not request.ok) == count
    # A digest over requests that got no answer is not compared: the
    # unanswered request counts as failed, and nothing is a mismatch.
    requests = [_eval_request(i, _PAYLOAD, body) for i in range(count)]
    requests[5].status = 503
    assert service_mix.check(requests, seed=DEFAULT_SEED, committed="0" * 64) == []
    assert sum(1 for request in requests if not request.ok) == 1


def test_perturbed_output_makes_the_command_exit_nonzero():
    """A run whose program output changes fails its checks and exits 1."""
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "from sosbench import run, workloads\n"
        "original = workloads.FloodDetect.iterate\n"
        "def perturbed(self):\n"
        "    result = original(self)\n"
        "    result.outputs['report']['delivered'] += 1\n"
        "    return result\n"
        "workloads.FloodDetect.iterate = perturbed\n"
        "workloads.FloodDetect.trace_iterations = 1\n"
        "sys.exit(run.main(['--workload', 'flood-detect', '--seed', '0', '--trace', '1']))\n"
    ) % (os.path.join(ROOT, "src"), ROOT)
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert result.returncode == 1, result.stderr
    last = result.stdout.strip().splitlines()[-1]
    assert '"correct": false' in last
    assert "output digest" in result.stdout
