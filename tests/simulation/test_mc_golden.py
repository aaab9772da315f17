"""Golden digests of Monte Carlo ``P_S`` campaigns.

Every trial deploys, attacks and sends on its own RNG stream, so any
change to the order or number of draws anywhere in the trial loop (role
assignment, neighbor wiring, churn, break-ins, congestion, client
sends) changes these digests. They pin the estimates and the per-trial
results over one-burst and successive attacks, both success metrics,
with and without churn, and four mapping policies — one of which asks
for more neighbors than the next layer holds, so deployment clips it —
plus the traffic-monitoring attacker's matched comparison.

A digest is the SHA-256 of canonical JSON (sorted keys, exact float
reprs). A deliberate change of the trial semantics must regenerate them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import tempfile
from typing import Any, Dict, List, Tuple

import pytest

from repro.attacks.monitoring import monitoring_damage_comparison
from repro.core import OneBurstAttack, SOSArchitecture, SuccessiveAttack
from repro.core.mapping import MappingPolicy
from repro.simulation.monte_carlo import estimate_ps


@dataclasses.dataclass(frozen=True)
class _Unclamped(MappingPolicy):
    """One-to-``degree`` without the layer-size clamp, so ``m_i`` can
    exceed the next layer's size and deployment must clip it."""

    degree: int = 50

    def degree_for(self, next_layer_size: float) -> int:
        return self.degree

    @property
    def label(self) -> str:
        return f"one-to-{self.degree}-unclamped"


MAPPINGS = {
    "one-to-one": "one-to-one",
    "one-to-half": "one-to-half",
    "one-to-two": "one-to-two",
    "clipped": _Unclamped(),
}
ATTACKS = {
    "burst": OneBurstAttack(break_in_budget=40, congestion_budget=90),
    "successive": SuccessiveAttack(
        break_in_budget=40, congestion_budget=90, rounds=3, prior_knowledge=0.3
    ),
}
METRICS = ("forward", "reachability")
CHURN = (0.0, 0.2)
TRIALS = 12
SEED = 2024

CASES = [
    f"{attack}-{metric}-churn{churn}-{mapping}"
    for attack, metric, churn, mapping in itertools.product(
        ATTACKS, METRICS, CHURN, MAPPINGS
    )
]


def _architecture(mapping: Any) -> SOSArchitecture:
    return SOSArchitecture(
        layers=3,
        mapping=mapping,
        total_overlay_nodes=300,
        sos_nodes=30,
        filters=4,
    )


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def _campaign(case: str) -> Tuple[Dict[str, Any], List[Any]]:
    """``(estimate fields, per-trial records)`` of one case, run once."""
    attack, metric, churn, mapping = case.split("-", 3)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "trials.json")
        estimate = estimate_ps(
            _architecture(MAPPINGS[mapping]),
            ATTACKS[attack],
            trials=TRIALS,
            clients_per_trial=3,
            metric=metric,
            seed=SEED,
            churn_fraction=float(churn[len("churn"):]),
            checkpoint_path=path,
        )
        with open(path, "r", encoding="utf-8") as handle:
            trials = json.load(handle)["trials"]
    fields = dataclasses.asdict(estimate)
    fields["mean_bad_per_layer"] = {
        str(layer): value for layer, value in fields["mean_bad_per_layer"].items()
    }
    return fields, [trials[str(trial)] for trial in range(TRIALS)]


ESTIMATE_DIGESTS: Dict[str, str] = {
    "burst-forward-churn0.0-one-to-one": (
        "9a5a88ae7d354faef24b50ce8783dc1a7e69090bd2117eb489b87078148ff72e"
    ),
    "burst-forward-churn0.0-one-to-half": (
        "3e1962b502a74dee1450886569d9173ee4abc88172375199e2bbc412add045b1"
    ),
    "burst-forward-churn0.0-one-to-two": (
        "714e253076defc709a70266ed5764ca0e9b4efd9380bf8a301ecfad54a693ba7"
    ),
    "burst-forward-churn0.0-clipped": (
        "7ed57272f287685bc6ae40f2516b13ba1e56d117720c8f6897d9c1df7ab871da"
    ),
    "burst-forward-churn0.2-one-to-one": (
        "35ffebec6e6afd3cce4198b8885db8c73cc619c64db7bce3d13207df7d9c5b5b"
    ),
    "burst-forward-churn0.2-one-to-half": (
        "461c5fb6360a58494451e4c503e44c60b464688a4c6adddd6d6e9bc2b97d5420"
    ),
    "burst-forward-churn0.2-one-to-two": (
        "7aa3c03ecdb70d26445a8bfbdb49c409731ec82a8498a5366dada14166201fdf"
    ),
    "burst-forward-churn0.2-clipped": (
        "e47d0a6736627f02b3df5b3d6ff7707ca36478d94e712a6323906880c3804062"
    ),
    "burst-reachability-churn0.0-one-to-one": (
        "9a5a88ae7d354faef24b50ce8783dc1a7e69090bd2117eb489b87078148ff72e"
    ),
    "burst-reachability-churn0.0-one-to-half": (
        "1b2f04888b3a41291fc270e4b241faec7cbacd19abf4c24dc7ad9a6e28b03d94"
    ),
    "burst-reachability-churn0.0-one-to-two": (
        "1485115eb6d862b97b16771b4cb382e7ce15074f4f8e83c91315d96e9354c83f"
    ),
    "burst-reachability-churn0.0-clipped": (
        "7ed57272f287685bc6ae40f2516b13ba1e56d117720c8f6897d9c1df7ab871da"
    ),
    "burst-reachability-churn0.2-one-to-one": (
        "35ffebec6e6afd3cce4198b8885db8c73cc619c64db7bce3d13207df7d9c5b5b"
    ),
    "burst-reachability-churn0.2-one-to-half": (
        "1d7531296c46b220522557720d4343617ab35e9993ca29537e32697e6b959819"
    ),
    "burst-reachability-churn0.2-one-to-two": (
        "6c036dec4354b6586a42282f2eaa105879b38a3e4669c6fde413d8ff3b95ff40"
    ),
    "burst-reachability-churn0.2-clipped": (
        "e47d0a6736627f02b3df5b3d6ff7707ca36478d94e712a6323906880c3804062"
    ),
    "successive-forward-churn0.0-one-to-one": (
        "284b66eaa9134670f5ac12925f52b8e0119f08cae57cdc326b73de2db518c696"
    ),
    "successive-forward-churn0.0-one-to-half": (
        "96ec2cbd6bffc9a35583445e9fbbc5393cb2d8a07d95364d157240d8266e6fb3"
    ),
    "successive-forward-churn0.0-one-to-two": (
        "315ec120188dd4b5402f64f38d0efd90802f8fdb0e8cb2531c2da91de545eb44"
    ),
    "successive-forward-churn0.0-clipped": (
        "213fe04c58748d92289be468709781933f94a02995b338e52c70c6b557b8afb2"
    ),
    "successive-forward-churn0.2-one-to-one": (
        "147ecdae95505c5b5bafbe67cfb5cf893fb5b386331c35933716a9cd06fd68d5"
    ),
    "successive-forward-churn0.2-one-to-half": (
        "c9396ed99f19cbf50d2a4dc481831d89de6ce5dcb7904301c0e56d621d297189"
    ),
    "successive-forward-churn0.2-one-to-two": (
        "894de1895cd9993e98c4ce65a63f6485cfb2afc1cf1f593669b550129ca8ccf8"
    ),
    "successive-forward-churn0.2-clipped": (
        "f1a9316b922ffb2cc02ae957e1edcbef5cd92e9c1dd6e9cf76e91d176335ce43"
    ),
    "successive-reachability-churn0.0-one-to-one": (
        "284b66eaa9134670f5ac12925f52b8e0119f08cae57cdc326b73de2db518c696"
    ),
    "successive-reachability-churn0.0-one-to-half": (
        "96ec2cbd6bffc9a35583445e9fbbc5393cb2d8a07d95364d157240d8266e6fb3"
    ),
    "successive-reachability-churn0.0-one-to-two": (
        "978a038c915a956ac53b94b761ba57620abf868ca02f17a3568556ddcc90e93a"
    ),
    "successive-reachability-churn0.0-clipped": (
        "213fe04c58748d92289be468709781933f94a02995b338e52c70c6b557b8afb2"
    ),
    "successive-reachability-churn0.2-one-to-one": (
        "147ecdae95505c5b5bafbe67cfb5cf893fb5b386331c35933716a9cd06fd68d5"
    ),
    "successive-reachability-churn0.2-one-to-half": (
        "0a42985561237a33425eedcc843ea9f3510b92d137061ffe2624eeb322306b43"
    ),
    "successive-reachability-churn0.2-one-to-two": (
        "0c9556dc5c3b9762173fd7eb7627efa8ad7e4a2b372f536733bc1c22149ccd74"
    ),
    "successive-reachability-churn0.2-clipped": (
        "f1a9316b922ffb2cc02ae957e1edcbef5cd92e9c1dd6e9cf76e91d176335ce43"
    ),
}

TRIAL_DIGESTS: Dict[str, str] = {
    "burst-forward-churn0.0-one-to-one": (
        "cc3d56de3ef8f189526936096ac58ef9d3f30820fe8b1ded470e986f0c315973"
    ),
    "burst-forward-churn0.0-one-to-half": (
        "995835e5d5ee14958d459e295c50a1b70d9b695f649a1ecc842d105091cc4535"
    ),
    "burst-forward-churn0.0-one-to-two": (
        "5dd8e2a8738311f989e171b8d25f0d2da7183ef8480436f358f652680108bc1a"
    ),
    "burst-forward-churn0.0-clipped": (
        "c941aaa41e0e403270d3f8e6a32e74b5c51603acce221b8f7255506163d5880b"
    ),
    "burst-forward-churn0.2-one-to-one": (
        "7ba1db2dbed6d5cd82b38eb15b952018912864ade93f48459a41c99bced37d09"
    ),
    "burst-forward-churn0.2-one-to-half": (
        "16eb93157476011efeb700c97ec08784ee6f68dacbcfb03292b70992475924ca"
    ),
    "burst-forward-churn0.2-one-to-two": (
        "977e481956375fb26aaadd5fe8c8bb6336ae8e49c9b78f0524bebb67c767685e"
    ),
    "burst-forward-churn0.2-clipped": (
        "8499ef749d576df1454e6d1ed2138b6b94eecf14976b3b7e847e920c25a1944b"
    ),
    "burst-reachability-churn0.0-one-to-one": (
        "cc3d56de3ef8f189526936096ac58ef9d3f30820fe8b1ded470e986f0c315973"
    ),
    "burst-reachability-churn0.0-one-to-half": (
        "b37f146c92edc7f9d39fac8acb3df9c785a6836a4e89117a62c059eb074d5c88"
    ),
    "burst-reachability-churn0.0-one-to-two": (
        "0955f06a04e0c946ccad8afc40e9fe7d4d1fae3332a842cc9f0a0f10ba3aeb89"
    ),
    "burst-reachability-churn0.0-clipped": (
        "c941aaa41e0e403270d3f8e6a32e74b5c51603acce221b8f7255506163d5880b"
    ),
    "burst-reachability-churn0.2-one-to-one": (
        "7ba1db2dbed6d5cd82b38eb15b952018912864ade93f48459a41c99bced37d09"
    ),
    "burst-reachability-churn0.2-one-to-half": (
        "1de59bd833965e4395381884b3f813efdebbfe32fdde1720121caef363a6ed31"
    ),
    "burst-reachability-churn0.2-one-to-two": (
        "88e8d98a360d4706856f491d1113e916fad0645ac03b521e7ec7a785f368905d"
    ),
    "burst-reachability-churn0.2-clipped": (
        "8499ef749d576df1454e6d1ed2138b6b94eecf14976b3b7e847e920c25a1944b"
    ),
    "successive-forward-churn0.0-one-to-one": (
        "a0dead8235e2bdda3594231729dfc79421616008b9666631354f40d960b0df5c"
    ),
    "successive-forward-churn0.0-one-to-half": (
        "6a8751d83f9fbe99618a8cc9ddba145f78f2b746a0672fde43212e12a88fa6d2"
    ),
    "successive-forward-churn0.0-one-to-two": (
        "3b64d41b40ee29c05d97c9df92117842d4f0dd83b3cb7ac0d2e57d3c066bb357"
    ),
    "successive-forward-churn0.0-clipped": (
        "add7428abd5f1f743f9d0e8f5979d7dfc0fa6819950f4a15842857360018120e"
    ),
    "successive-forward-churn0.2-one-to-one": (
        "7d4ef825292236587f61d176feca8b968aa0a86e20bfb3756844f4882d8ce04a"
    ),
    "successive-forward-churn0.2-one-to-half": (
        "f79364c0d13e47042b090088e114f0e618e8d65697881a50f320fdb58690fe5f"
    ),
    "successive-forward-churn0.2-one-to-two": (
        "b6596bebcd98ed078f46a781a5c56670484f631dc73dc76e4258dc3a23f8aa09"
    ),
    "successive-forward-churn0.2-clipped": (
        "e35904e8105f3db25a2151e877feccc97adc3408db53b93395bf6cfa50db171f"
    ),
    "successive-reachability-churn0.0-one-to-one": (
        "a0dead8235e2bdda3594231729dfc79421616008b9666631354f40d960b0df5c"
    ),
    "successive-reachability-churn0.0-one-to-half": (
        "6a8751d83f9fbe99618a8cc9ddba145f78f2b746a0672fde43212e12a88fa6d2"
    ),
    "successive-reachability-churn0.0-one-to-two": (
        "93bd69142b772903181f4bebd8741debc21f9af0dd22b586975556eca5cc9752"
    ),
    "successive-reachability-churn0.0-clipped": (
        "add7428abd5f1f743f9d0e8f5979d7dfc0fa6819950f4a15842857360018120e"
    ),
    "successive-reachability-churn0.2-one-to-one": (
        "7d4ef825292236587f61d176feca8b968aa0a86e20bfb3756844f4882d8ce04a"
    ),
    "successive-reachability-churn0.2-one-to-half": (
        "72ca0390e0b275e0327475b3c8fbbb461043ab2a61fe4fdb2e509340d8a7f6f1"
    ),
    "successive-reachability-churn0.2-one-to-two": (
        "b2b67a9189ab7d8f385bd8cf5c3ad410ee565742021f9c7e2152a750b03435cc"
    ),
    "successive-reachability-churn0.2-clipped": (
        "e35904e8105f3db25a2151e877feccc97adc3408db53b93395bf6cfa50db171f"
    ),
}

MONITORING_DIGESTS: Dict[str, str] = {
    "burst": (
        "6d1526e8475430f852aaa76d221659921628eb6b7bc27d907c05ed9f2f891713"
    ),
    "successive": (
        "e2601da0ea1760382ee49d7f340a3cb4ccb3fb9da37d2093f3130f0ff7abc089"
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_estimate_digest(case):
    fields, _ = _campaign(case)
    assert fields["failed_trials"] == 0
    assert digest(fields) == ESTIMATE_DIGESTS[case]


@pytest.mark.parametrize("case", CASES)
def test_per_trial_digest(case):
    _, trials = _campaign(case)
    assert all("error" not in record for record in trials)
    assert digest(trials) == TRIAL_DIGESTS[case]


@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_monitoring_comparison_digest(attack):
    comparison = monitoring_damage_comparison(
        _architecture("one-to-two"),
        ATTACKS[attack],
        observation_probability=0.5,
        trials=TRIALS,
        clients_per_trial=3,
        seed=SEED,
    )
    assert digest(dataclasses.asdict(comparison)) == MONITORING_DIGESTS[attack]


def test_clipped_mapping_clips():
    """The clipped case really asks for more neighbors than exist."""
    architecture = _architecture(MAPPINGS["clipped"])
    sizes = architecture.integer_layer_sizes + [architecture.filters]
    assert all(
        architecture.mapping_degree(layer) > sizes[layer - 1]
        for layer in range(2, architecture.layers + 2)
    )
