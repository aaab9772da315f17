"""Executable attack strategies (paper §3.1.1 and Algorithm 1).

These run the intelligent DDoS attacks against a *concrete*
:class:`~repro.sos.deployment.SOSDeployment`: real break-in attempts on real
nodes, real neighbor-table disclosure, real congestion marking. The Monte
Carlo validator averages their outcomes to cross-check the average-case
analytical model in :mod:`repro.core`.

Both strategies share the two-phase shape:

1. a break-in phase that fills an :class:`AttackerKnowledge` (one uniform
   burst for :class:`OneBurstStrategy`; ``R`` quota-driven rounds following
   Algorithm 1's four cases for :class:`SuccessiveStrategy`);
2. a congestion phase that floods every disclosed-but-not-broken node and
   spends any surplus uniformly over the remaining overlay (filters are
   congested only upon disclosure, never at random).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

import numpy as np

from repro.attacks.knowledge import AttackerKnowledge
from repro.attacks.outcome import AttackOutcome
from repro.core.attack_models import OneBurstAttack, SuccessiveAttack
from repro.errors import ConfigurationError
from repro.overlay.arrays import (
    HEALTH_COMPROMISED,
    HEALTH_CONGESTED,
    OverlayStore,
)
from repro.sos.deployment import SOSDeployment
from repro.utils.seeding import SeedLike, make_rng


def _picks(rng, size: int, count: int) -> np.ndarray:
    """Positions of ``count`` distinct uniform picks from ``range(size)``."""
    count = min(count, size)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(size, size=count, replace=False)


def _sample(rng, pool: Sequence[int], count: int) -> List[int]:
    """Uniformly sample ``count`` distinct items from ``pool``."""
    picks = _picks(rng, len(pool), count)
    return np.asarray(pool, dtype=np.int64)[picks].tolist()


def _overlay_pool(deployment: SOSDeployment, excluded: Set[int]) -> np.ndarray:
    """Overlay identifiers, ascending, minus ``excluded``."""
    ids = deployment.network.store.sorted_ids
    if not excluded:
        return ids
    drop = np.fromiter(excluded, dtype=np.int64, count=len(excluded))
    found = np.minimum(np.searchsorted(ids, drop), len(ids) - 1)
    keep = np.ones(len(ids), dtype=bool)
    keep[found[ids[found] == drop]] = False
    return ids[keep]


def _congest(store: OverlayStore, node_ids: np.ndarray) -> None:
    """Flood ``node_ids``: every one not broken into becomes CONGESTED."""
    rows = store.rows_of(node_ids)
    rows = rows[store.health[rows] != HEALTH_COMPROMISED]
    store.set_health_many(rows, HEALTH_CONGESTED)


def _attempt_break_ins(
    deployment: SOSDeployment,
    knowledge: AttackerKnowledge,
    node_ids: Iterable[int],
    p_b: float,
    rng,
    disclosure_extension=None,
) -> int:
    """Try to break into each node; absorb disclosures. Returns attempts.

    ``disclosure_extension(deployment, node_id, rng)``, when given, returns
    extra overlay identifiers the attacker learns from a compromised node
    beyond its neighbor table (e.g. upstream nodes observed via traffic
    monitoring — see :mod:`repro.attacks.monitoring`).
    """
    attempts = 0
    for node_id in node_ids:
        attempts += 1
        success = bool(rng.random() < p_b)
        knowledge.record_attempt(node_id, success)
        if not success:
            continue
        disclosed = deployment.network.get(node_id).compromise()
        overlay_ids = [i for i in disclosed if i not in deployment.filters]
        filter_ids = [i for i in disclosed if i in deployment.filters]
        if disclosure_extension is not None:
            overlay_ids.extend(disclosure_extension(deployment, node_id, rng))
        knowledge.learn_disclosure(overlay_ids, filter_ids)
    return attempts


def _random_break_in_pool(
    deployment: SOSDeployment, knowledge: AttackerKnowledge
) -> np.ndarray:
    """Overlay nodes eligible for random break-in attempts.

    Mirrors Eq. (11)'s pool: the whole overlay minus everything already
    attempted and minus currently known (those are attacked deliberately).
    """
    return _overlay_pool(
        deployment, knowledge.attempted | knowledge.known_unattacked
    )


def _congestion_phase(
    deployment: SOSDeployment,
    knowledge: AttackerKnowledge,
    budget: int,
    rng,
) -> int:
    """Flood disclosed nodes first, then random overlay nodes. Returns spend."""
    overlay_set = knowledge.congestion_targets
    overlay_targets = np.array(sorted(overlay_set), dtype=np.int64)
    filter_targets = np.array(
        sorted(knowledge.congestion_filter_targets), dtype=np.int64
    )
    disclosed = len(overlay_targets) + len(filter_targets)
    if budget >= disclosed:
        surplus = np.empty(0, dtype=np.int64)
        if budget > disclosed:
            pool = _overlay_pool(deployment, knowledge.broken | overlay_set)
            surplus = pool[_picks(rng, len(pool), budget - disclosed)]
        _congest(
            deployment.network.store, np.concatenate([overlay_targets, surplus])
        )
        _congest(deployment.filters.store, filter_targets)
        return disclosed + len(surplus)
    # Picks index the overlay targets followed by the filter targets.
    picks = _picks(rng, disclosed, budget)
    split = len(overlay_targets)
    _congest(deployment.network.store, overlay_targets[picks[picks < split]])
    _congest(deployment.filters.store, filter_targets[picks[picks >= split] - split])
    return len(picks)


def _outcome(
    deployment: SOSDeployment,
    knowledge: AttackerKnowledge,
    rounds: int,
    attempts: int,
    congestion_spent: int,
) -> AttackOutcome:
    broken = {}
    congested = {}
    for layer in range(1, deployment.architecture.layers + 2):
        health = deployment.member_health(layer)
        broken[layer] = int(np.count_nonzero(health == HEALTH_COMPROMISED))
        congested[layer] = int(np.count_nonzero(health == HEALTH_CONGESTED))
    return AttackOutcome(
        broken_per_layer=broken,
        congested_per_layer=congested,
        rounds_executed=rounds,
        break_in_attempts=attempts,
        congestion_spent=congestion_spent,
        knowledge=knowledge,
    )


class OneBurstStrategy:
    """One burst of uniform break-ins, then targeted congestion (§3.1.1).

    ``disclosure_extension`` augments what a compromised node reveals; see
    :func:`_attempt_break_ins`.
    """

    def __init__(self, disclosure_extension=None) -> None:
        self._disclosure_extension = disclosure_extension

    def execute(
        self,
        deployment: SOSDeployment,
        attack: OneBurstAttack,
        rng: SeedLike = None,
    ) -> AttackOutcome:
        generator = make_rng(rng)
        n_t = int(round(attack.n_t))
        n_c = int(round(attack.n_c))
        if n_t > len(deployment.network):
            raise ConfigurationError(
                f"break-in budget {n_t} exceeds overlay size "
                f"{len(deployment.network)}"
            )
        knowledge = AttackerKnowledge()
        targets = _sample(generator, deployment.network.store.sorted_ids, n_t)
        attempts = _attempt_break_ins(
            deployment, knowledge, targets, attack.p_b, generator,
            disclosure_extension=self._disclosure_extension,
        )
        spent = _congestion_phase(deployment, knowledge, n_c, generator)
        return _outcome(deployment, knowledge, 1, attempts, spent)


class SuccessiveStrategy:
    """Algorithm 1: prior knowledge plus ``R`` quota-driven break-in rounds.

    ``on_round_end``, when given, is called as ``on_round_end(deployment,
    knowledge, round_index)`` after every break-in round — the hook the
    dynamic-repair extension (:mod:`repro.repair`) uses to let the defender
    act between rounds, as the paper's future-work section envisions.

    ``disclosure_extension`` augments what a compromised node reveals; see
    :func:`_attempt_break_ins`.
    """

    def __init__(self, disclosure_extension=None) -> None:
        self._disclosure_extension = disclosure_extension

    def execute(
        self,
        deployment: SOSDeployment,
        attack: SuccessiveAttack,
        rng: SeedLike = None,
        on_round_end=None,
    ) -> AttackOutcome:
        generator = make_rng(rng)
        n_t = int(round(attack.n_t))
        n_c = int(round(attack.n_c))
        if n_t > len(deployment.network):
            raise ConfigurationError(
                f"break-in budget {n_t} exceeds overlay size "
                f"{len(deployment.network)}"
            )
        knowledge = AttackerKnowledge()

        # Round 0: prior knowledge of a P_E fraction of the first layer.
        first_layer = deployment.layer_members(1)
        prior_count = int(round(attack.p_e * len(first_layer)))
        knowledge.learn_prior(_sample(generator, first_layer, prior_count))

        # Integer per-round quotas alpha_j that sum exactly to N_T.
        quotas = even_quotas(n_t, attack.rounds)
        attempts, rounds_executed = run_break_in_rounds(
            deployment,
            knowledge,
            quotas,
            attack.p_b,
            generator,
            on_round_end=on_round_end,
            disclosure_extension=self._disclosure_extension,
        )
        spent = _congestion_phase(deployment, knowledge, n_c, generator)
        return _outcome(deployment, knowledge, rounds_executed, attempts, spent)


def even_quotas(budget: int, rounds: int) -> List[int]:
    """Algorithm 1's quotas: integer ``alpha_j`` summing exactly to N_T."""
    return [
        (budget * j) // rounds - (budget * (j - 1)) // rounds
        for j in range(1, rounds + 1)
    ]


def run_break_in_rounds(
    deployment: SOSDeployment,
    knowledge: AttackerKnowledge,
    quotas: Sequence[int],
    p_b: float,
    generator,
    on_round_end=None,
    disclosure_extension=None,
) -> "tuple[int, int]":
    """Execute Algorithm 1's round loop with an arbitrary quota schedule.

    Returns ``(total_attempts, rounds_executed)``. The four per-round cases
    follow the paper verbatim with ``alpha`` replaced by the round's quota;
    the total budget is ``sum(quotas)``. Shared by the paper's
    :class:`SuccessiveStrategy` (even quotas) and the schedule variants in
    :mod:`repro.attacks.variants`.
    """
    budget = int(sum(quotas))
    attempts = 0
    rounds_executed = 0
    for quota in quotas:
        known = sorted(knowledge.known_unattacked)
        rounds_executed += 1
        stop = False
        if len(known) >= budget:
            # Case X_j >= beta: attack a budget-sized subset, forfeit
            # the rest to the congestion phase, and stop.
            attacked = _sample(generator, known, budget)
            knowledge.forfeit(set(known) - set(attacked))
            attempts += _attempt_break_ins(
                deployment, knowledge, attacked, p_b, generator,
                disclosure_extension=disclosure_extension,
            )
            budget = 0
            stop = True
        elif budget <= quota:
            # Case X_j < beta <= alpha: final, budget-limited round.
            extra = _sample(
                generator,
                _random_break_in_pool(deployment, knowledge),
                budget - len(known),
            )
            attempts += _attempt_break_ins(
                deployment, knowledge, known + extra, p_b, generator,
                disclosure_extension=disclosure_extension,
            )
            budget = 0
            stop = True
        elif len(known) >= quota:
            # Case alpha <= X_j < beta: disclosed nodes exceed the quota.
            attempts += _attempt_break_ins(
                deployment, knowledge, known, p_b, generator,
                disclosure_extension=disclosure_extension,
            )
            budget -= len(known)
        else:
            # General case X_j < alpha < beta.
            extra = _sample(
                generator,
                _random_break_in_pool(deployment, knowledge),
                quota - len(known),
            )
            attempts += _attempt_break_ins(
                deployment, knowledge, known + extra, p_b, generator,
                disclosure_extension=disclosure_extension,
            )
            budget -= quota
        if on_round_end is not None:
            on_round_end(deployment, knowledge, rounds_executed)
        if stop or budget <= 0:
            break
    return attempts, rounds_executed
