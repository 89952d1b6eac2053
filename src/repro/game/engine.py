"""Reference implementation of one Ad Hoc Network Game (§4.1–4.2, §3.1).

Game flow
---------
1. The source has already chosen a path (best reputation rating; done by the
   tournament runner so the choice can be counted in the statistics).
2. Intermediates decide in path order.  A node that receives the packet makes
   a *decision* (forward / discard) driven by its trust in the source and the
   source's activity level; the first discard ends the game.
3. Payoffs: the source is paid on transmission status (success 5 / failure 0);
   every intermediate that made a decision is paid from the intermediate
   payoff table using the trust level it assigned to the source.
4. Watchdog reputation updates (Fig. 1a):

   * success — the source and every intermediate record one *forwarded*
     observation about every other intermediate;
   * failure at path position ``k`` — the alert propagates upstream only:
     the source and the intermediates *before* ``k`` record an observation
     about every decider other than themselves (``forwarded`` for positions
     ``< k``, dropped for position ``k``).  Nodes after the drop saw nothing;
     the dropper itself records nothing.

The batch engine (:mod:`repro.sim.batch`) reimplements exactly this function
on flat arrays; ``tests/test_engine_equivalence.py`` proves the two agree
bit-for-bit on identical inputs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.node import Decision, Player
from repro.core.payoff import PayoffConfig
from repro.game.result import GameResult
from repro.game.stats import TournamentStats
from repro.paths.oracle import GameSetup
from repro.reputation.activity import ActivityClassifier
from repro.reputation.trust import TrustTable

__all__ = ["play_game"]


def play_game(
    players: Mapping[int, Player],
    setup: GameSetup,
    chosen_path_index: int,
    trust_table: TrustTable,
    activity: ActivityClassifier,
    payoffs: PayoffConfig,
    stats: TournamentStats | None = None,
    update_reputation: bool = True,
) -> GameResult:
    """Play one game over ``setup.paths[chosen_path_index]``.

    ``players`` maps node id to :class:`Player` for every node involved.
    Mutates player payoff accumulators and (unless ``update_reputation`` is
    off) reputation tables; optionally updates ``stats``.
    """
    source = players[setup.source]
    path: Sequence[int] = setup.paths[chosen_path_index]

    decisions: list[Decision] = []
    success = True
    for node_id in path:
        intermediate = players[node_id]
        decision = intermediate.decide_packet(setup.source, trust_table, activity)
        decisions.append(decision)
        if stats is not None:
            stats.record_request(
                source_selfish=source.is_selfish,
                responder_selfish=intermediate.is_selfish,
                forwarded=decision.forward,
            )
        if not decision.forward:
            success = False
            break

    # -- payoffs (§4.2) ----------------------------------------------------
    source.payoffs.record_send(payoffs.source_payoff(success))
    for node_id, decision in zip(path, decisions):
        amount = payoffs.intermediate_payoff(decision.forward, decision.trust)
        acc = players[node_id].payoffs
        if decision.forward:
            acc.record_forward(amount)
        else:
            acc.record_discard(amount)

    # -- watchdog reputation updates (§3.1, Fig. 1a) -------------------------
    if update_reputation:
        n_decided = len(decisions)
        deciders = path[:n_decided]
        if success:
            updaters = [setup.source, *deciders]
        else:
            # Alert travels upstream: source plus intermediates strictly
            # before the dropper (the last decider).
            updaters = [setup.source, *deciders[: n_decided - 1]]
        for updater_id in updaters:
            table = players[updater_id].reputation
            for node_id, decision in zip(deciders, decisions):
                if node_id != updater_id:
                    table.record(node_id, decision.forward)

    if stats is not None:
        stats.record_game(source_selfish=source.is_selfish, success=success)

    return GameResult(
        setup=setup,
        chosen_path_index=chosen_path_index,
        decisions=tuple(decisions),
        success=success,
    )
