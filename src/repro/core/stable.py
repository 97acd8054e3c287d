"""Algorithm 1: centralised computation of the unique stable configuration.

With a global ranking there are no preference cycles, so by Tan's theorem a
stable b-matching exists and is unique (Section 3).  Algorithm 1 computes it
greedily: the best peer grabs the best b(p1) acceptable peers, the second
best then fills its remaining slots, and so on.  All connections made this
way are stable by immediate recurrence.

This is the one entry point for Algorithm 1.  The array backend keeps its
own copy, :func:`repro.core.fast.engine.fast_stable_table` (the same
greedy pass compiled in C, :mod:`repro.core.fast.kernel`), because its
convergence runs need the stable table on arrays; the equivalence tests
check that both give the same matching.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.acceptance import AcceptanceGraph
from repro.core.matching import Matching
from repro.core.ranking import GlobalRanking

__all__ = ["stable_configuration"]


def stable_configuration(
    acceptance: AcceptanceGraph, ranking: Optional[GlobalRanking] = None
) -> Matching:
    """Compute the unique stable configuration of the b-matching problem.

    Parameters
    ----------
    acceptance:
        The acceptance graph (it also carries the population and slot
        budgets b(p)).
    ranking:
        The global ranking; derived from the population scores when omitted.

    Returns
    -------
    Matching
        The unique stable configuration.

    Notes
    -----
    This is the paper's Algorithm 1.  Peers are processed best-first; each
    peer connects to its best acceptable peers that still have capacity
    left.  The run time is O(sum of acceptance degrees) after the initial
    sort of each neighborhood.
    """
    if ranking is None:
        ranking = GlobalRanking.from_population(acceptance.population)

    matching = Matching(acceptance)
    remaining: Dict[int, int] = {
        peer_id: acceptance.population.get(peer_id).slots
        for peer_id in acceptance.peer_ids()
    }

    for peer_id in ranking.sorted_by_rank():
        if peer_id not in remaining:
            continue
        if remaining[peer_id] <= 0:
            continue
        # Scan acceptable peers worse than peer_id, best first.  Peers better
        # than peer_id have already exhausted the pairings they wanted (any
        # pairing with peer_id would have been made when they were processed),
        # which is exactly the structure of Algorithm 1.
        my_rank = ranking.rank(peer_id)
        candidates = ranking.sorted_by_rank(acceptance.acceptable_peers(peer_id))
        for candidate in candidates:
            if remaining[peer_id] <= 0:
                break
            if ranking.rank(candidate) < my_rank:
                continue
            if remaining.get(candidate, 0) <= 0:
                continue
            if matching.is_matched(peer_id, candidate):
                continue
            matching.match(peer_id, candidate)
            remaining[peer_id] -= 1
            remaining[candidate] -= 1
    return matching
