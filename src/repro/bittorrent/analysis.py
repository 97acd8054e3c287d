"""Estimators over a measurement campaign (:mod:`~repro.bittorrent.telemetry`).

These are the statistics measurement papers actually publish from scrape
and poll data -- download-time CDFs, per-peer visit counts, the
sensitivity of the confirmed-download count to the progress threshold --
plus the observer-side **stratification index**: the same rank-correlation
the omniscient :func:`~repro.bittorrent.swarm.stratification_index`
computes, but built exclusively from observed download rates and the
partner sightings collected during polls.  Comparing the two indices on
one run quantifies how much of the paper's stratification signal survives
a realistic measurement pipeline.

Everything here is a pure function of a :class:`~repro.bittorrent.
telemetry.ObservedSwarm` (plus, for the ground-truth columns, the
:class:`~repro.bittorrent.swarm.SwarmResult` it rode in on), so the two
engines -- whose observed records are id-for-id identical -- agree on
every estimate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.bittorrent.swarm import partner_ranks_by_peer
from repro.bittorrent.telemetry import ObservedSwarm

__all__ = [
    "behavior_download_cdfs",
    "behavior_report",
    "behavior_stratification",
    "download_time_cdf",
    "observed_download_time_cdf",
    "observed_stratification_index",
    "threshold_sensitivity",
    "visit_count_distribution",
    "telemetry_report",
]

DEFAULT_THRESHOLDS = (0.5, 0.8, 0.9, 0.95, 0.98, 1.0)


def _empirical_cdf(durations: Iterable[float]) -> Dict[str, np.ndarray]:
    values = np.sort(np.asarray(list(durations), dtype=float))
    if values.size == 0:
        return {"durations": values, "cdf": values.copy()}
    return {
        "durations": values,
        "cdf": np.arange(1, values.size + 1, dtype=float) / values.size,
    }


def download_time_cdf(result) -> Dict[str, np.ndarray]:
    """Ground-truth download-time CDF (rounds) over completed leechers.

    A leecher arriving at round ``r`` and completing at round ``c`` took
    ``c - max(1, r) + 1`` rounds -- the same active-rounds convention as
    :meth:`~repro.bittorrent.swarm.SwarmPeer.download_rate_kbps`.  Peers
    that never completed (or were complete from round one) are excluded,
    exactly like in the observed CDF.
    """
    durations = [
        float(peer.completed_round - max(1, peer.arrival_round) + 1)
        for peer in result.leechers()
        if peer.completed_round is not None
    ]
    return _empirical_cdf(durations)


def behavior_download_cdfs(result) -> Dict[str, Dict[str, np.ndarray]]:
    """Ground-truth download-time CDFs, one per behavior class present.

    Same duration convention as :func:`download_time_cdf`, restricted to
    the leechers assigned each behavior.  Classes whose members never
    completed (e.g. ``never_upload`` in a seedless swarm, ``partial_seed``
    always) still appear, with empty arrays -- the *absence* of a CDF is
    the finding for those classes.
    """
    by_class: Dict[str, List[float]] = {}
    for peer in result.leechers():
        durations = by_class.setdefault(peer.behavior, [])
        if peer.completed_round is not None:
            durations.append(
                float(peer.completed_round - max(1, peer.arrival_round) + 1)
            )
    return {name: _empirical_cdf(by_class[name]) for name in sorted(by_class)}


def behavior_report(result) -> Dict[str, Dict[str, float]]:
    """Per-behavior-class summary of one run (ground truth).

    For every behavior present among the leechers: population count,
    completions, completion fraction, mean download rate (kbps) and mean
    share ratio (downloaded / uploaded).  This is the table the
    ``behavior-sweep`` experiment aggregates across free-rider fractions.
    """
    rates = result.download_rates()
    ratios = result.share_ratios()
    by_class: Dict[str, List] = {}
    for peer in result.leechers():
        by_class.setdefault(peer.behavior, []).append(peer)
    report: Dict[str, Dict[str, float]] = {}
    for name in sorted(by_class):
        members = by_class[name]
        completed = sum(1 for p in members if p.completed_round is not None)
        report[name] = {
            "peers": float(len(members)),
            "completed": float(completed),
            "completion_fraction": completed / len(members),
            "mean_download_rate_kbps": float(
                np.mean([rates[p.peer_id] for p in members])
            ),
            "mean_share_ratio": float(
                np.mean([ratios[p.peer_id] for p in members])
            ),
        }
    return report


def behavior_stratification(result) -> Dict[str, float]:
    """Stratification index overall vs restricted to obedient peers.

    ``overall`` ranks every leecher; ``standard_only`` recomputes the
    index over the ``standard``-behavior leechers alone, which separates
    stratification *caused by* heterogeneous capacities (the paper's
    mechanism) from rank noise injected by adversarial classes that trade
    little or nothing.  Either entry is 0.0 when fewer than three peers
    qualify.
    """
    from repro.bittorrent.swarm import stratification_index

    def safe(behaviors: Optional[Sequence[str]]) -> float:
        try:
            return stratification_index(result, behaviors=behaviors)
        except ValueError:
            return 0.0

    return {
        "overall": safe(None),
        "standard_only": safe(("standard",)),
    }


def observed_download_time_cdf(
    observed: ObservedSwarm, threshold: Optional[float] = None
) -> Dict[str, np.ndarray]:
    """Download-time CDF as the observer estimates it (rounds).

    For every confirmed download, the duration estimate is the span from
    the first poll that saw the peer to the poll that crossed the
    threshold -- at least one round, since a crawler cannot resolve
    anything finer than its own visits.
    """
    durations: List[float] = []
    for pid in observed.timelines:
        confirmed_at = observed.confirmation_round(pid, threshold)
        if confirmed_at is None:
            continue
        first = observed.first_seen(pid)
        durations.append(float(max(1, confirmed_at - first)))
    return _empirical_cdf(durations)


def visit_count_distribution(observed: ObservedSwarm) -> Dict[str, np.ndarray]:
    """Histogram of how often peers were reached (visits -> peer count)."""
    counts = observed.visit_counts()
    if not counts:
        empty = np.asarray([], dtype=float)
        return {"visits": empty, "peers": empty.copy()}
    values, frequencies = np.unique(
        np.asarray(sorted(counts.values()), dtype=float), return_counts=True
    )
    return {"visits": values, "peers": frequencies.astype(float)}


def threshold_sensitivity(
    observed: ObservedSwarm,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    *,
    true_completions: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """Confirmed-download counts across confirmation thresholds.

    The curve is non-increasing in the threshold: raising the bar can
    only disqualify peers.  With ``true_completions`` the undercount
    column (truth minus confirmed; negative = overcount) is included --
    the quantity real studies can never compute, which is the point of
    reproducing the methodology inside a simulator.
    """
    if not thresholds:
        raise ValueError("need at least one threshold")
    ordered = sorted(float(t) for t in thresholds)
    confirmed = [float(observed.confirmed_downloads(t)) for t in ordered]
    out: Dict[str, np.ndarray] = {
        "thresholds": np.asarray(ordered, dtype=float),
        "confirmed_downloads": np.asarray(confirmed, dtype=float),
    }
    if true_completions is not None:
        out["undercount_vs_truth"] = float(true_completions) - out[
            "confirmed_downloads"
        ]
    return out


def observed_stratification_index(observed: ObservedSwarm) -> float:
    """The stratification index as a scrape-and-poll study would infer it.

    Peers are ranked by their *observed* download rate (fastest first; the
    observer cannot see upload capacities, but under Tit-for-Tat download
    rate is the visible proxy).  Each peer's partners come from the poll
    sightings, weighted by how often the pair was seen trading.  The
    returned value is the Pearson correlation between a peer's own rank
    and its weighted-average partner rank -- the same statistic as the
    ground-truth :func:`~repro.bittorrent.swarm.stratification_index`,
    computed from strictly observable inputs.  Returns 0.0 when fewer
    than three ranked peers have observed partners.
    """
    rates = observed.observed_download_rates()
    if len(rates) < 3:
        return 0.0
    # Fastest observed peer gets rank 1; ties break by peer id so the
    # estimate is deterministic and engine-independent.
    order = sorted(rates, key=lambda pid: (-rates[pid], pid))
    rank = {pid: index + 1 for index, pid in enumerate(order)}
    own_ranks, partner_ranks = partner_ranks_by_peer(
        order, rank, observed.partner_sightings()
    )
    if len(own_ranks) < 3:
        return 0.0
    matrix = np.corrcoef(np.asarray(own_ranks), np.asarray(partner_ranks))
    value = float(matrix[0, 1])
    return 0.0 if np.isnan(value) else value


def telemetry_report(
    result,
    observed: ObservedSwarm,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Ground truth vs observation, side by side, for one observed run.

    The nested layout (section -> metric -> array) is what the
    ``telemetry`` CLI experiment prints and what the CI smoke test
    asserts; scalars are length-1 arrays so every value renders the same
    way.
    """
    from repro.bittorrent.swarm import stratification_index

    truth_cdf = download_time_cdf(result)
    observed_cdf = observed_download_time_cdf(observed)
    visits = visit_count_distribution(observed)
    scrapes = observed.scrapes
    try:
        true_index = stratification_index(result)
    except ValueError:
        true_index = 0.0

    def scalar(value: float) -> np.ndarray:
        return np.asarray([float(value)])

    return {
        "ground_truth": {
            "completions": scalar(result.completed),
            "stratification_index": scalar(true_index),
            "arrivals": scalar(result.arrivals),
            "departures": scalar(result.departures),
            "rounds_run": scalar(result.rounds_run),
            "download_cdf_rounds": truth_cdf["durations"],
            "download_cdf": truth_cdf["cdf"],
        },
        "observed": {
            "reported_downloads": scalar(observed.reported_downloads()),
            "confirmed_downloads": scalar(observed.confirmed_downloads()),
            "confirmed_at_certainty": scalar(observed.confirmed_downloads(1.0)),
            "undercount": scalar(
                result.completed - observed.confirmed_downloads()
            ),
            "observed_stratification_index": scalar(
                observed_stratification_index(observed)
            ),
            "peers_observed": scalar(observed.peers_observed),
            "scrapes_taken": scalar(len(scrapes)),
            "polls_taken": scalar(len(observed.poll_rounds)),
            "download_cdf_rounds": observed_cdf["durations"],
            "download_cdf": observed_cdf["cdf"],
            "visit_count_values": visits["visits"],
            "visit_count_peers": visits["peers"],
        },
        "threshold_sensitivity": threshold_sensitivity(
            observed, thresholds, true_completions=result.completed
        ),
        "scrape_series": {
            "rounds": np.asarray([s.round for s in scrapes], dtype=float),
            "seeders": np.asarray([s.seeders for s in scrapes], dtype=float),
            "leechers": np.asarray([s.leechers for s in scrapes], dtype=float),
            "snatches": np.asarray([s.snatches for s in scrapes], dtype=float),
        },
    }
