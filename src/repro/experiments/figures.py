"""Drivers reproducing every figure and table of the paper.

Each ``figure*`` / ``table1`` function runs the corresponding experiment at
(configurable) paper parameters and returns plain data structures --
:class:`repro.sim.results.ResultTable` or dictionaries of numpy arrays --
that the benchmarks, the examples and the CLI all share.  Parameters default
to values that finish in seconds; the paper-scale settings are documented in
each docstring and in ``docs/paper_map.md``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.analytical.distributions import MateDistribution
from repro.analytical.exact_small import figure7_exact_values, figure7_independent_values
from repro.analytical.one_matching import independent_one_matching
from repro.analytical.validation import validate_independent_model
from repro.bittorrent.bandwidth import saroiu_like_distribution
from repro.bittorrent.efficiency import analytic_efficiency, efficiency_observations
from repro.bittorrent.analysis import observed_stratification_index
from repro.bittorrent.scenarios import resolve_scenario
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator, stratification_index
from repro.bittorrent.telemetry import ObserverConfig
from repro.core.churn import ChurnConfig, simulate_churn
from repro.core.dynamics import simulate_convergence, simulate_peer_removal
from repro.experiments.sweep import replicated_means, run_experiment_swarm
from repro.sim.parallel import CacheLike, SweepTask, run_sweep
from repro.sim.results import ResultTable
from repro.stratification.clustering import analyze_complete_matching
from repro.stratification.bvalues import constant_slots
from repro.stratification.phase_transition import sigma_sweep, table1 as _table1

__all__ = [
    "figure1_convergence",
    "figure2_peer_removal",
    "figure3_churn",
    "figure4_figure5_clusters",
    "figure6_phase_transition",
    "table1_clustering",
    "figure7_approximation_error",
    "figure8_neighbor_distributions",
    "figure9_validation",
    "figure10_bandwidth_cdf",
    "figure11_efficiency",
    "swarm_stratification_experiment",
    "scenario_stratification_timeline",
]


def _figure1_point(
    n: int, d: float, seed: int, max_base_units: float, engine: str
) -> Dict[str, np.ndarray]:
    """One Figure 1 trajectory -- a self-contained sweep task."""
    result = simulate_convergence(
        n, d, seed=seed, max_base_units=max_base_units, engine=engine
    )
    times, values = result.trajectory.as_arrays()
    return {
        "initiatives_per_peer": times,
        "disorder": values,
        "time_to_converge": np.asarray(
            [result.time_to_converge if result.time_to_converge is not None else np.nan]
        ),
    }


def figure1_convergence(
    parameters: Sequence[tuple] = ((100, 50), (1000, 10), (1000, 50)),
    *,
    seed: int = 0,
    max_base_units: float = 40.0,
    engine: str = "reference",
    workers: int = 1,
    cache: CacheLike = None,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Figure 1: disorder trajectories from the empty configuration.

    Paper parameters: 1-matching on G(n, d) for (n, d) in
    {(100, 50), (1000, 10), (1000, 50)}, best-mate initiatives.  Pass
    ``engine="fast"`` to run paper-scale (or larger) systems on the
    vectorized backend; trajectories are identical either way.  ``workers``
    fans the (n, d) points out across processes and ``cache`` replays
    previously computed points, both bit-identically.
    """
    tasks = [
        SweepTask(
            _figure1_point,
            dict(n=n, d=d, seed=seed + index, max_base_units=max_base_units, engine=engine),
            label=f"figure1[n={n},d={d}]",
        )
        for index, (n, d) in enumerate(parameters)
    ]
    outputs = run_sweep(tasks, workers=workers, cache=cache)
    return {
        f"n={n},d={d}": output for (n, d), output in zip(parameters, outputs)
    }


def _figure2_point(
    n: int, expected_degree: float, peer: int, seed: int, max_base_units: float, engine: str
) -> Dict[str, np.ndarray]:
    """One Figure 2 removal experiment -- a self-contained sweep task."""
    result = simulate_peer_removal(
        n, expected_degree, peer, seed=seed, max_base_units=max_base_units, engine=engine
    )
    times, values = result.trajectory.as_arrays()
    return {
        "initiatives_per_peer": times,
        "disorder": values,
        "max_disorder": np.asarray([values.max() if values.size else 0.0]),
    }


def figure2_peer_removal(
    removed_peers: Sequence[int] = (1, 100, 300, 600),
    *,
    n: int = 1000,
    expected_degree: float = 10.0,
    seed: int = 0,
    max_base_units: float = 10.0,
    engine: str = "reference",
    workers: int = 1,
    cache: CacheLike = None,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Figure 2: re-convergence after removing one peer from the stable state.

    Paper parameters: 1000 peers, 1-matching, 10 neighbors per peer, removed
    peer rank in {1, 100, 300, 600}.
    """
    tasks = [
        SweepTask(
            _figure2_point,
            dict(
                n=n,
                expected_degree=expected_degree,
                peer=peer,
                seed=seed + index,
                max_base_units=max_base_units,
                engine=engine,
            ),
            label=f"figure2[peer={peer}]",
        )
        for index, peer in enumerate(removed_peers)
    ]
    outputs = run_sweep(tasks, workers=workers, cache=cache)
    return {
        f"peer {peer} removed": output
        for peer, output in zip(removed_peers, outputs)
    }


def _figure3_point(
    n: int,
    expected_degree: float,
    churn_rate: float,
    seed: int,
    max_base_units: float,
    engine: str,
) -> Dict[str, np.ndarray]:
    """One Figure 3 churn trajectory -- a self-contained sweep task."""
    config = ChurnConfig(
        n=n,
        expected_degree=expected_degree,
        churn_rate=churn_rate,
        max_base_units=max_base_units,
        engine=engine,
    )
    result = simulate_churn(config, seed=seed)
    times, values = result.trajectory.as_arrays()
    return {
        "initiatives_per_peer": times,
        "disorder": values,
        "mean_disorder": np.asarray([result.mean_disorder]),
        "tail_disorder": np.asarray([result.trajectory.tail_mean(0.25)]),
    }


def figure3_churn(
    churn_rates: Sequence[float] = (0.0, 0.0005, 0.003, 0.01, 0.03),
    *,
    n: int = 1000,
    expected_degree: float = 10.0,
    seed: int = 0,
    max_base_units: float = 20.0,
    engine: str = "reference",
    workers: int = 1,
    cache: CacheLike = None,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Figure 3: disorder under churn, starting from the empty configuration.

    Paper parameters: 1000 peers, 1-matching, 10 neighbors per peer, churn
    in {0, 0.5, 3, 10, 30} events per 1000 initiatives.
    """
    tasks = [
        SweepTask(
            _figure3_point,
            dict(
                n=n,
                expected_degree=expected_degree,
                churn_rate=rate,
                seed=seed + index,
                max_base_units=max_base_units,
                engine=engine,
            ),
            label=f"figure3[churn={rate:g}]",
        )
        for index, rate in enumerate(churn_rates)
    ]
    outputs = run_sweep(tasks, workers=workers, cache=cache)
    series: Dict[str, Dict[str, np.ndarray]] = {}
    for rate, output in zip(churn_rates, outputs):
        label = "no churn" if rate == 0 else f"churn={rate * 1000:g}/1000"
        series[label] = output
    return series


def figure4_figure5_clusters(b0: int = 2, n: int = 12) -> ResultTable:
    """Figures 4 and 5: clustering of constant b-matching and the extra edge.

    Constant b0-matching on a complete graph yields clusters of size b0+1;
    granting a single extra slot to the best peer merges everything into one
    connected component.
    """
    table = ResultTable(
        title=f"Figures 4-5: complete graph, n={n}, b0={b0}",
        columns=["configuration", "clusters", "largest_cluster", "connected"],
    )
    constant = analyze_complete_matching(constant_slots(n, b0))
    table.add_row(
        configuration=f"constant b0={b0}",
        clusters=len(constant.cluster_sizes),
        largest_cluster=constant.largest_cluster,
        connected=constant.connected,
    )
    slots = constant_slots(n, b0)
    slots[0] += 1  # one extra connection for the best peer (Figure 5)
    extra = analyze_complete_matching(slots)
    table.add_row(
        configuration=f"b0={b0} + one extra slot for peer 1",
        clusters=len(extra.cluster_sizes),
        largest_cluster=extra.largest_cluster,
        connected=extra.connected,
    )
    return table


def figure6_phase_transition(
    sigmas: Optional[Sequence[float]] = None,
    *,
    b_mean: float = 6.0,
    n: int = 20000,
    repetitions: int = 2,
    seed: int = 0,
    workers: int = 1,
    cache: CacheLike = None,
) -> ResultTable:
    """Figure 6: mean cluster size and MMO as a function of sigma (b_mean = 6).

    Every (sigma, repetition) replication is an independent sweep task:
    ``workers=N`` runs them N at a time and ``cache`` replays computed
    points, with a bit-identical table either way.
    """
    if sigmas is None:
        sigmas = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0]
    points = sigma_sweep(
        n,
        b_mean,
        list(sigmas),
        repetitions=repetitions,
        seed=seed,
        workers=workers,
        cache=cache,
    )
    table = ResultTable(
        title=f"Figure 6: N({b_mean:g}, sigma) matching on a complete graph (n={n})",
        columns=["sigma", "mean_cluster_size", "mean_max_offset", "largest_cluster"],
    )
    for point in points:
        table.add_row(
            sigma=point.sigma,
            mean_cluster_size=point.mean_cluster_size,
            mean_max_offset=point.mean_max_offset,
            largest_cluster=point.largest_cluster,
        )
    return table


def table1_clustering(
    b_values: Sequence[int] = (2, 3, 4, 5, 6, 7),
    *,
    sigma: float = 0.2,
    n: Optional[int] = None,
    repetitions: int = 2,
    seed: int = 0,
    workers: int = 1,
    cache: CacheLike = None,
) -> ResultTable:
    """Table 1: cluster size and MMO, constant vs N(b, 0.2) matching."""
    rows = _table1(
        b_values,
        sigma=sigma,
        n=n,
        repetitions=repetitions,
        seed=seed,
        workers=workers,
        cache=cache,
    )
    table = ResultTable(
        title="Table 1: clustering and stratification in a complete knowledge graph",
        columns=[
            "b",
            "constant_cluster_size",
            "constant_mmo",
            "normal_cluster_size",
            "normal_mmo",
            "n",
        ],
    )
    for row in rows:
        table.add_row(**row)
    return table


def figure7_approximation_error(
    probabilities: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
) -> ResultTable:
    """Figure 7: exact vs independent-model probabilities for n = 3."""
    table = ResultTable(
        title="Figure 7: approximation error of the independence assumption (n=3)",
        columns=["p", "pair", "exact", "independent", "error"],
    )
    for p in probabilities:
        exact = figure7_exact_values(p)
        independent = figure7_independent_values(p)
        for pair in sorted(exact):
            table.add_row(
                p=p,
                pair=f"{pair[0]}-{pair[1]}",
                exact=exact[pair],
                independent=independent[pair],
                error=abs(independent[pair] - exact[pair]),
            )
    return table


def figure8_neighbor_distributions(
    peers: Optional[Sequence[int]] = None,
    *,
    n: int = 5000,
    p: float = 0.005,
) -> Dict[int, Dict[str, float]]:
    """Figure 8: mate-rank distributions for a good, central and bad peer.

    Paper parameters: n = 5000, p = 0.5%, peers 200 / 2500 / 4800.  When
    ``peers`` is omitted the same relative positions (4%, 50%, 96% of the
    ranking) are used, so the experiment scales with ``n``.  Returns, per
    observed peer, the summary statistics that characterise the three
    regimes (asymmetry for the good peer, pure shift for central peers,
    truncation for bad peers).
    """
    if peers is None:
        peers = (max(1, round(0.04 * n)), max(1, round(0.5 * n)), max(1, round(0.96 * n)))
    model = independent_one_matching(n, p, rows=list(peers))
    out: Dict[int, Dict[str, float]] = {}
    for peer in peers:
        dist = MateDistribution(peer, model.row(peer))
        out[peer] = {
            "mass": dist.mass,
            "unmatched_probability": dist.unmatched_probability,
            "mean_offset": dist.mean_offset(),
            "mode_rank": float(dist.mode_rank()),
            "asymmetry": dist.asymmetry(),
            "std_offset": dist.std_offset(),
        }
    return out


def figure9_validation(
    *,
    n: int = 1500,
    p: float = 0.02,
    b0: int = 2,
    peer: Optional[int] = None,
    samples: int = 120,
    seed: int = 0,
) -> ResultTable:
    """Figure 9: Algorithm 3 vs Monte-Carlo for the 2-matching choice distributions.

    Paper parameters: n = 5000, p = 1%, peer 3000, one million samples (a
    multi-week run); the defaults here keep the same average degree regime
    (d = 30) at a size that completes in seconds.  Pass ``n=5000, p=0.01,
    peer=3000, samples=...`` to reproduce the paper-scale comparison.
    """
    observed_peer = peer if peer is not None else int(0.6 * n)
    report = validate_independent_model(
        n, p, b0, observed_peer, samples=samples, seed=seed
    )
    table = ResultTable(
        title=(
            f"Figure 9: independent b0-matching vs Monte-Carlo "
            f"(n={n}, p={p}, b0={b0}, peer={observed_peer}, samples={samples})"
        ),
        columns=[
            "choice",
            "total_variation",
            "mean_rank_model",
            "mean_rank_simulation",
        ],
    )
    for choice in sorted(report.total_variation):
        table.add_row(
            choice=choice,
            total_variation=report.total_variation[choice],
            mean_rank_model=report.mean_rank_model[choice],
            mean_rank_simulation=report.mean_rank_simulation[choice],
        )
    return table


def figure10_bandwidth_cdf(points: int = 30) -> ResultTable:
    """Figure 10: percentage of hosts below each upstream capacity."""
    distribution = saroiu_like_distribution()
    curve = distribution.figure10_curve(points=points)
    table = ResultTable(
        title="Figure 10: upstream bandwidth distribution (Saroiu-style mixture)",
        columns=["upstream_kbps", "percentage_of_hosts"],
    )
    for x, y in zip(curve["upstream_kbps"], curve["percentage_of_hosts"]):
        table.add_row(upstream_kbps=float(x), percentage_of_hosts=float(y))
    return table


def figure11_efficiency(
    *,
    n: int = 800,
    b0: int = 3,
    expected_degree: float = 20.0,
    seed: int = 0,
) -> Dict[str, object]:
    """Figure 11: expected D/U share ratio vs upload bandwidth per slot.

    Paper parameters: b0 = 3 (the default 4 slots minus the optimistic one)
    and d = 20 acceptable peers, fed with the Saroiu-style distribution.
    """
    curve = analytic_efficiency(
        n=n, b0=b0, expected_degree=expected_degree, seed=seed
    )
    observations = efficiency_observations(curve)
    return {
        "upload_per_slot": curve.upload_per_slot,
        "efficiency": curve.efficiency,
        "expected_download": curve.expected_download,
        "observations": observations,
    }


def _swarm_point(
    leechers: int,
    rounds: int,
    piece_count: int,
    seed: int,
    engine: str,
    scenario: "str | None",
    observe: bool = False,
    scrape_interval: int = 1,
    behavior_mix: "str | None" = None,
    faults: "str | None" = None,
    resilience: "str | None" = None,
) -> Dict[str, float]:
    """One seeded swarm replication -- a self-contained sweep task.

    ``behavior_mix``, ``faults`` and ``resilience`` stay preset / spec
    *strings* (not resolved objects) so the task kwargs remain picklable
    primitives for the sweep cache key.
    """
    observer = (
        ObserverConfig(scrape_interval=scrape_interval, poll_interval=scrape_interval)
        if observe
        else None
    )
    result = run_experiment_swarm(
        leechers,
        rounds,
        piece_count,
        seed,
        engine,
        scenario=scenario,
        observer=observer,
        behaviors=behavior_mix,
        faults=faults,
        resilience=resilience,
    )
    rates = result.download_rates()
    ids = sorted(rates)
    uploads = {peer.peer_id: peer.upload_kbps for peer in result.leechers()}
    correlation = float(
        np.corrcoef([uploads[i] for i in ids], [rates[i] for i in ids])[0, 1]
    )
    metrics = {
        "stratification_index": stratification_index(result),
        "volume_stratification_index": stratification_index(result, use_tft_pairs=False),
        "upload_download_correlation": correlation,
        "completed": float(result.completed),
        "rounds_run": float(result.rounds_run),
        "arrivals": float(result.arrivals),
        "departures": float(result.departures),
        "final_swarm_size": float(len(result.present_peers())),
    }
    if observer is not None:
        observed = result.observed
        metrics.update(
            {
                "reported_downloads": float(observed.reported_downloads()),
                "confirmed_downloads": float(observed.confirmed_downloads()),
                "peers_observed": float(observed.peers_observed),
                "observed_stratification_index": observed_stratification_index(
                    observed
                ),
            }
        )
    return metrics


def swarm_stratification_experiment(
    *,
    leechers: int = 40,
    rounds: int = 80,
    piece_count: int = 600,
    seed: int = 0,
    engine: str = "reference",
    scenario: "str | None" = None,
    observe: bool = False,
    scrape_interval: int = 1,
    behavior_mix: "str | None" = None,
    faults: "str | None" = None,
    resilience: "str | None" = None,
    repetitions: int = 1,
    workers: int = 1,
    cache: CacheLike = None,
) -> Dict[str, float]:
    """End-to-end check that a TFT swarm stratifies by bandwidth (Section 6).

    Runs the full swarm simulator with a moderately heterogeneous bandwidth
    population and reports the reciprocal-TFT stratification index together
    with the correlation between upload capacity and achieved download rate.
    Pass ``engine="fast"`` (bit-identical results) for thousands of
    leechers and beyond, and ``scenario`` (a preset name or a
    :class:`~repro.bittorrent.scenarios.ScenarioSchedule`) to measure the
    same statistics on a churning swarm instead of the paper's assumed
    fixed post-flash-crowd population.

    ``repetitions > 1`` turns the single run into a Monte-Carlo estimate
    through :func:`~repro.experiments.sweep.replicated_means`: repetition
    0 keeps the historical seed (so the default is unchanged), further
    repetitions draw their seeds from the
    :class:`~repro.sim.parallel.SeedTree` rooted at ``seed`` and run
    ``workers`` at a time, and the returned metrics are the
    across-repetition means (plus ``"repetitions"``).

    ``observe=True`` attaches a
    :class:`~repro.bittorrent.telemetry.SwarmObserver` scraping and
    polling every ``scrape_interval`` rounds (results stay bit-identical)
    and adds the observed metrics -- reported / confirmed downloads,
    peers observed and the observed stratification index.

    ``behavior_mix`` (a preset name or ``"name:frac,..."`` spec from
    :func:`~repro.bittorrent.behaviors.make_behavior_mix`) assigns
    adversarial / heterogeneous client behaviors to the population; the
    dedicated ``behavior-sweep`` experiment varies the free-rider fraction
    systematically.

    ``faults`` (a preset name or spec string from
    :func:`~repro.bittorrent.faults.make_faults`) schedules tracker
    outages, transfer loss, peer crashes and partitions; the dedicated
    ``fault-sweep`` experiment varies the outage duration systematically.

    ``resilience`` (a preset name or spec string from
    :func:`~repro.bittorrent.resilience.make_resilience`) arms the
    client-side defenses -- multi-tracker failover, PEX gossip and
    dead-neighbor eviction; the dedicated ``resilience-sweep`` experiment
    compares the defense levels systematically.
    """
    point = dict(
        leechers=leechers,
        rounds=rounds,
        piece_count=piece_count,
        engine=engine,
        scenario=scenario,
        observe=observe,
        scrape_interval=scrape_interval,
        behavior_mix=behavior_mix,
        faults=faults,
        resilience=resilience,
    )
    (metrics,) = replicated_means(
        _swarm_point,
        [("swarm#", point)],
        seed=seed,
        repetitions=repetitions,
        workers=workers,
        cache=cache,
    )
    if repetitions > 1:
        metrics["repetitions"] = float(repetitions)
    return metrics


def _timeline_point(
    leechers: int,
    piece_count: int,
    seed: int,
    engine: str,
    scenario: "str | None",
    horizon: int,
) -> Dict[str, float]:
    """One timeline checkpoint (a full run to ``horizon``) -- a sweep task."""
    config = SwarmConfig(
        leechers=leechers,
        seeds=2,
        piece_count=piece_count,
        rounds=horizon,
        start_completion=0.25,
        seed_upload_kbps=2000.0,
    )
    result = SwarmSimulator(
        config, seed=seed, engine=engine, scenario=resolve_scenario(scenario)
    ).run()
    return {
        "stratification_index": stratification_index(result),
        "volume_stratification_index": stratification_index(
            result, use_tft_pairs=False
        ),
        "swarm_size": float(len(result.present_peers())),
        "arrivals": float(result.arrivals),
        "departures": float(result.departures),
        "completed": float(result.completed),
    }


def scenario_stratification_timeline(
    *,
    leechers: int = 30,
    piece_count: int = 240,
    seed: int = 0,
    engine: str = "reference",
    scenario: "str | None" = "poisson",
    checkpoints: Sequence[int] = (10, 20, 30, 45, 60),
    workers: int = 1,
    cache: CacheLike = None,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Stratification index over time while the swarm churns.

    The paper states stratification for the post-flash-crowd steady state;
    this driver measures how the empirical index *builds up and persists*
    while peers keep arriving and leaving.  Each checkpoint re-runs the
    simulation with a longer horizon under the same seed: the round loop
    draws only from the past, so a shorter run is draw-for-draw a prefix
    of a longer one and every checkpoint is an exact snapshot (on either
    engine -- they stay bit-identical under churn).  The checkpoints are
    independent runs, so they parallelize (``workers``) and cache
    per-horizon.
    """
    scenario_schedule = resolve_scenario(scenario)
    label = scenario if isinstance(scenario, str) else scenario_schedule.arrivals
    horizons = sorted({int(r) for r in checkpoints if int(r) > 0})
    if not horizons:
        raise ValueError("need at least one positive checkpoint")
    tasks = [
        SweepTask(
            _timeline_point,
            dict(
                leechers=leechers,
                piece_count=piece_count,
                seed=seed,
                engine=engine,
                scenario=scenario,
                horizon=horizon,
            ),
            label=f"timeline[rounds={horizon}]",
        )
        for horizon in horizons
    ]
    outputs = run_sweep(tasks, workers=workers, cache=cache)
    return {
        f"scenario={label}": {
            "rounds": np.asarray(horizons, dtype=float),
            "stratification_index": np.asarray(
                [out["stratification_index"] for out in outputs]
            ),
            "volume_stratification_index": np.asarray(
                [out["volume_stratification_index"] for out in outputs]
            ),
            "swarm_size": np.asarray(
                [out["swarm_size"] for out in outputs], dtype=float
            ),
            "arrivals": np.asarray([out["arrivals"] for out in outputs], dtype=float),
            "departures": np.asarray(
                [out["departures"] for out in outputs], dtype=float
            ),
            "completed": np.asarray([out["completed"] for out in outputs], dtype=float),
        }
    }
