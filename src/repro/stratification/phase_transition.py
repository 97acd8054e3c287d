"""The sigma phase transition and Table 1 (Section 4.2).

With slot budgets drawn from a rounded normal N(b_mean, sigma^2) on a
complete acceptance graph, the paper observes:

* for sigma ~ 0 the stable configuration shatters into (b_mean+1)-cliques;
* as soon as sigma is large enough to produce heterogeneous samples
  (sigma around 0.15) the mean cluster size explodes -- factorially in
  b_mean -- while the Mean Max Offset *drops* (Figure 6);
* Table 1 tabulates both quantities for b in 2..7, constant and sigma = 0.2.

This module provides the sweep (:func:`sigma_sweep`) and the Table 1
generator (:func:`table1`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.parallel import CacheLike, SweepTask, run_sweep
from repro.sim.random_source import RandomSource
from repro.stratification.bvalues import rounded_normal_slots
from repro.stratification.clustering import analyze_complete_matching
from repro.stratification.mmo import mmo_constant_matching

__all__ = [
    "SigmaSweepPoint",
    "sigma_sweep",
    "variable_matching_statistics",
    "table1",
    "estimate_transition_sigma",
]


@dataclass
class SigmaSweepPoint:
    """One point of the Figure 6 sweep."""

    sigma: float
    mean_cluster_size: float
    mean_max_offset: float
    largest_cluster: float
    repetitions: int


def _sigma_repetition_point(
    n: int,
    b_mean: float,
    sigma: float,
    repetition: int,
    seed: int,
) -> Dict[str, float]:
    """One (sigma, repetition) replication -- the unit of the sweeps.

    Replays exactly one iteration of the historical serial loop: the slot
    stream is the *stateless* ``fresh_stream(f"slots-{sigma}-{rep}")`` of
    ``RandomSource(seed)``, so a repetition run in any process (or
    replayed from the cache) is bit-identical to the serial original.
    """
    source = RandomSource(seed)
    rng = source.fresh_stream(f"slots-{sigma}-{repetition}")
    slots = rounded_normal_slots(n, b_mean, sigma, rng)
    analysis = analyze_complete_matching(slots)
    return {
        "mean_cluster_size": float(analysis.mean_cluster_size),
        "mean_max_offset": float(analysis.mean_max_offset),
        "largest_cluster": float(analysis.largest_cluster),
    }


def _sigma_tasks(
    n: int, b_mean: float, sigma: float, repetitions: int, seed: int
) -> List[SweepTask]:
    """The replication tasks of one sweep point.

    ``sigma`` is forwarded exactly as the caller passed it -- it names the
    historical slot stream (``f"slots-{sigma}-{rep}"``), so coercing an
    integer sigma to float would silently rename the stream and change
    the drawn slots relative to the pre-parallel serial loops.
    """
    return [
        SweepTask(
            _sigma_repetition_point,
            dict(n=n, b_mean=b_mean, sigma=sigma, repetition=repetition, seed=seed),
            label=f"sigma={sigma:g}#rep{repetition}",
        )
        for repetition in range(repetitions)
    ]


def _sweep_point(
    sigma: float, repetitions: int, outputs: Sequence[Dict[str, float]]
) -> SigmaSweepPoint:
    """Aggregate one point's replication outputs (same means as the old loop)."""
    return SigmaSweepPoint(
        sigma=float(sigma),
        mean_cluster_size=float(np.mean([out["mean_cluster_size"] for out in outputs])),
        mean_max_offset=float(np.mean([out["mean_max_offset"] for out in outputs])),
        largest_cluster=float(np.mean([out["largest_cluster"] for out in outputs])),
        repetitions=repetitions,
    )


def variable_matching_statistics(
    n: int,
    b_mean: float,
    sigma: float,
    *,
    repetitions: int = 3,
    seed: int = 0,
    workers: int = 1,
    cache: CacheLike = None,
) -> SigmaSweepPoint:
    """Average cluster size and MMO for N(b_mean, sigma^2) slot budgets.

    ``workers`` fans the repetitions out across processes and ``cache``
    (a directory or :class:`~repro.sim.parallel.ResultCache`) replays
    previously computed repetitions -- both without changing a bit of the
    result.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    tasks = _sigma_tasks(n, b_mean, sigma, repetitions, seed)
    outputs = run_sweep(tasks, workers=workers, cache=cache)
    return _sweep_point(sigma, repetitions, outputs)


def sigma_sweep(
    n: int,
    b_mean: float,
    sigmas: Sequence[float],
    *,
    repetitions: int = 3,
    seed: int = 0,
    workers: int = 1,
    cache: CacheLike = None,
) -> List[SigmaSweepPoint]:
    """Figure 6: sweep sigma and record mean cluster size and MMO.

    All ``len(sigmas) * repetitions`` replications fan out over one pool,
    so the parallel grain is the individual seeded run, not the sweep
    point.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    tasks: List[SweepTask] = []
    for index, sigma in enumerate(sigmas):
        tasks.extend(_sigma_tasks(n, b_mean, sigma, repetitions, seed + index))
    outputs = run_sweep(tasks, workers=workers, cache=cache)
    return [
        _sweep_point(
            sigma,
            repetitions,
            outputs[index * repetitions : (index + 1) * repetitions],
        )
        for index, sigma in enumerate(sigmas)
    ]


def table1(
    b_values: Sequence[int] = (2, 3, 4, 5, 6, 7),
    *,
    sigma: float = 0.2,
    n: Optional[int] = None,
    repetitions: int = 3,
    seed: int = 0,
    workers: int = 1,
    cache: CacheLike = None,
) -> List[Dict[str, float]]:
    """Reproduce Table 1: constant vs N(b, sigma) matching statistics.

    For every ``b`` the row contains the constant-matching values (cluster
    size ``b + 1`` and the closed-form MMO) and the simulated variable-b
    values.  ``n`` defaults to a population large enough for the expected
    cluster sizes not to be capped by the system size (the paper's Table 1
    reaches ~11000 for b = 7).  Every (b, repetition) replication is an
    independent sweep task, so the whole table parallelizes at once.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    populations: List[int] = []
    tasks: List[SweepTask] = []
    for index, b in enumerate(b_values):
        if b <= 0:
            raise ValueError("b values must be positive")
        # Cluster size grows roughly factorially with b; keep n comfortably
        # above the expected size while bounding the run time.
        population = n if n is not None else min(60_000, max(5_000, 40 * (b + 1) ** 4))
        populations.append(population)
        tasks.extend(_sigma_tasks(population, float(b), sigma, repetitions, seed + index))
    outputs = run_sweep(tasks, workers=workers, cache=cache)
    rows: List[Dict[str, float]] = []
    for index, b in enumerate(b_values):
        point = _sweep_point(
            sigma, repetitions, outputs[index * repetitions : (index + 1) * repetitions]
        )
        rows.append(
            {
                "b": float(b),
                "constant_cluster_size": float(b + 1),
                "constant_mmo": mmo_constant_matching(b),
                "normal_cluster_size": point.mean_cluster_size,
                "normal_mmo": point.mean_max_offset,
                "n": float(populations[index]),
            }
        )
    return rows


def estimate_transition_sigma(
    n: int,
    b_mean: float,
    *,
    sigmas: Optional[Sequence[float]] = None,
    threshold_factor: float = 4.0,
    repetitions: int = 3,
    seed: int = 0,
    workers: int = 1,
    cache: CacheLike = None,
) -> float:
    """Estimate the sigma at which the mean cluster size explodes.

    Returns the smallest swept sigma whose mean cluster size exceeds
    ``threshold_factor * (b_mean + 1)`` (the constant-matching cluster
    size).  The paper locates this transition around sigma = 0.15.
    """
    if sigmas is None:
        sigmas = np.arange(0.0, 0.51, 0.05)
    points = sigma_sweep(
        n,
        b_mean,
        list(sigmas),
        repetitions=repetitions,
        seed=seed,
        workers=workers,
        cache=cache,
    )
    threshold = threshold_factor * (b_mean + 1)
    for point in points:
        if point.mean_cluster_size >= threshold:
            return point.sigma
    return float("inf")
