"""The sweep path every swarm experiment shares.

The swarm experiments all measure the swarm :func:`run_experiment_swarm`
builds, and the replicated ones run and average it through
:func:`replicated_means`.  Each driver keeps its own point function,
labels, argument normalisation and metrics.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bittorrent.scenarios import ScenarioSchedule
from repro.bittorrent.swarm import SwarmConfig, SwarmResult, SwarmSimulator
from repro.bittorrent.telemetry import ObserverConfig
from repro.sim.parallel import CacheLike, SeedTree, SweepTask, run_sweep

__all__ = ["run_experiment_swarm", "replicated_means", "curve_table"]


def run_experiment_swarm(
    leechers: int,
    rounds: int,
    piece_count: int,
    seed: int,
    engine: str,
    *,
    scenario: "ScenarioSchedule | str | None" = None,
    observer: Optional[ObserverConfig] = None,
    behaviors: Optional[str] = None,
    faults: Optional[str] = None,
    resilience: Optional[str] = None,
) -> SwarmResult:
    """Run the experiments' swarm to completion.

    ``leechers`` peers draw log-uniform upload capacities in 100-2000 kbps
    from ``default_rng(seed)``; two 2000 kbps seeds serve a file of which
    every leecher starts with a quarter.  The keyword arguments go to
    :class:`~repro.bittorrent.swarm.SwarmConfig` and
    :class:`~repro.bittorrent.swarm.SwarmSimulator` as they are.
    """
    rng = np.random.default_rng(seed)
    bandwidths = np.exp(rng.uniform(np.log(100.0), np.log(2000.0), leechers))
    config = SwarmConfig(
        leechers=leechers,
        seeds=2,
        piece_count=piece_count,
        rounds=rounds,
        start_completion=0.25,
        seed_upload_kbps=2000.0,
        behaviors=behaviors,
        faults=faults,
        resilience=resilience,
    )
    return SwarmSimulator(
        config,
        bandwidths=bandwidths,
        seed=seed,
        engine=engine,
        scenario=scenario,
        observer=observer,
    ).run()


def replicated_means(
    point: Callable[..., Dict[str, float]],
    cells: Sequence[Tuple[str, Mapping[str, Any]]],
    *,
    seed: int,
    repetitions: int,
    workers: int,
    cache: CacheLike,
) -> List[Dict[str, float]]:
    """Run ``point`` ``repetitions`` times per cell; return each cell's means.

    ``cells`` holds ``(label, kwargs)`` pairs.  Replication 0 keeps the
    root ``seed``, so one replication is the plain run; replication ``k``
    draws ``SeedTree(seed).child("swarm-replication", k)``, and its task is
    labelled ``f"{label}rep{k}"``.  Every task runs in one sweep, so
    ``workers`` and ``cache`` apply across cells.  A metric's mean is
    taken over the replications that report it, keys in first-seen order.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    tree = SeedTree(seed)
    seeds = [seed] + [tree.child("swarm-replication", k) for k in range(1, repetitions)]
    tasks = [
        SweepTask(point, dict(kwargs, seed=task_seed), label=f"{label}rep{k}")
        for label, kwargs in cells
        for k, task_seed in enumerate(seeds)
    ]
    outputs = run_sweep(tasks, workers=workers, cache=cache)
    means = []
    for start in range(0, len(outputs), repetitions):
        replicates = outputs[start : start + repetitions]
        keys = dict.fromkeys(key for out in replicates for key in out)
        means.append(
            {
                key: float(np.mean([out[key] for out in replicates if key in out]))
                for key in keys
            }
        )
    return means


def curve_table(
    axis: str, values: Sequence[float], means: Sequence[Dict[str, float]]
) -> Dict[str, np.ndarray]:
    """The sweep axis, then one curve per metric in key order.

    Each curve is aligned with ``values``; a point that lacks a metric
    (say, a behavior class absent at fraction 0) reads ``nan``.
    """
    table = {axis: np.asarray(values, dtype=float)}
    for key in sorted({key for point in means for key in point}):
        table[key] = np.asarray([point.get(key, np.nan) for point in means], dtype=float)
    return table
