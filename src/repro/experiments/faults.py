"""Fault sweeps: stratification under infrastructure failures.

The paper's swarm model (and every sweep so far) assumes a perfectly
reliable substrate: the tracker always answers, transfers always land and
peers only leave through the scenario's departure rule.  The fault layer
(:mod:`repro.bittorrent.faults`) breaks those assumptions; this driver
measures whether the headline statistic survives the break.  The
``fault-sweep`` experiment runs one swarm per tracker-outage duration
(plus any extra fault events folded into the spec), seeded from one
:class:`~repro.sim.parallel.SeedTree` with replications averaged, and
reports per duration the stratification index, completion counts and
rounds run.

Point functions take only picklable primitives (the schedule travels as a
spec *string*), so sweeps parallelize across processes and hit the
on-disk result cache like every other experiment.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bittorrent.swarm import stratification_index
from repro.experiments.sweep import curve_table, replicated_means, run_experiment_swarm
from repro.sim.parallel import CacheLike

__all__ = ["fault_sweep_experiment"]

DEFAULT_OUTAGES = (0, 2, 4, 8)


def _fault_point(
    leechers: int,
    rounds: int,
    piece_count: int,
    seed: int,
    engine: str,
    scenario: str,
    faults: str,
) -> Dict[str, float]:
    """One seeded swarm under one fault schedule -- a self-contained task."""
    result = run_experiment_swarm(
        leechers,
        rounds,
        piece_count,
        seed,
        engine,
        scenario=scenario or None,
        faults=faults or None,
    )
    return {
        "stratification_index": stratification_index(result),
        "completed": float(result.completed),
        "arrivals": float(result.arrivals),
        "departures": float(result.departures),
        "rounds_run": float(result.rounds_run),
    }


def outage_axis(
    outages: Sequence[int], outage_start: int, extra_faults: str, target: str = ""
) -> Tuple[List[int], List[str]]:
    """The sorted outage durations and each one's fault spec: ``d`` opens
    ``"outage:{outage_start}+{d}{target}"`` (none for ``d = 0``), then
    ``extra_faults``."""
    if outage_start < 1:
        raise ValueError("outage_start must be >= 1")
    cleaned = sorted({int(d) for d in outages})
    if not cleaned:
        raise ValueError("need at least one outage duration")
    if cleaned[0] < 0:
        raise ValueError("outage durations cannot be negative")
    specs = []
    for duration in cleaned:
        parts = [] if duration == 0 else [f"outage:{outage_start}+{duration}{target}"]
        if extra_faults:
            parts.append(extra_faults)
        specs.append(",".join(parts))
    return cleaned, specs


def fault_sweep_experiment(
    *,
    leechers: int = 40,
    rounds: int = 80,
    piece_count: int = 600,
    seed: int = 0,
    engine: str = "reference",
    scenario: str = "poisson",
    outages: Sequence[int] = DEFAULT_OUTAGES,
    outage_start: int = 10,
    extra_faults: str = "",
    repetitions: int = 1,
    workers: int = 1,
    cache: CacheLike = None,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Stratification index vs tracker-outage duration.

    For each duration ``d`` in ``outages`` the swarm runs with the fault
    spec ``"outage:{outage_start}+{d}"`` (``d = 0`` is the reliable
    baseline -- no event at all).  The default scenario is ``"poisson"``:
    a tracker outage only changes a swarm's *dynamics* when peers arrive
    (their announces queue and back off) or crash during it, so the
    membership must churn for the outage axis to measure anything --
    under a static population the outage merely defers completion
    notifications.  ``extra_faults`` appends further
    comma-separated events (e.g. ``"loss:0.02"``) to *every* point, so
    the outage axis can be studied on top of a lossy or churning
    substrate.  Replications run and average through
    :func:`~repro.experiments.sweep.replicated_means`, as in every swarm
    sweep: replication ``0`` keeps the root seed, further replications
    draw theirs from the :class:`~repro.sim.parallel.SeedTree`, and the
    reported curves are across-replication means.  Works on either
    engine; ``engine="fast"`` is bit-identical and is what makes
    paper-scale populations practical.
    """
    cleaned, specs = outage_axis(outages, outage_start, extra_faults)
    cells = [
        (
            f"fault#outage{duration}",
            dict(
                leechers=leechers,
                rounds=rounds,
                piece_count=piece_count,
                engine=engine,
                scenario=scenario,
                faults=spec,
            ),
        )
        for duration, spec in zip(cleaned, specs)
    ]
    means = replicated_means(
        _fault_point,
        cells,
        seed=seed,
        repetitions=repetitions,
        workers=workers,
        cache=cache,
    )
    return {"curves": curve_table("outage_rounds", cleaned, means)}
