"""Simulation substrate.

This subpackage provides the simulation machinery that the rest of the
library is built on:

* :mod:`repro.sim.random_source` -- reproducible, named random streams.
* :mod:`repro.sim.recorder` -- time-series metric recording.
* :mod:`repro.sim.parallel` -- parallel sweep orchestration: deterministic
  seed trees, process-pool fan-out and the on-disk result cache.
* :mod:`repro.sim.results` -- tabular results with aggregation and plain
  text rendering (used to print the paper's tables).

The substrate is intentionally dependency-free (standard library + numpy).
Each individual simulation run is single-threaded and sequential --
determinism first -- but whole *sweeps* (many independent seeded runs)
fan out across processes through :class:`~repro.sim.parallel.SweepRunner`
without changing a single drawn bit.
"""

from repro.sim.parallel import ResultCache, SeedTree, SweepRunner, SweepTask, run_sweep
from repro.sim.random_source import RandomSource
from repro.sim.recorder import MetricRecorder, TimeSeries
from repro.sim.results import ResultTable

__all__ = [
    "ResultCache",
    "SeedTree",
    "SweepRunner",
    "SweepTask",
    "run_sweep",
    "RandomSource",
    "MetricRecorder",
    "TimeSeries",
    "ResultTable",
]
