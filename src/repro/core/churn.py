"""Churn: peers joining and leaving while the system converges (Figure 3).

The paper's continuous-churn experiment starts from the empty configuration
and lets peers take initiatives while, at a configurable *churn rate*, peers
are removed from or (re)introduced into the system.  The quantity observed
is the disorder with respect to the *instantaneous* stable configuration,
which changes after every churn event.  The finding reproduced here: the
average disorder stays under control and is roughly proportional to the
churn rate.

:func:`simulate_churn` draws every churn stream and mutates the acceptance
graph itself, and drives a
:class:`~repro.core.dynamics.ConvergenceSimulator` for the rest: its
leave/join/refresh hooks after each event, one initiative per step and
the disorder samples.  ``ChurnConfig.engine`` picks the simulator's
backend; the fast one rebuilds its CSR snapshot and stable table on every
refresh.  Both engines produce bit-identical disorder trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.acceptance import AcceptanceGraph
from repro.core.dynamics import ConvergenceSimulator, horizon_error
from repro.core.exceptions import ModelError, is_count, validate_engine
from repro.core.initiatives import STRATEGY_NAMES
from repro.core.peer import Peer, PeerPopulation
from repro.sim.random_source import RandomSource
from repro.sim.recorder import TimeSeries
from repro.sim import streams

__all__ = ["ChurnConfig", "ChurnSimulation", "simulate_churn"]


@dataclass
class ChurnConfig:
    """Parameters of a churn simulation.

    Attributes
    ----------
    n:
        Initial (and target) number of peers, an integer of at least 2.
    expected_degree:
        Expected acceptance degree d of new and existing peers, finite and
        non-negative.
    churn_rate:
        Probability of a churn event per initiative, in [0, 1].  The
        paper's "churn = 30/1000" corresponds to ``churn_rate = 0.03``.
    slots:
        Slot budget of every peer, an integer (the paper uses 1-matching).
    max_base_units:
        Simulation horizon in initiatives per peer, finite and positive.
    samples_per_base_unit:
        Disorder samples recorded per base unit, a positive integer.
    strategy:
        Initiative strategy name: ``"best-mate"``, ``"decremental"`` or
        ``"random"``.
    engine:
        Matching backend: ``"reference"`` (default) or ``"fast"`` (the
        array engine; identical trajectories, but it rebuilds its arrays
        on every churn event).

    A field that cannot describe a run raises :class:`ModelError` naming
    it.
    """

    n: int = 1000
    expected_degree: float = 10.0
    churn_rate: float = 0.01
    slots: int = 1
    max_base_units: float = 20.0
    samples_per_base_unit: int = 4
    strategy: str = "best-mate"
    engine: str = "reference"

    def __post_init__(self) -> None:
        for name in ("n", "slots"):
            value = getattr(self, name)
            if not is_count(value):
                raise ModelError(f"{name} must be an integer, got {value!r}")
        if self.n <= 1:
            raise ModelError(f"n must be at least 2 (churn needs two peers), got {self.n}")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ModelError(
                f"churn_rate must be finite and in [0, 1], got {self.churn_rate!r}"
            )
        if not (math.isfinite(self.expected_degree) and self.expected_degree >= 0):
            raise ModelError(
                f"expected_degree must be finite and non-negative, "
                f"got {self.expected_degree!r}"
            )
        problem = horizon_error(self.max_base_units, self.samples_per_base_unit)
        if problem is not None:
            raise ModelError(problem)
        if self.strategy not in STRATEGY_NAMES:
            raise ModelError(
                f"strategy must be one of {', '.join(STRATEGY_NAMES)}, "
                f"got {self.strategy!r}"
            )
        validate_engine(self.engine)


@dataclass
class ChurnSimulation:
    """Result of a churn simulation."""

    config: ChurnConfig
    trajectory: TimeSeries
    churn_events: int
    initiatives: int
    mean_disorder: float
    final_population_size: int


def simulate_churn(config: ChurnConfig, *, seed: int = 0) -> ChurnSimulation:
    """Run a churn simulation and record the disorder trajectory.

    At every step one random peer takes an initiative.  Independently, with
    probability ``config.churn_rate`` per step, a churn event occurs: with
    equal probability either a uniformly random peer leaves, or a new peer
    joins with a fresh random score and an Erdős–Rényi neighborhood of the
    configured expected degree.  The instantaneous stable configuration is
    recomputed after every churn event.
    """
    source = RandomSource(seed)
    graph_rng = source.stream(streams.GRAPH)
    churn_rng = source.stream(streams.CHURN)
    initiative_rng = source.stream(streams.INITIATIVES)

    # The paper labels peers by rank; under churn new peers get fresh scores
    # drawn uniformly, which keeps all marks distinct with probability one.
    score_rng = source.stream(streams.SCORES)
    scores = score_rng.random(config.n)
    population = PeerPopulation.from_scores(scores, slots=config.slots)
    acceptance = AcceptanceGraph.erdos_renyi(
        population, expected_degree=config.expected_degree, rng=graph_rng
    )

    simulator = ConvergenceSimulator(
        acceptance, strategy=config.strategy, source=source, engine=config.engine
    )
    simulator.load()
    take_initiative = simulator.bind_initiative()

    trajectory = TimeSeries("disorder")
    total_steps = int(round(config.max_base_units * config.n))
    sample_every = max(1, config.n // config.samples_per_base_unit)

    churn_events = 0
    initiatives = 0
    disorder_samples: List[float] = []

    current = simulator.disorder()
    trajectory.append(0.0, current)

    for step in range(1, total_steps + 1):
        # -- churn -----------------------------------------------------------
        if config.churn_rate > 0 and churn_rng.random() < config.churn_rate:
            if churn_rng.random() < 0.5 and len(population) > 2:
                victim = _choose_victim(population, churn_rng)
                simulator.leave(victim)
                acceptance.remove_peer(victim)
            else:
                simulator.join(
                    _add_fresh_peer(population, acceptance, config, churn_rng, score_rng)
                )
            simulator.refresh()
            take_initiative = simulator.bind_initiative()
            churn_events += 1

        # -- one initiative ----------------------------------------------------
        take_initiative(int(initiative_rng.integers(len(population))), initiative_rng)
        initiatives += 1

        if step % sample_every == 0 or step == total_steps:
            current = simulator.disorder()
            trajectory.append(step / config.n, current)
            disorder_samples.append(current)

    mean_disorder = float(np.mean(disorder_samples)) if disorder_samples else current
    return ChurnSimulation(
        config=config,
        trajectory=trajectory,
        churn_events=churn_events,
        initiatives=initiatives,
        mean_disorder=mean_disorder,
        final_population_size=len(population),
    )


def _choose_victim(population: PeerPopulation, rng: np.random.Generator) -> int:
    """Draw the uniformly random peer that leaves the system."""
    ids = population.ids()
    return ids[int(rng.integers(len(ids)))]


def _add_fresh_peer(
    population: PeerPopulation,
    acceptance: AcceptanceGraph,
    config: ChurnConfig,
    rng: np.random.Generator,
    score_rng: np.random.Generator,
) -> int:
    """Introduce a new peer with a fresh score and random neighborhood.

    Returns the new peer id; the caller registers it with its matching
    backend (the peer joins unmatched).
    """
    new_id = population.next_id()
    peer = Peer(new_id, float(score_rng.random()), config.slots)
    existing = [pid for pid in population.ids()]
    acceptance.add_peer(peer)
    if not existing:
        return new_id
    probability = min(1.0, config.expected_degree / max(1, len(existing)))
    for other in existing:
        if rng.random() < probability:
            acceptance.declare_acceptable(new_id, other)
    return new_id
