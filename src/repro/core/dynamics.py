"""Convergence dynamics (Figures 1 and 2).

The simulation process follows Section 3: at each step a uniformly random
peer takes one initiative (active or not).  A sequence of ``n`` successive
initiatives is one *base unit* ("one expected initiative per peer"); the
disorder -- distance between the current configuration and the stable one --
is recorded once per sampling interval.

The process is written once, in :class:`ConvergenceSimulator`: it draws
the ``initiatives`` stream, picks the initiating peers and samples the
disorder.  Two backends store the configuration and take the initiatives:

* ``engine="reference"`` (default) -- :class:`ConvergenceSimulator`
  itself, on dictionaries and sets; it validates every invariant and
  accepts arbitrary :class:`~repro.core.initiatives.InitiativeStrategy`
  objects;
* ``engine="fast"`` --
  :class:`~repro.core.fast.dynamics.FastConvergenceSimulator`, on the
  arrays of :mod:`repro.core.fast`, roughly an order of magnitude faster
  at n >= 10k peers and *trajectory-identical* to the reference under a
  shared :class:`~repro.sim.random_source.RandomSource` seed (the
  equivalence is enforced by ``tests/test_engine_equivalence.py``).

The churn experiment (:mod:`repro.core.churn`) drives the same simulator
between its leave and join events.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Optional, Sequence

import numpy as np

from repro.core.acceptance import AcceptanceGraph
from repro.core.exceptions import ModelError, is_count, validate_engine
from repro.core.initiatives import InitiativeStrategy, make_strategy
from repro.core.matching import Matching
from repro.core import metrics
from repro.core.peer import PeerPopulation
from repro.core.ranking import GlobalRanking
from repro.core.stable import stable_configuration
from repro.sim.random_source import RandomSource
from repro.sim.recorder import TimeSeries
from repro.sim import streams

__all__ = [
    "ConvergenceResult",
    "ConvergenceSimulator",
    "simulate_convergence",
    "simulate_peer_removal",
]


def horizon_error(max_base_units: float, samples_per_base_unit: int) -> Optional[str]:
    """Why a run horizon cannot describe a run, naming the field; ``None`` if it can."""
    if not (
        isinstance(max_base_units, numbers.Real)
        and math.isfinite(max_base_units)
        and max_base_units > 0
    ):
        return f"max_base_units must be finite and positive, got {max_base_units!r}"
    if not is_count(samples_per_base_unit) or samples_per_base_unit < 1:
        return (
            "samples_per_base_unit must be a positive integer, "
            f"got {samples_per_base_unit!r}"
        )
    return None


@dataclass
class ConvergenceResult:
    """Outcome of a convergence simulation.

    Attributes
    ----------
    trajectory:
        Disorder samples indexed by time in *base units* (initiatives per peer).
    initiatives:
        Total number of initiatives taken.
    active_initiatives:
        Number of initiatives that changed the configuration.
    converged:
        Whether the final configuration equals the stable configuration.
    time_to_converge:
        Base units elapsed when the disorder first reached zero
        (``None`` if it never did within the simulated horizon).
    final_matching:
        The configuration at the end of the simulation.
    """

    trajectory: TimeSeries
    initiatives: int
    active_initiatives: int
    converged: bool
    time_to_converge: Optional[float]
    final_matching: Matching


class ConvergenceSimulator:
    """Simulates peers independently searching for better collaborators.

    The one initiative protocol of Section 3.  ``ConvergenceSimulator(...,
    engine=...)`` builds the backend the engine names: this class itself
    (dictionaries and sets, the correctness oracle) or
    :class:`~repro.core.fast.dynamics.FastConvergenceSimulator` (arrays).
    :meth:`run` draws the ``initiatives`` stream and samples the disorder
    for both; :func:`~repro.core.churn.simulate_churn` drives the same
    hooks between churn events.  A backend only stores the configuration
    and overrides the hooks under "backend interface" below.

    Parameters
    ----------
    acceptance:
        The acceptance graph (with its population and slot budgets).
    strategy:
        Initiative strategy instance or name (default ``"best-mate"``,
        matching the paper's simulations).
    source:
        Random source used both for picking the initiating peer and, for the
        random strategy, the proposal target.
    engine:
        ``"reference"`` (default) or ``"fast"``.  Both produce
        bit-identical trajectories for the same seed; the fast engine only
        supports the three named strategies.
    """

    engine: ClassVar[str] = "reference"

    def __new__(
        cls, *args: Any, engine: Optional[str] = None, **kwargs: Any
    ) -> "ConvergenceSimulator":
        if engine is not None and validate_engine(engine) != cls.engine:
            if cls is not ConvergenceSimulator:
                raise ModelError(
                    f"{cls.__name__} is the {cls.engine!r} engine, not {engine!r}"
                )
            from repro.core.fast.dynamics import FastConvergenceSimulator

            cls = FastConvergenceSimulator
        return super().__new__(cls)

    def __init__(
        self,
        acceptance: AcceptanceGraph,
        strategy: InitiativeStrategy | str = "best-mate",
        source: Optional[RandomSource] = None,
        *,
        engine: Optional[str] = None,
    ) -> None:
        del engine  # __new__ already picked the backend class
        self.acceptance = acceptance
        self.source = source if source is not None else RandomSource(0)
        self.strategy = make_strategy(strategy) if isinstance(strategy, str) else strategy
        self._solve()

    def run(
        self,
        *,
        initial: Optional[Matching] = None,
        max_base_units: float = 50.0,
        samples_per_base_unit: int = 4,
        stop_when_stable: bool = True,
    ) -> ConvergenceResult:
        """Run the initiative process and record the disorder trajectory.

        Parameters
        ----------
        initial:
            Starting configuration; the empty configuration by default.
        max_base_units:
            Horizon of the simulation, in initiatives per peer (finite and
            positive).
        samples_per_base_unit:
            How many disorder samples to record per base unit (a positive
            integer).
        stop_when_stable:
            Stop as soon as the stable configuration is reached.
        """
        problem = horizon_error(max_base_units, samples_per_base_unit)
        if problem is not None:
            raise ValueError(problem)
        n = len(self.acceptance.population)
        if n == 0:
            raise ValueError("cannot simulate an empty population")
        self.load(initial)
        rng = self.source.stream(streams.INITIATIVES)
        take_initiative = self.bind_initiative()

        trajectory = TimeSeries("disorder")
        total_steps = int(round(max_base_units * n))
        sample_every = max(1, n // samples_per_base_unit)

        initiatives = 0
        active = 0
        time_to_converge: Optional[float] = None

        current_disorder = self.disorder()
        trajectory.append(0.0, current_disorder)
        if current_disorder == 0.0:
            time_to_converge = 0.0

        for step in range(1, total_steps + 1):
            if take_initiative(int(rng.integers(n)), rng):
                active += 1
            initiatives += 1

            if step % sample_every == 0 or step == total_steps:
                base_units = step / n
                current_disorder = self.disorder()
                trajectory.append(base_units, current_disorder)
                if current_disorder == 0.0 and time_to_converge is None:
                    time_to_converge = base_units
                    if stop_when_stable:
                        break

        return ConvergenceResult(
            trajectory=trajectory,
            initiatives=initiatives,
            active_initiatives=active,
            converged=self.converged(),
            time_to_converge=time_to_converge,
            final_matching=self.final_matching(),
        )

    # -- backend interface: the reference engine's hooks ---------------------

    def _solve(self) -> None:
        """Rank the current population and find its stable configuration."""
        self.ranking = GlobalRanking.from_population(self.acceptance.population)
        self._stable = stable_configuration(self.acceptance, self.ranking)

    @property
    def stable(self) -> Matching:
        """The unique stable configuration of the current acceptance graph."""
        return self._stable

    def load(self, initial: Optional[Matching] = None) -> None:
        """Make a copy of ``initial`` (the empty configuration by default) current."""
        self.matching = initial.copy() if initial is not None else Matching(self.acceptance)

    def bind_initiative(self) -> Callable[[int, np.random.Generator], bool]:
        """One initiative on the current configuration, as a callable.

        It takes the initiating peer's index in ``acceptance.peer_ids()``
        and the initiatives generator, and returns whether the initiative
        was active.  Bind again after :meth:`load` or :meth:`refresh`.
        """
        take = self.strategy.take_initiative
        matching, ranking = self.matching, self.ranking
        peer_ids = self.acceptance.peer_ids()
        return lambda index, rng: take(matching, ranking, peer_ids[index], rng)

    def disorder(self) -> float:
        """Distance of the current configuration from the stable one."""
        return metrics.disorder(self.matching, self._stable, self.ranking)

    def converged(self) -> bool:
        """Whether the current configuration is the stable one."""
        return self.matching == self._stable

    def final_matching(self) -> Matching:
        """The current configuration as a reference ``Matching``."""
        return self.matching

    def leave(self, peer_id: int) -> None:
        """Drop a leaving peer from the configuration, before the graph forgets it."""
        self.matching.remove_peer(peer_id)

    def join(self, peer_id: int) -> None:
        """Add a peer that has just joined the acceptance graph, unmatched."""
        self.matching.add_peer(peer_id)

    def refresh(self) -> None:
        """After a leave or a join: re-rank and find the new stable configuration."""
        self._solve()


def simulate_convergence(
    n: int,
    expected_degree: float,
    *,
    slots: int | Sequence[int] = 1,
    strategy: str = "best-mate",
    seed: int = 0,
    max_base_units: float = 50.0,
    samples_per_base_unit: int = 4,
    engine: str = "reference",
) -> ConvergenceResult:
    """Figure 1 helper: convergence from the empty configuration.

    Builds peers 1..n (rank = id), an Erdős–Rényi acceptance graph with the
    given expected degree, and runs the initiative process from the empty
    configuration.  ``engine`` selects the backend (see
    :class:`ConvergenceSimulator`).
    """
    source = RandomSource(seed)
    population = PeerPopulation.ranked(n, slots=slots)
    acceptance = AcceptanceGraph.erdos_renyi(
        population, expected_degree=expected_degree, rng=source.stream(streams.GRAPH)
    )
    simulator = ConvergenceSimulator(
        acceptance, strategy=strategy, source=source, engine=engine
    )
    return simulator.run(
        max_base_units=max_base_units, samples_per_base_unit=samples_per_base_unit
    )


def simulate_peer_removal(
    n: int,
    expected_degree: float,
    removed_peer: int,
    *,
    slots: int | Sequence[int] = 1,
    strategy: str = "best-mate",
    seed: int = 0,
    max_base_units: float = 10.0,
    samples_per_base_unit: int = 10,
    engine: str = "reference",
) -> ConvergenceResult:
    """Figure 2 helper: start from the stable state, remove one peer, re-converge.

    The initial configuration is the stable configuration of the full
    system; the peer ``removed_peer`` then leaves, and the simulation
    measures the disorder with respect to the *new* stable configuration of
    the reduced system.  The stable state before the removal comes from
    :func:`~repro.core.stable.stable_configuration` on either engine;
    ``engine`` selects the backend of the re-convergence run.
    """
    source = RandomSource(seed)
    population = PeerPopulation.ranked(n, slots=slots)
    acceptance = AcceptanceGraph.erdos_renyi(
        population, expected_degree=expected_degree, rng=source.stream(streams.GRAPH)
    )
    ranking = GlobalRanking.from_population(population)
    before_removal = stable_configuration(acceptance, ranking)

    # Remove the peer from the system: population, acceptance graph and the
    # inherited configuration all forget it.
    before_removal.remove_peer(removed_peer)
    acceptance.remove_peer(removed_peer)

    simulator = ConvergenceSimulator(
        acceptance, strategy=strategy, source=source, engine=engine
    )
    # Rebind the inherited configuration to the updated acceptance graph.
    inherited = Matching.from_pairs(acceptance, before_removal.pairs())
    return simulator.run(
        initial=inherited,
        max_base_units=max_base_units,
        samples_per_base_unit=samples_per_base_unit,
    )
