"""Dynamic-swarm scenarios: arrivals, departures, flash crowds.

The paper's stratification results are stated for the *post flash-crowd
steady state*; historically the simulator could only assume that regime by
building a fixed population once.  A :class:`ScenarioSchedule` turns the
population into a flux: per-round peer arrivals (Poisson or a flash-crowd
burst), departures of completed leechers (leave on completion, or linger as
a seed for a configurable number of rounds), and a per-arrival upload
capacity distribution.

The schedule is deliberately *pure configuration plus pure functions of the
shared random streams*: the one round protocol both swarm engines run
(:class:`~repro.bittorrent.swarm.SwarmSimulator`) calls its methods in a
pinned per-round order on :class:`~repro.sim.random_source.RandomSource`
streams, which is what keeps every scenario bit-identical across engines
under a shared seed.  A static schedule draws nothing and
departs nobody, so ``scenario=None``, ``scenario="static"`` and
``ScenarioSchedule()`` all reproduce the fixed-population behaviour
draw for draw.

Per-round protocol (pinned order):

1. departures due this round (no randomness -- a completed leecher departs
   at the start of round ``completed_round + 1 + linger``),
2. one arrival-count draw from the ``"scenario"`` stream (only for
   non-static arrival processes),
3. one capacity batch from the ``"bandwidth"`` stream for the arrivals,
4. per arrival: optional bootstrap pieces from the ``"bootstrap"`` stream,
   then one tracker announce from the ``"tracker"`` stream.

Under a fault schedule (:mod:`repro.bittorrent.faults`) the scenario
itself is unchanged -- the same draws happen at the same points -- but
the tracker interactions it triggers may be deferred: an arrival during
a tracker outage still joins the swarm and consumes its capacity and
bootstrap draws, but its announce is *queued* (drawing nothing) and
retried with deterministic backoff, consuming the tracker draw only when
it finally succeeds; a departure during an outage leaves immediately
while its depart (and any completion) notification is delivered on
recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.bittorrent.bandwidth import BandwidthDistribution, saroiu_like_distribution
from repro.bittorrent.behaviors import BehaviorMix, resolve_behavior_mix

__all__ = [
    "ARRIVAL_PROCESSES",
    "DEPARTURE_POLICIES",
    "SCENARIO_NAMES",
    "ScenarioSchedule",
    "make_scenario",
    "resolve_scenario",
]

ARRIVAL_PROCESSES = ("static", "poisson", "flashcrowd")
DEPARTURE_POLICIES = ("stay", "leave", "linger")


@dataclass(frozen=True)
class ScenarioSchedule:
    """Membership dynamics of one swarm simulation.

    Attributes
    ----------
    arrivals:
        Arrival process: ``"static"`` (nobody joins), ``"poisson"``
        (``arrival_rate`` expected joins per round) or ``"flashcrowd"``
        (``burst_size`` peers join at round ``burst_round``, plus an
        optional Poisson ``background_rate``).
    arrival_rate:
        Expected arrivals per round for the Poisson process.
    burst_round:
        Round at which the flash crowd hits (rounds count from 1).
    burst_size:
        Number of peers in the flash-crowd burst.
    background_rate:
        Poisson arrival rate around the burst (flash crowds in the wild sit
        on top of a background trickle); 0 draws nothing.
    max_arrivals:
        Hard cap on the total number of arrivals (``None`` = unbounded).
    departure:
        What a leecher does once it completes: ``"stay"`` (keep seeding
        forever -- the fixed-population behaviour), ``"leave"`` (depart at
        the start of the next round) or ``"linger"`` (seed for
        ``linger_rounds`` rounds, then depart).  Initial seeds never leave.
    linger_rounds:
        Rounds a completed leecher keeps seeding under ``"linger"``.
    arrival_completion:
        Fraction of pieces an arriving peer already holds (fresh joiners by
        default; clamped so an arrival is never instantly complete).
    capacity:
        Upload-capacity distribution sampled per arrival (the Saroiu-style
        mixture when omitted).
    behaviors:
        Behavior mix of the *arriving* peers (a
        :class:`~repro.bittorrent.behaviors.BehaviorMix`, a preset name /
        spec string, or ``None`` to inherit the swarm's configured mix) --
        e.g. a flash crowd of free-riders hitting an obedient swarm.
    """

    arrivals: str = "static"
    arrival_rate: float = 0.0
    burst_round: int = 1
    burst_size: int = 0
    background_rate: float = 0.0
    max_arrivals: Optional[int] = None
    departure: str = "stay"
    linger_rounds: int = 0
    arrival_completion: float = 0.0
    capacity: Optional[BandwidthDistribution] = None
    behaviors: "BehaviorMix | str | None" = None

    def __post_init__(self) -> None:
        if self.behaviors is not None:
            object.__setattr__(
                self, "behaviors", resolve_behavior_mix(self.behaviors)
            )
        if self.arrivals not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process '{self.arrivals}' "
                f"(available: {', '.join(ARRIVAL_PROCESSES)})"
            )
        if self.departure not in DEPARTURE_POLICIES:
            raise ValueError(
                f"unknown departure policy '{self.departure}' "
                f"(available: {', '.join(DEPARTURE_POLICIES)})"
            )
        if self.arrival_rate < 0 or self.background_rate < 0:
            raise ValueError("arrival rates cannot be negative")
        if self.arrivals == "poisson" and self.arrival_rate == 0:
            raise ValueError("a poisson scenario needs arrival_rate > 0")
        if self.burst_round < 1:
            raise ValueError("burst_round counts from 1")
        if self.burst_size < 0:
            raise ValueError("burst_size cannot be negative")
        if self.arrivals == "flashcrowd" and self.burst_size == 0 and self.background_rate == 0:
            raise ValueError("a flashcrowd scenario needs a burst or a background rate")
        if self.max_arrivals is not None and self.max_arrivals < 0:
            raise ValueError("max_arrivals cannot be negative")
        if self.linger_rounds < 0:
            raise ValueError("linger_rounds cannot be negative")
        if not 0.0 <= self.arrival_completion < 1.0:
            raise ValueError("arrival_completion must be in [0, 1)")

    # -- properties ---------------------------------------------------------------

    @property
    def is_static(self) -> bool:
        """Whether this schedule reproduces the fixed-population behaviour."""
        return self.arrivals == "static" and self.departure == "stay"

    @property
    def effective_linger(self) -> int:
        """Seeding rounds after completion (``"leave"`` forces 0)."""
        return 0 if self.departure == "leave" else self.linger_rounds

    # -- arrival process ----------------------------------------------------------

    def arrivals_for_round(
        self, round_index: int, total_arrived: int, rng: np.random.Generator
    ) -> int:
        """Number of peers joining at the start of ``round_index``.

        Consumes at most one Poisson draw; a static schedule (and a
        flashcrowd with no background rate) draws nothing, so enabling
        scenarios cannot perturb the streams of a fixed-population run.
        Both engines call this with the same ``"scenario"`` stream.
        """
        if self.arrivals == "static":
            return 0
        count = 0
        if self.arrivals == "poisson":
            count = int(rng.poisson(self.arrival_rate))
        elif self.arrivals == "flashcrowd":
            if round_index == self.burst_round:
                count += self.burst_size
            if self.background_rate > 0:
                count += int(rng.poisson(self.background_rate))
        if self.max_arrivals is not None:
            count = min(count, self.max_arrivals - total_arrived)
        return max(0, count)

    def more_arrivals_after(self, round_index: int, total_arrived: int) -> bool:
        """Whether any later round can still see an arrival.

        Gates the early-exit when every present leecher has completed: a
        static schedule never blocks it (same exit as the fixed-population
        simulator), an open Poisson process always does.
        """
        if self.arrivals == "static":
            return False
        if self.max_arrivals is not None and total_arrived >= self.max_arrivals:
            return False
        if self.arrivals == "poisson":
            return True
        return self.background_rate > 0 or round_index < self.burst_round

    def sample_capacities(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Upload capacities (kbps) for ``count`` arrivals, one batch draw."""
        dist = self.capacity if self.capacity is not None else saroiu_like_distribution()
        return np.asarray(dist.sample(count, rng), dtype=float)

    def arrival_pieces(self, piece_count: int) -> int:
        """Bootstrap pieces an arrival holds (never a complete bitfield)."""
        return min(
            int(round(self.arrival_completion * piece_count)), piece_count - 1
        )

    # -- departure policy ---------------------------------------------------------

    def should_depart(self, completed_round: Optional[int], round_index: int) -> bool:
        """Whether a leecher that completed in ``completed_round`` departs now.

        Departure happens at the *start* of round
        ``completed_round + 1 + effective_linger``: a leaver still uploads
        for the remainder of its completion round, a lingerer seeds for
        ``linger_rounds`` further whole rounds.  Purely deterministic -- no
        random stream is consumed, so both engines agree trivially.
        """
        if self.departure == "stay" or completed_round is None:
            return False
        return round_index > completed_round + self.effective_linger


# Named presets reachable from the CLI (`--scenario`) and the experiment
# drivers; make_scenario(**overrides) tweaks any field.
_PRESETS = {
    "static": {},
    "poisson": {
        "arrivals": "poisson",
        "arrival_rate": 2.0,
        "departure": "leave",
    },
    "flashcrowd": {
        "arrivals": "flashcrowd",
        "burst_round": 5,
        "burst_size": 40,
        "departure": "leave",
    },
    "seed-linger": {
        "arrivals": "poisson",
        "arrival_rate": 2.0,
        "departure": "linger",
        "linger_rounds": 5,
    },
}

SCENARIO_NAMES = tuple(sorted(_PRESETS))


def make_scenario(name: str, **overrides) -> ScenarioSchedule:
    """Build a named scenario preset, with per-field overrides.

    ``static`` -- nobody joins or leaves (the paper's assumed steady
    state); ``poisson`` -- continuous arrivals, leave on completion;
    ``flashcrowd`` -- a burst of fresh joiners at round 5, leave on
    completion; ``seed-linger`` -- continuous arrivals, completed leechers
    seed for five rounds before leaving.
    """
    if name not in _PRESETS:
        raise ValueError(
            f"unknown scenario '{name}' (available: {', '.join(SCENARIO_NAMES)})"
        )
    return ScenarioSchedule(**{**_PRESETS[name], **overrides})


def resolve_scenario(
    scenario: Union[ScenarioSchedule, str, None],
) -> ScenarioSchedule:
    """Normalize a ``scenario=`` argument to a :class:`ScenarioSchedule`.

    Accepts a schedule, a preset name, or ``None`` (static).
    """
    if scenario is None:
        return ScenarioSchedule()
    if isinstance(scenario, str):
        return make_scenario(scenario)
    if not isinstance(scenario, ScenarioSchedule):
        raise TypeError("scenario must be a ScenarioSchedule, a preset name or None")
    return scenario
