"""The benchmark's workloads: inputs from a seed, a timed set-up and run, checks.

Each workload builds its inputs from the ``--seed`` it is given, times the
set-up (the simulator constructor; for ``matching-convergence`` also the
acceptance-graph sample) apart from ``.run()``, and checks every result:
invariants on the result itself, identical checksums on every repetition
of the same seed, and -- once per process, untimed -- identical checksums
from both engines on a small copy of the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List

import numpy as np

from repro.bittorrent.bandwidth import saroiu_like_distribution
from repro.bittorrent.behaviors import bootstrap_piece_count, profile_for
from repro.bittorrent.scenarios import resolve_scenario
from repro.bittorrent.swarm import SwarmConfig, SwarmResult, SwarmSimulator
from repro.bittorrent.telemetry import ObserverConfig
from repro.core.acceptance import AcceptanceGraph
from repro.core.dynamics import ConvergenceResult, ConvergenceSimulator
from repro.core.peer import PeerPopulation
from repro.sim import streams
from repro.sim.random_source import RandomSource

__all__ = ["SwarmWorkload", "MatchingWorkload", "WORKLOADS"]

# The hostile environment of swarm-churn and swarm-reference: two tracker
# outages (one total, one on replica 1), a mass crash with rejoin and 2%
# transfer loss, against the full resilience policy.
CHURN_FAULTS = "outage:3+2/all,outage:6+3/1,crash:50@4~3,loss:0.02"
CHURN_RESILIENCE = "trackers:3,pex:8,keepalive:2"
# Seed of the capacity profile all swarm seeds permute.
CAPACITY_SEED = 2007


def _downloaded(result: SwarmResult) -> float:
    return sum(peer.downloaded_kbit for peer in result.peers.values())


@dataclass(frozen=True)
class SwarmWorkload:
    """A BitTorrent swarm on one engine; static or under full churn."""

    name: str
    why: str
    engine: str
    leechers: int
    rounds: int
    churn: bool
    seeds: int = 3
    piece_count: int = 300
    check_leechers: int = 200
    setup_repeats: int = 3

    def config(self, leechers: int) -> SwarmConfig:
        return SwarmConfig(
            leechers=leechers,
            seeds=self.seeds,
            piece_count=self.piece_count,
            rounds=self.rounds,
            start_completion=0.3,
            behaviors="hostile" if self.churn else None,
            faults=CHURN_FAULTS if self.churn else None,
            resilience=CHURN_RESILIENCE if self.churn else None,
        )

    @property
    def scenario(self) -> str:
        return "poisson" if self.churn else "static"

    def inputs(self, seed: int, leechers: int = 0, engine: str = "") -> Callable[[], SwarmSimulator]:
        """The simulator constructor, bound to the inputs ``seed`` makes.

        Every seed shares one capacity profile and permutes it over the
        leechers, so the swarm's total upload capacity -- and with it the
        work per round -- is the same for every seed.
        """
        leechers = leechers or self.leechers
        profile = saroiu_like_distribution().sample(leechers, np.random.default_rng(CAPACITY_SEED))
        return partial(
            SwarmSimulator,
            self.config(leechers),
            bandwidths=np.random.default_rng(seed).permutation(profile).tolist(),
            seed=seed,
            engine=engine or self.engine,
            scenario=self.scenario,
            observer=ObserverConfig() if self.churn else None,
        )

    def run(self, simulator: SwarmSimulator) -> SwarmResult:
        return simulator.run()

    def work(self, result: SwarmResult) -> Dict[str, float]:
        """Pieces leechers acquired by transfer, then kilobits delivered.

        Pieces come first: they are the useful work and vary by about 1%
        across seeds, while the kilobits also count credit a nearly
        complete receiver cannot use and vary by about 10%.
        """
        return {"pieces": self.pieces_acquired(result), "kbit": _downloaded(result)}

    def checksum(self, result: SwarmResult) -> Dict[str, Any]:
        peers = result.peers.values()
        checksum: Dict[str, Any] = {
            "completed": result.completed,
            "rounds_run": result.rounds_run,
            "arrivals": result.arrivals,
            "departures": result.departures,
            "downloaded_kbit": _downloaded(result),
            "uploaded_kbit": sum(peer.uploaded_kbit for peer in peers),
            "pieces_held": sum(len(peer.bitfield) for peer in peers),
            "collaboration_pairs": len(result.collaboration_volume),
            "tft_pairs": len(result.tft_reciprocal_rounds),
        }
        if result.resilience is not None:
            checksum["resilience"] = repr(result.resilience)
        if result.observed is not None:
            checksum["scrapes"] = len(result.observed.scrapes)
            checksum["polled_peers"] = len(result.observed.timelines)
        return checksum

    def problems(self, result: SwarmResult) -> List[str]:
        """Invariants every swarm result must satisfy."""
        found: List[str] = []
        peers = list(result.peers.values())
        uploaded = sum(peer.uploaded_kbit for peer in peers)
        downloaded = _downloaded(result)
        if abs(uploaded - downloaded) > 1e-9 * max(1.0, downloaded):
            found.append(f"uploaded {uploaded!r} != downloaded {downloaded!r}")
        finished = sum(1 for peer in peers if peer.completed_round is not None)
        if result.completed != finished:
            found.append(f"completed={result.completed} but {finished} peers have a completion round")
        bad = [p.peer_id for p in peers if not 0 <= len(p.bitfield) <= self.piece_count]
        if bad:
            found.append(f"piece counts outside [0, {self.piece_count}] for peers {bad[:5]}")
        return found

    def cross_check(self, seed: int) -> List[str]:
        """Both engines agree on a small copy of this spec for ``seed``."""
        sums = {
            engine: self.checksum(self.inputs(seed, self.check_leechers, engine)().run())
            for engine in ("fast", "reference")
        }
        if sums["fast"] != sums["reference"]:
            return [f"engines diverge at {self.check_leechers} leechers: {sums}"]
        return []

    def result_counts(self, simulator: SwarmSimulator, result: SwarmResult) -> Dict[str, float]:
        return {"swarm.pieces_acquired": self.pieces_acquired(result)}

    def pieces_acquired(self, result: SwarmResult) -> int:
        """Pieces leechers hold minus the pieces they were bootstrapped with."""
        config = result.config
        start = int(round(config.start_completion * config.piece_count))
        arrival = resolve_scenario(self.scenario).arrival_pieces(config.piece_count)
        gained = 0
        for peer in result.leechers():
            default = start if peer.arrival_round == 0 else arrival
            held = bootstrap_piece_count(profile_for(peer.behavior), default, config.piece_count)
            gained += len(peer.bitfield) - held
        return gained


@dataclass(frozen=True)
class MatchingWorkload:
    """Figure 1: Algorithm 1's initiative dynamics on a G(n, d) graph."""

    name: str
    why: str
    n: int
    degree: float = 50.0
    base_units: float = 8.0
    check_n: int = 400
    setup_repeats: int = 1

    def inputs(self, seed: int, n: int = 0, engine: str = "fast") -> Callable[[], ConvergenceSimulator]:
        """Set-up samples the acceptance graph, as every Figure 1 run does."""
        return partial(self._build, seed, n or self.n, engine)

    def _build(self, seed: int, n: int, engine: str) -> ConvergenceSimulator:
        source = RandomSource(seed)
        population = PeerPopulation.ranked(n, slots=1)
        acceptance = AcceptanceGraph.erdos_renyi(
            population, expected_degree=self.degree, rng=source.stream(streams.GRAPH)
        )
        return ConvergenceSimulator(acceptance, strategy="best-mate", source=source, engine=engine)

    def run(self, simulator: ConvergenceSimulator) -> ConvergenceResult:
        return simulator.run(max_base_units=self.base_units)

    def work(self, result: ConvergenceResult) -> Dict[str, float]:
        return {"initiatives": float(result.initiatives)}

    def result_counts(
        self, simulator: ConvergenceSimulator, result: ConvergenceResult
    ) -> Dict[str, float]:
        return {
            "matching.active_frac": result.active_initiatives / result.initiatives,
            "matching.edges": simulator.acceptance.graph.edge_count,
        }

    def checksum(self, result: ConvergenceResult) -> Dict[str, Any]:
        return {
            "initiatives": result.initiatives,
            "active_initiatives": result.active_initiatives,
            "converged": result.converged,
            "trajectory": tuple(result.trajectory.values),
            "pairs": tuple(sorted(result.final_matching.pairs())),
        }

    def problems(self, result: ConvergenceResult) -> List[str]:
        found: List[str] = []
        n = len(result.final_matching.acceptance.population)
        if not 0 <= result.active_initiatives <= result.initiatives:
            found.append(
                f"active_initiatives={result.active_initiatives} "
                f"outside [0, initiatives={result.initiatives}]"
            )
        horizon = int(round(self.base_units * n))
        if result.initiatives != horizon and result.time_to_converge is None:
            found.append(f"stopped after {result.initiatives} of {horizon} initiatives unconverged")
        if result.converged != (result.trajectory.values[-1] == 0.0):
            found.append("converged flag disagrees with the final disorder")
        return found

    def cross_check(self, seed: int) -> List[str]:
        sums = {
            engine: self.checksum(self.run(self.inputs(seed, self.check_n, engine)()))
            for engine in ("fast", "reference")
        }
        if sums["fast"] != sums["reference"]:
            return [f"engines diverge at n={self.check_n}"]
        return []


WORKLOADS = {
    workload.name: workload
    for workload in (
        SwarmWorkload(
            name="swarm-static",
            why="fast engine, static swarm: the transfer loop and piece acquisition "
            "dominate; membership, CSR rebuild, faults and PEX stay idle",
            engine="fast",
            leechers=2_000,
            rounds=6,
            churn=False,
        ),
        SwarmWorkload(
            name="swarm-churn",
            why="fast engine under poisson churn, hostile behaviors, faults, full "
            "resilience and an observer: every layer idle in swarm-static works",
            engine="fast",
            leechers=2_000,
            rounds=20,
            churn=True,
        ),
        SwarmWorkload(
            name="swarm-reference",
            why="the swarm-churn spec on the reference engine, the only workload "
            "that times SwarmSimulator, its chokers, Bitfield and Tracker",
            engine="reference",
            leechers=300,
            rounds=20,
            churn=True,
        ),
        MatchingWorkload(
            name="matching-convergence",
            why="Figure 1 on the fast engine: graph sampling and the stable table "
            "in set-up, Algorithm 1 initiatives in the run; no swarm code",
            n=5_000,
        ),
    )
}
