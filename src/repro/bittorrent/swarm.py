"""A round-based BitTorrent swarm simulator.

The simulator exercises, end to end, the mechanism that the paper models
analytically: peers discover each other through a tracker, exchange pieces
under the Tit-for-Tat choking policy with rarest-first piece selection, and
-- once content availability stops being the bottleneck -- sort themselves
into bandwidth strata.

One simulation *round* represents one rechoke period (10 seconds of real
BitTorrent time).  In each round every peer:

1. recomputes its unchoked set from what it received during the previous
   round (Tit-for-Tat + optimistic unchoke),
2. splits its upload capacity evenly across its unchoked, interested
   neighbors, and
3. the receiving side accumulates the transferred volume and converts it
   into pieces chosen rarest-first from the sender's bitfield.

All volumes are measured in **kilobits** (so that upload capacities in kbps
convert directly: one round moves ``upload_kbps * round_seconds`` kilobits).

The output records per-peer download rates and the realised collaboration
graph, from which :func:`stratification_index` measures how strongly peers
pair with partners of similar bandwidth rank -- the empirical counterpart of
the matching model's stratification result.

Like :class:`repro.core.dynamics.ConvergenceSimulator`, the simulator takes
an ``engine`` switch: ``"reference"`` (this module, dictionaries and sets,
the correctness oracle) or ``"fast"`` (the packed-bit array engine in
:mod:`repro.bittorrent.fast`).  Both engines consume the shared random
streams draw-for-draw and produce bit-identical :class:`SwarmResult`\\ s for
the same seed; the contract is enforced by
``tests/test_swarm_engine_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bittorrent.bandwidth import BandwidthDistribution, saroiu_like_distribution
from repro.bittorrent.behaviors import (
    BehaviorMix,
    BehaviorProfile,
    bootstrap_piece_count,
    filter_contacts,
    profile_for,
    resolve_behavior_mix,
)
from repro.bittorrent.choking import SeedChoker, TitForTatChoker
from repro.bittorrent.faults import FaultRuntime, FaultSchedule, resolve_faults
from repro.bittorrent.pieces import Bitfield, Torrent
from repro.bittorrent.piece_selection import PieceSelector, make_selector, piece_availability
from repro.bittorrent.resilience import (
    ResiliencePolicy,
    ResilienceRuntime,
    ResilienceStats,
    resolve_resilience,
    sample_pools,
)
from repro.bittorrent.scenarios import ScenarioSchedule, resolve_scenario
from repro.bittorrent.telemetry import (
    ObservedSwarm,
    ObserverConfig,
    SwarmObserver,
    _ReferenceSwarmView,
    resolve_observer,
)
from repro.bittorrent.tracker import Tracker
from repro.core.exceptions import validate_engine
from repro.sim.random_source import RandomSource
from repro.sim import streams

__all__ = ["SwarmConfig", "SwarmPeer", "SwarmResult", "SwarmSimulator", "stratification_index"]


@dataclass
class SwarmConfig:
    """Parameters of a swarm simulation.

    Attributes
    ----------
    leechers:
        Number of downloading peers.
    seeds:
        Number of initial seeds.
    piece_count:
        Number of pieces in the torrent.
    piece_size_kbit:
        Piece size in kilobits.
    regular_slots:
        Tit-for-Tat slots per leecher (the paper's b0, default 3).
    optimistic_slots:
        Optimistic unchoke slots per leecher (default 1).
    seed_slots:
        Upload slots of each seed.
    announce_size:
        Tracker announce size (expected acceptance degree d).
    rounds:
        Number of rechoke rounds to simulate.
    round_seconds:
        Real-time duration of one round (used to convert kbps to
        kilobits per round).
    piece_selection:
        Piece selection policy name.
    start_completion:
        Fraction of pieces each leecher already holds at start.  A non-zero
        value puts the swarm directly in the post flash-crowd regime that
        the paper analyses.
    seed_upload_kbps:
        Upload capacity of seeds.
    warmup_rounds:
        Rounds excluded from the reciprocal-TFT statistics (the initial
        discovery phase, where unchokes are still mostly optimistic).
    optimistic_period:
        Rechoke rounds an optimistic unchoke is kept before rotation
        (BitTorrent uses 3 x 10 s, so the default is 3 rounds).
    behaviors:
        Client-behavior mix of the population (a
        :class:`~repro.bittorrent.behaviors.BehaviorMix`, a preset name /
        spec string, or ``None`` for the paper's homogeneous obedient
        clients).  Behaviors are bit-identical across engines.
    faults:
        Fault schedule of the run (a
        :class:`~repro.bittorrent.faults.FaultSchedule`, a preset name /
        spec string, or ``None`` for the paper's failure-free setting):
        tracker outages, transfer loss, peer crashes and network
        partitions.  Faults are bit-identical across engines, and a
        trivial schedule leaves the run draw-for-draw identical to a
        fault-free one.
    resilience:
        Client-side defenses against the fault layer (a
        :class:`~repro.bittorrent.resilience.ResiliencePolicy`, a preset
        name / spec string, or ``None`` for the paper's defenseless
        clients): multi-tracker failover, peer-exchange gossip during
        total outages, and dead-neighbor eviction with stale-registration
        purging.  Resilience is bit-identical across engines, and the
        trivial default draws nothing and changes nothing.
    """

    leechers: int = 60
    seeds: int = 2
    piece_count: int = 800
    piece_size_kbit: float = 256.0
    regular_slots: int = 3
    optimistic_slots: int = 1
    seed_slots: int = 4
    announce_size: int = 20
    rounds: int = 60
    round_seconds: float = 10.0
    piece_selection: str = "rarest-first"
    start_completion: float = 0.3
    seed_upload_kbps: float = 5000.0
    warmup_rounds: int = 5
    optimistic_period: int = 3
    behaviors: "BehaviorMix | str | None" = None
    faults: "FaultSchedule | str | None" = None
    resilience: "ResiliencePolicy | str | None" = None

    def __post_init__(self) -> None:
        if self.leechers <= 1:
            raise ValueError("need at least two leechers")
        if self.seeds < 0:
            raise ValueError("seeds cannot be negative")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if not 0.0 <= self.start_completion < 1.0:
            raise ValueError("start_completion must be in [0, 1)")
        if self.warmup_rounds < 0:
            raise ValueError("warmup_rounds cannot be negative")
        if self.optimistic_period <= 0:
            raise ValueError("optimistic_period must be positive")
        if self.behaviors is not None:
            self.behaviors = resolve_behavior_mix(self.behaviors)
        if self.faults is not None:
            self.faults = resolve_faults(self.faults)
        if self.resilience is not None:
            self.resilience = resolve_resilience(self.resilience)


@dataclass
class SwarmPeer:
    """Dynamic state of one peer in the swarm (volumes in kilobits).

    ``arrival_round`` is 0 for the initial population and the join round
    for scenario arrivals; ``departed_round`` is set when a scenario
    departure policy removes the peer from the swarm (its statistics are
    frozen at that point but still reported in the result).

    ``behavior`` names the peer's assigned
    :class:`~repro.bittorrent.behaviors.BehaviorProfile` and
    ``locality_group`` its locality group (-1 when the mix has no
    locality-biased behavior and groups were never drawn).
    """

    peer_id: int
    upload_kbps: float
    is_seed: bool
    bitfield: Bitfield
    neighbors: Set[int] = field(default_factory=set)
    downloaded_kbit: float = 0.0
    uploaded_kbit: float = 0.0
    partial_kbit: Dict[int, float] = field(default_factory=dict)
    received_last_round: Dict[int, float] = field(default_factory=dict)
    completed_round: Optional[int] = None
    arrival_round: int = 0
    departed_round: Optional[int] = None
    behavior: str = "standard"
    locality_group: int = -1

    def download_rate_kbps(self, rounds: int, round_seconds: float) -> float:
        """Average download rate over the peer's time in the swarm.

        A peer joining at the start of round ``r`` participates in rounds
        ``r..horizon`` inclusive -- ``horizon - r + 1`` rounds (the initial
        population, ``arrival_round == 0``, participates from round 1).
        """
        horizon = (self.completed_round if self.completed_round is not None else rounds)
        active_since = max(1, self.arrival_round)
        horizon = max(1, horizon - active_since + 1)
        return self.downloaded_kbit / (horizon * round_seconds)


@dataclass
class SwarmResult:
    """Outcome of a swarm simulation.

    ``collaboration_volume`` records every kilobit moved between a pair;
    ``tft_reciprocal_rounds`` counts, per pair of leechers, the rounds in
    which *both* sides granted the other a regular (Tit-for-Tat) slot --
    the empirical analogue of a matched pair in the paper's model.

    Under a dynamic :class:`~repro.bittorrent.scenarios.ScenarioSchedule`,
    ``peers`` contains departed peers too (with ``departed_round`` set and
    their statistics frozen at departure); ``arrivals`` / ``departures``
    count the membership events over the whole run.

    ``observed`` carries the measurement campaign of an attached
    :class:`~repro.bittorrent.telemetry.SwarmObserver` (``None`` when the
    run was unobserved); every other field is bit-identical with or
    without observation.

    ``resilience`` carries the failover / PEX / eviction counters of a
    non-trivial :class:`~repro.bittorrent.resilience.ResiliencePolicy`
    (``None`` -- and absent from serialized traces -- for the defenseless
    default, so pre-resilience result payloads are unchanged).
    """

    config: SwarmConfig
    peers: Dict[int, SwarmPeer]
    collaboration_volume: Dict[Tuple[int, int], float]
    tft_reciprocal_rounds: Dict[Tuple[int, int], float]
    completed: int
    rounds_run: int
    arrivals: int = 0
    departures: int = 0
    observed: Optional[ObservedSwarm] = None
    resilience: Optional[ResilienceStats] = None

    def leechers(self) -> List[SwarmPeer]:
        """All non-seed peers (departed ones included)."""
        return [peer for peer in self.peers.values() if not peer.is_seed]

    def present_peers(self) -> List[SwarmPeer]:
        """Peers still in the swarm at the end of the run."""
        return [peer for peer in self.peers.values() if peer.departed_round is None]

    def download_rates(self) -> Dict[int, float]:
        """Average download rate (kbps) per leecher."""
        return {
            peer.peer_id: peer.download_rate_kbps(self.rounds_run, self.config.round_seconds)
            for peer in self.leechers()
        }

    def share_ratios(self) -> Dict[int, float]:
        """Downloaded / uploaded volume per leecher (the BitTorrent share ratio)."""
        ratios = {}
        for peer in self.leechers():
            uploaded = max(peer.uploaded_kbit, 1e-9)
            ratios[peer.peer_id] = peer.downloaded_kbit / uploaded
        return ratios


class SwarmSimulator:
    """Drives a round-based Tit-for-Tat swarm.

    Parameters
    ----------
    config:
        Swarm parameters.
    bandwidths:
        Explicit leecher upload capacities (kbps); sampled from
        ``distribution`` when omitted.
    distribution:
        Bandwidth distribution to sample from (Saroiu-style by default).
    seed:
        Master seed of the shared :class:`~repro.sim.random_source.RandomSource`.
    engine:
        ``"reference"`` (default) for this dictionary implementation,
        ``"fast"`` for the packed-bit array engine in
        :mod:`repro.bittorrent.fast.swarm`.  Both are bit-identical for
        the same seed.
    scenario:
        Membership dynamics: a
        :class:`~repro.bittorrent.scenarios.ScenarioSchedule`, a preset
        name (``"static"``, ``"poisson"``, ``"flashcrowd"``,
        ``"seed-linger"``) or ``None`` for the fixed population the paper
        assumes.  Scenarios are bit-identical across engines too.
    observer:
        A :class:`~repro.bittorrent.telemetry.SwarmObserver` (or an
        :class:`~repro.bittorrent.telemetry.ObserverConfig` to build one)
        that measures the run the way a real scrape-and-poll study would;
        its record lands in ``SwarmResult.observed``.  Observation never
        changes the simulation -- results stay bit-identical to the
        unobserved run on both engines.
    """

    def __init__(
        self,
        config: SwarmConfig,
        *,
        bandwidths: Optional[Sequence[float]] = None,
        distribution: Optional[BandwidthDistribution] = None,
        seed: int = 0,
        engine: str = "reference",
        scenario: "ScenarioSchedule | str | None" = None,
        observer: "SwarmObserver | ObserverConfig | None" = None,
    ) -> None:
        validate_engine(engine)
        self.config = config
        self.engine = engine
        self.scenario = resolve_scenario(scenario)
        self.observer = resolve_observer(observer)
        self.source = RandomSource(seed)
        self.torrent = Torrent(config.piece_count, config.piece_size_kbit)
        # The behavior layer: the swarm's mix, the (possibly overriding)
        # arrival mix, and two flags that gate every behavior branch.  All
        # three are pure functions of config + scenario, so the fast
        # engine derives the identical gates and the shared streams stay
        # aligned.  A trivial mix keeps this run draw-for-draw identical
        # to a behavior-free one.
        self.behaviors = resolve_behavior_mix(config.behaviors)
        self._arrival_mix: BehaviorMix = (
            self.scenario.behaviors
            if self.scenario.behaviors is not None
            else self.behaviors
        )
        self._behaviors_active = not (
            self.behaviors.is_trivial and self._arrival_mix.is_trivial
        )
        self._locality_on = (
            self.behaviors.uses_locality or self._arrival_mix.uses_locality
        )
        # The fault layer: one shared pid-level runtime per run.  A
        # trivial schedule keeps every fault branch off (and every
        # fault-* stream untouched), so fault-free runs stay
        # draw-for-draw identical to pre-fault-layer ones.
        self.faults = resolve_faults(config.faults)
        self._faults = FaultRuntime(self.faults)
        self._faults_active = self._faults.active
        self.tracker_available = True
        # The resilience layer mirrors the fault layer's shape: one
        # pid-level runtime (which also validates the schedule's replica
        # targets against the announce-list length), gates derived from
        # the config alone, and a trivial policy that draws nothing.
        self.resilience = resolve_resilience(config.resilience)
        self._resilience = ResilienceRuntime(self.resilience, self.faults)
        self._resilience_active = self._resilience.active
        if engine == "fast":
            from repro.bittorrent.fast.swarm import FastSwarmSimulator

            self._fast: Optional[FastSwarmSimulator] = FastSwarmSimulator(
                config,
                bandwidths=bandwidths,
                distribution=distribution,
                seed=seed,
                scenario=self.scenario,
                observer=self.observer,
            )
            return
        self._fast = None
        self.selector: PieceSelector = make_selector(config.piece_selection)
        self.tracker = Tracker(announce_size=config.announce_size)
        self._chokers: Dict[int, TitForTatChoker | SeedChoker] = {}
        self.peers: Dict[int, SwarmPeer] = {}
        self._departed: Dict[int, SwarmPeer] = {}
        self._profiles: Dict[int, BehaviorProfile] = {}
        self._next_pid = 0
        self._total_arrived = 0
        self._build_population(bandwidths, distribution)

    def __getattr__(self, name: str):
        # In fast mode ``peers`` is materialized from the arrays on demand
        # (a fresh snapshot of the current state, initial before run() and
        # final after), keeping the public surface engine-independent.
        # ``tracker``/``selector`` remain reference-engine internals.
        if name == "peers":
            fast = self.__dict__.get("_fast")
            if fast is not None:
                return fast.materialize_peers()
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # -- construction ------------------------------------------------------------

    def _build_population(
        self,
        bandwidths: Optional[Sequence[float]],
        distribution: Optional[BandwidthDistribution],
    ) -> None:
        config = self.config
        rng = self.source.stream(streams.BANDWIDTH)
        if bandwidths is not None:
            uploads = np.asarray(list(bandwidths), dtype=float)
            if uploads.shape[0] != config.leechers:
                raise ValueError("bandwidths must have one entry per leecher")
        else:
            dist = distribution if distribution is not None else saroiu_like_distribution()
            uploads = dist.sample(config.leechers, rng)

        # Pinned behavior draws: one assignment batch for the leechers,
        # then (only when some behavior is locality-biased) one group
        # batch for the whole initial population, seeds included -- both
        # before any bootstrap draw.  The fast engine replays this order.
        behavior_rng = self.source.stream(streams.BEHAVIOR)
        mix = self.behaviors
        leecher_behaviors = mix.assign(config.leechers, behavior_rng)
        n_initial = config.leechers + config.seeds
        groups = (
            mix.assign_groups(n_initial, behavior_rng)
            if self._locality_on
            else [-1] * n_initial
        )

        # Replica preferences: one pinned tracker-select batch for the
        # whole initial population (seeds included), drawn only when the
        # announce list actually has more than one replica.
        if self._resilience_active:
            self._resilience.assign_preferences(
                list(range(1, n_initial + 1)),
                self.source.stream(streams.TRACKER_SELECT),
            )

        bootstrap_rng = self.source.stream(streams.BOOTSTRAP)
        announce_rng = self.source.stream(streams.TRACKER)
        start_default = int(round(config.start_completion * config.piece_count))
        peer_id = 0
        for index in range(config.leechers):
            peer_id += 1
            self._next_pid = peer_id
            profile = profile_for(leecher_behaviors[index])
            bitfield = Bitfield.empty(config.piece_count)
            start_pieces = bootstrap_piece_count(
                profile, start_default, config.piece_count
            )
            if start_pieces:
                for piece in bootstrap_rng.choice(
                    config.piece_count, size=start_pieces, replace=False
                ):
                    bitfield.add(int(piece))
            peer = SwarmPeer(
                peer_id=peer_id,
                upload_kbps=float(uploads[index]),
                is_seed=False,
                bitfield=bitfield,
                behavior=profile.name,
                locality_group=groups[index],
            )
            self.peers[peer_id] = peer
            self._profiles[peer_id] = profile
            self._chokers[peer_id] = TitForTatChoker(
                regular_slots=config.regular_slots,
                optimistic_slots=config.optimistic_slots,
                optimistic_period=config.optimistic_period,
            )
        seed_profile = profile_for(mix.seed_behavior)
        for k in range(config.seeds):
            peer_id += 1
            self._next_pid = peer_id
            peer = SwarmPeer(
                peer_id=peer_id,
                upload_kbps=config.seed_upload_kbps,
                is_seed=True,
                bitfield=Bitfield.complete(config.piece_count),
                behavior=seed_profile.name,
                locality_group=groups[config.leechers + k],
            )
            self.peers[peer_id] = peer
            self._profiles[peer_id] = seed_profile
            self._chokers[peer_id] = SeedChoker(slots=config.seed_slots)

        for pid in self.peers:
            contacts = self.tracker.announce(pid, announce_rng)
            if self._resilience_active:
                # Construction happens before round 1, so no outage window
                # can cover it: every announce lands on its preferred
                # replica (round_index=0 is outside all windows).
                self._resilience.record_announce(pid, 0)
            if self._behaviors_active:
                contacts = self._filter_contacts(pid, contacts, behavior_rng)
            self.peers[pid].neighbors.update(contacts)
            for other in contacts:
                self.peers[other].neighbors.add(pid)
        # Peers that join already holding the full content announce as
        # seeders: scrape counts them, the snatch counter does not.
        for pid, peer in self.peers.items():
            if peer.bitfield.is_complete():
                self.tracker.register_complete(pid)

    def _locality_group_of(self, pid: int) -> int:
        """Locality group of a peer, crashed peers included.

        A crashed peer never departs the tracker, so its id can show up
        in another peer's contacts; its group (assigned at arrival,
        retained across the crash) lives on its frozen snapshot.
        """
        peer = self.peers.get(pid)
        if peer is None:
            peer = self._departed[pid]
        return peer.locality_group

    def _filter_contacts(
        self,
        pid: int,
        contacts: Sequence[int],
        behavior_rng: np.random.Generator,
    ) -> List[int]:
        """Apply ``pid``'s locality / NAT edge behaviors to its contacts."""
        contact_list = [int(contact) for contact in contacts]
        return filter_contacts(
            self._profiles[pid],
            self.peers[pid].locality_group,
            contact_list,
            [self._locality_group_of(contact) for contact in contact_list],
            [self._profiles[contact].nat_limited for contact in contact_list],
            behavior_rng,
        )

    # -- membership dynamics -------------------------------------------------------

    def _process_membership(self, round_index: int) -> None:
        """Apply the scenario's departures and arrivals for this round.

        The order (departures, then one arrival-count draw, then one
        capacity batch, then per-arrival bootstrap + announce) is the
        engine-shared protocol documented in
        :mod:`repro.bittorrent.scenarios` -- the fast engine replays it
        step for step on the same streams.  When a fault schedule is
        active the protocol grows pinned extra steps (see
        ``docs/faults.md``): recovery flush and crash rejoins *before*
        the scenario departures, crash events and announce retries after
        them, and partition-side assignment at the very end.
        """
        scenario = self.scenario
        if self._faults_active:
            self._faults.begin_round(round_index)
            self.tracker_available = self._faults.tracker_up(
                round_index, self.resilience.trackers
            )
            if self.tracker_available:
                completions, departs = self._faults.drain_deferred()
                for pid in completions:
                    self.tracker.record_completion(pid)
                for pid in departs:
                    self.tracker.depart(pid)
            self._process_rejoins(round_index)
        if self._resilience_active:
            # Dead-neighbor eviction: fire the keepalive timeouts, then
            # deliver any pending stale-registration purges if a replica
            # is reachable.  Runs after the rejoin step so a peer that
            # came back this round keeps its (live again) registration.
            self._resilience.begin_round(round_index)
            if self.tracker_available:
                for pid in self._resilience.drain_purges():
                    if pid in self.peers:
                        continue  # rejoined: the registration is live again
                    if self.tracker.is_registered(pid):
                        self.tracker.depart(pid)
                        self._resilience.count_purge()
        if scenario.departure != "stay":
            due = [
                pid
                for pid, peer in self.peers.items()
                if not peer.is_seed
                and scenario.should_depart(peer.completed_round, round_index)
            ]
            for pid in due:
                self._depart(pid, round_index)
        if self._faults_active:
            self._process_crashes(round_index)
            self._process_pending_announces(round_index)
        count = scenario.arrivals_for_round(
            round_index, self._total_arrived, self.source.stream(streams.SCENARIO)
        )
        if count > 0:
            capacities = scenario.sample_capacities(count, self.source.stream(streams.BANDWIDTH))
            behavior_rng = self.source.stream(streams.BEHAVIOR)
            arrival_mix = self._arrival_mix
            arrival_behaviors = arrival_mix.assign(count, behavior_rng)
            arrival_groups = (
                arrival_mix.assign_groups(count, behavior_rng)
                if self._locality_on
                else [-1] * count
            )
            if self._resilience_active:
                # One tracker-select batch per arrival wave (the pids are
                # allocated sequentially, so both engines know them before
                # the per-arrival loop runs).
                self._resilience.assign_preferences(
                    [self._next_pid + 1 + k for k in range(count)],
                    self.source.stream(streams.TRACKER_SELECT),
                )
            for k in range(count):
                self._arrive(
                    float(capacities[k]),
                    round_index,
                    arrival_behaviors[k],
                    arrival_groups[k],
                )
            self._total_arrived += count
        if self._faults_active and self._faults.partition_active(round_index):
            self._faults.assign_missing_groups(
                round_index,
                sorted(self.peers),
                self.source.stream(streams.FAULT_PARTITION),
            )

    def _depart(self, pid: int, round_index: int) -> None:
        """Remove a completed leecher; freeze its statistics in the result."""
        peer = self.peers.pop(pid)
        peer.departed_round = round_index
        for other in peer.neighbors:
            if other in self.peers:
                self.peers[other].neighbors.discard(pid)
        if self._faults_active and not self.tracker_available:
            # The stopped event cannot reach the tracker mid-outage; it
            # is delivered on recovery.
            self._faults.defer_depart(pid)
        else:
            self.tracker.depart(pid)
        del self._chokers[pid]
        self._departed[pid] = peer

    # -- fault dynamics ------------------------------------------------------------

    def _announce_or_queue(self, pid: int, round_index: int) -> None:
        """Announce ``pid`` to the tracker, or queue a retry mid-outage.

        Successful announces consume the tracker draw (plus the behavior
        filter batch when active) and connect symmetric edges; contacts
        that crashed since the tracker last heard from them are dropped
        (a dead peer does not answer a handshake).  During an outage
        nothing is drawn -- the announce retries with doubling backoff.
        """
        if not self.tracker_available:
            self._faults.queue_announce(pid, round_index)
            if self._resilience_active and self.resilience.pex:
                self._pex_bootstrap(pid)
            return
        contacts = self.tracker.announce(pid, self.source.stream(streams.TRACKER))
        if self._resilience_active:
            self._resilience.record_announce(pid, round_index)
        if self._behaviors_active:
            contacts = self._filter_contacts(
                pid, contacts, self.source.stream(streams.BEHAVIOR)
            )
        peer = self.peers[pid]
        for other in contacts:
            other = int(other)
            if other not in self.peers:
                continue  # stale tracker entry: a crashed peer
            peer.neighbors.add(other)
            self.peers[other].neighbors.add(pid)

    def _pex_bootstrap(self, pid: int) -> None:
        """Seed a blacked-out (re)joiner with cached peer contacts.

        An arrival that finds every replica down would otherwise sit alone
        in the retry queue; with PEX on it samples a bounded handful of
        longer-lived peers (ids strictly below its own: resume caches and
        local discovery only know peers that existed first -- and, less
        romantically, the only membership rule both engines can evaluate
        identically mid-arrival-wave).  One pex-gossip batch per queued
        announce.
        """
        candidates = sorted(p for p in self.peers if p < pid)
        sample = sample_pools(
            [candidates],
            self.resilience.pex_sample,
            self.source.stream(streams.PEX_GOSSIP),
        )[0]
        if not sample:
            return
        peer = self.peers[pid]
        for other in sample:
            peer.neighbors.add(other)
            self.peers[other].neighbors.add(pid)
        self._resilience.count_bootstrap()

    def _pex_round(self, transfers: Dict[Tuple[int, int], float]) -> None:
        """Gossip neighbor samples along this round's surviving transfers.

        Only runs while every replica is unreachable.  Each directed
        (sender, receiver) pair carries one bounded sample of the sender's
        live neighbors (receiver excluded); all samples of the round are
        drawn as one pinned pex-gossip batch over the sorted pairs
        *before* any edge is added, so the pools both engines sample from
        are identical by construction.
        """
        pairs = sorted(transfers)
        pools = [
            [p for p in sorted(self.peers[a].neighbors) if p != b]
            for a, b in pairs
        ]
        samples = sample_pools(
            pools, self.resilience.pex_sample, self.source.stream(streams.PEX_GOSSIP)
        )
        for (a, b), sample in zip(pairs, samples):
            receiver = self.peers[b]
            for pid in sample:
                if pid == b or pid in receiver.neighbors:
                    continue
                receiver.neighbors.add(pid)
                self.peers[pid].neighbors.add(b)
                self._resilience.count_introduction()

    def _process_rejoins(self, round_index: int) -> None:
        """Restore crashed peers whose rejoin falls due this round.

        The bitfield (and the download statistics) survived the crash;
        neighbors, partial piece credit and choker state did not, so the
        peer comes back like a fresh arrival that happens to hold pieces
        -- announcing to the tracker (or queueing the announce when the
        rejoin lands mid-outage).
        """
        due = self._faults.rejoins_due(round_index)
        if not due:
            return
        config = self.config
        for pid in due:
            peer = self._departed.pop(pid)
            peer.departed_round = None
            if self._resilience_active:
                self._resilience.cancel_eviction(pid)
            self.peers[pid] = peer
            self._chokers[pid] = TitForTatChoker(
                regular_slots=config.regular_slots,
                optimistic_slots=config.optimistic_slots,
                optimistic_period=config.optimistic_period,
            )
            self._announce_or_queue(pid, round_index)
        # Keep the peer dict in ascending-pid iteration order, matching
        # the fast engine's dense-index sweeps.
        self.peers = dict(sorted(self.peers.items()))

    def _process_crashes(self, round_index: int) -> None:
        """Fire the round's crash event, if the schedule has one."""
        candidates = [pid for pid, peer in self.peers.items() if not peer.is_seed]
        victims = self._faults.select_crash_victims(
            round_index, candidates, self.source.stream(streams.FAULT_CRASH)
        )
        for pid in victims:
            self._crash(pid, round_index)

    def _crash(self, pid: int, round_index: int) -> None:
        """Vanish a peer without telling the tracker.

        Unlike :meth:`_depart`, the tracker keeps handing out the crashed
        peer's id; neighbors, partial credit and last-round receipts are
        lost (a rejoin starts those from scratch), the bitfield is kept.
        """
        peer = self.peers.pop(pid)
        peer.departed_round = round_index
        if self._resilience_active:
            # The keepalive clock starts now; only a peer somebody was
            # connected to is detectable (captured before the scrub).
            self._resilience.note_crash(pid, round_index, bool(peer.neighbors))
        for other in peer.neighbors:
            if other in self.peers:
                self.peers[other].neighbors.discard(pid)
        peer.neighbors = set()
        peer.partial_kbit = {}
        peer.received_last_round = {}
        del self._chokers[pid]
        self._faults.clear_announce(pid)
        self._departed[pid] = peer

    def _process_pending_announces(self, round_index: int) -> None:
        """Retry queued announces whose backoff expires this round."""
        for pid in self._faults.announces_due(round_index):
            if pid not in self.peers:
                # Crashed (or departed) while waiting: the announce dies
                # with the peer.
                self._faults.clear_announce(pid)
                continue
            if not self.tracker_available:
                self._faults.reschedule_announce(pid, round_index)
                continue
            self._faults.clear_announce(pid)
            self._announce_or_queue(pid, round_index)

    def _arrive(
        self,
        upload_kbps: float,
        round_index: int,
        behavior: str = "standard",
        locality_group: int = -1,
    ) -> None:
        """Join one fresh leecher: bootstrap pieces, then a tracker announce."""
        config = self.config
        self._next_pid += 1
        pid = self._next_pid
        profile = profile_for(behavior)
        bitfield = Bitfield.empty(config.piece_count)
        start_pieces = bootstrap_piece_count(
            profile, self.scenario.arrival_pieces(config.piece_count), config.piece_count
        )
        if start_pieces:
            for piece in self.source.stream(streams.BOOTSTRAP).choice(
                config.piece_count, size=start_pieces, replace=False
            ):
                bitfield.add(int(piece))
        peer = SwarmPeer(
            peer_id=pid,
            upload_kbps=upload_kbps,
            is_seed=False,
            bitfield=bitfield,
            arrival_round=round_index,
            behavior=profile.name,
            locality_group=locality_group,
        )
        self.peers[pid] = peer
        self._profiles[pid] = profile
        self._chokers[pid] = TitForTatChoker(
            regular_slots=config.regular_slots,
            optimistic_slots=config.optimistic_slots,
            optimistic_period=config.optimistic_period,
        )
        self._announce_or_queue(pid, round_index)

    # -- simulation ---------------------------------------------------------------

    def run(self) -> SwarmResult:
        """Run the configured number of rounds and return the results."""
        if self._fast is not None:
            return self._fast.run()
        config = self.config
        scenario = self.scenario
        observer = self.observer
        if observer is not None:
            observer.begin_run(_ReferenceSwarmView(self))
        rng = self.source.stream(streams.ROUNDS)
        collaboration: Dict[Tuple[int, int], float] = {}
        tft_rounds: Dict[Tuple[int, int], float] = {}
        completed = sum(1 for p in self.peers.values() if not p.is_seed and p.bitfield.is_complete())

        rounds_run = config.rounds
        for round_index in range(1, config.rounds + 1):
            self._process_membership(round_index)
            transfers, regular_pairs = self._plan_round(rng)
            if self._faults_active:
                transfers = self._filter_faulty_transfers(transfers, round_index)
            self._record_reciprocal_tft(regular_pairs, tft_rounds, round_index)
            completed += self._apply_round(transfers, collaboration, rng, round_index)
            if (
                self._resilience_active
                and self.resilience.pex
                and not self.tracker_available
            ):
                self._pex_round(transfers)
            if observer is not None:
                observer.observe_round(round_index, regular_pairs)
            if (
                all(
                    p.bitfield.is_complete()
                    for p in self.peers.values()
                    if not p.is_seed and self._profiles[p.peer_id].downloads
                )
                and not scenario.more_arrivals_after(round_index, self._total_arrived)
                and not (
                    self._faults_active
                    and self._faults.blocks_early_exit(round_index)
                )
            ):
                rounds_run = round_index
                break
        all_peers = dict(self._departed)
        all_peers.update(self.peers)
        return SwarmResult(
            config=config,
            peers=dict(sorted(all_peers.items())),
            collaboration_volume=collaboration,
            tft_reciprocal_rounds=tft_rounds,
            completed=completed,
            rounds_run=rounds_run,
            arrivals=self._total_arrived,
            departures=len(self._departed),
            observed=observer.finish(rounds_run) if observer is not None else None,
            resilience=(
                self._resilience.stats() if self._resilience_active else None
            ),
        )

    def _plan_round(
        self, rng: np.random.Generator
    ) -> Tuple[Dict[Tuple[int, int], float], Set[Tuple[int, int]]]:
        """Decide unchokes and the kilobits each peer pushes to each partner.

        Returns the planned transfers and the set of directed (sender,
        target) pairs granted a *regular* Tit-for-Tat slot this round.
        """
        config = self.config
        transfers: Dict[Tuple[int, int], float] = {}
        regular_pairs: Set[Tuple[int, int]] = set()
        for peer in self.peers.values():
            profile = self._profiles[peer.peer_id]
            if not profile.unchokes:
                # BitThief never reciprocates: skipped before the choker,
                # so no stream draw is consumed (the fast engine skips the
                # same owners in the same ascending order).
                continue
            interested = [
                other
                for other in sorted(peer.neighbors)
                if not self.peers[other].is_seed
                and self._profiles[other].downloads
                and self.peers[other].bitfield.is_interested_in(peer.bitfield)
            ]
            if not interested:
                continue
            decision = self._chokers[peer.peer_id].select_unchoked(
                peer.peer_id, interested, peer.received_last_round, rng
            )
            unchoked = decision.all
            if not unchoked:
                continue
            for target in decision.regular:
                regular_pairs.add((peer.peer_id, target))
            budget_kbit = peer.upload_kbps * config.round_seconds
            if profile.upload_factor != 1.0:
                # The != 1.0 guard keeps the float sequence of standard
                # peers byte-identical to the behavior-free code path.
                budget_kbit *= profile.upload_factor
            share = budget_kbit / len(unchoked)
            for target in unchoked:
                transfers[(peer.peer_id, target)] = share
        return transfers, regular_pairs

    def _filter_faulty_transfers(
        self,
        transfers: Dict[Tuple[int, int], float],
        round_index: int,
    ) -> Dict[Tuple[int, int], float]:
        """Drop transfers lost to partitions and message loss this round.

        The unchoke decisions stand -- loss kills the payload, not the
        relationship -- so ``regular_pairs`` (and with it the reciprocal
        Tit-for-Tat statistic) is computed from the *planned* round.  The
        loss batch is drawn over the sorted pid pairs, the same
        canonical order the fast engine uses.
        """
        if not transfers:
            return transfers
        dropped = self._faults.dropped_pairs(
            round_index, sorted(transfers), self.source.stream(streams.FAULT_LOSS)
        )
        if not dropped:
            return transfers
        return {
            pair: share for pair, share in transfers.items() if pair not in dropped
        }

    def _record_reciprocal_tft(
        self,
        regular_pairs: Set[Tuple[int, int]],
        tft_rounds: Dict[Tuple[int, int], float],
        round_index: int,
    ) -> None:
        """Count pairs whose regular slots point at each other this round.

        The first ``warmup_rounds`` rounds are treated as warm-up (the
        discovery / flash-crowd phase) and not counted.
        """
        if round_index <= self.config.warmup_rounds:
            return
        for sender, target in regular_pairs:
            if sender < target and (target, sender) in regular_pairs:
                key = (sender, target)
                tft_rounds[key] = tft_rounds.get(key, 0.0) + 1.0

    def _apply_round(
        self,
        transfers: Dict[Tuple[int, int], float],
        collaboration: Dict[Tuple[int, int], float],
        rng: np.random.Generator,
        round_index: int,
    ) -> int:
        """Turn planned transfers into pieces; return newly completed peers."""
        availability = piece_availability(
            (peer.bitfield for peer in self.peers.values()), self.config.piece_count
        )
        received_now: Dict[int, Dict[int, float]] = {pid: {} for pid in self.peers}
        newly_completed = 0

        for (sender_id, receiver_id), volume_kbit in transfers.items():
            sender = self.peers[sender_id]
            receiver = self.peers[receiver_id]
            wanted = receiver.bitfield.interesting_pieces(sender.bitfield)
            if not wanted:
                continue
            sender.uploaded_kbit += volume_kbit
            receiver.downloaded_kbit += volume_kbit
            received_now[receiver_id][sender_id] = (
                received_now[receiver_id].get(sender_id, 0.0) + volume_kbit
            )
            key = (min(sender_id, receiver_id), max(sender_id, receiver_id))
            collaboration[key] = collaboration.get(key, 0.0) + volume_kbit

            # Convert the received volume into whole pieces, rarest first.
            # A super-seeding sender reveals at most reveal_limit pieces
            # per transfer; the unconverted credit carries over as usual.
            reveal_limit = self._profiles[sender_id].reveal_limit
            taken = 0
            credit = receiver.partial_kbit.get(sender_id, 0.0) + volume_kbit
            while credit >= self.config.piece_size_kbit:
                if reveal_limit is not None and taken >= reveal_limit:
                    break
                wanted = receiver.bitfield.interesting_pieces(sender.bitfield)
                if not wanted:
                    break
                piece = self.selector.select(wanted, availability, rng)
                if piece is None:
                    break
                receiver.bitfield.add(piece)
                availability[piece] += 1
                credit -= self.config.piece_size_kbit
                taken += 1
                if receiver.bitfield.is_complete() and receiver.completed_round is None:
                    receiver.completed_round = round_index
                    newly_completed += 1
                    if self._faults_active and not self.tracker_available:
                        self._faults.defer_completion(receiver_id)
                    else:
                        self.tracker.record_completion(receiver_id)
            receiver.partial_kbit[sender_id] = credit

        for pid, received in sorted(received_now.items()):
            self.peers[pid].received_last_round = received
        return newly_completed


def stratification_index(
    result: SwarmResult,
    *,
    use_tft_pairs: bool = True,
    behaviors: Optional[Sequence[str]] = None,
) -> float:
    """Correlation between a leecher's bandwidth rank and its partners' ranks.

    For every leecher we compute the weighted average bandwidth rank of the
    peers it collaborated with, then return the Pearson correlation between
    the leecher's own rank and that average.  Values close to 1 mean peers
    overwhelmingly exchanged with peers of similar bandwidth -- the
    stratification the paper predicts; values near 0 mean bandwidth played
    no role in partner selection.

    Parameters
    ----------
    use_tft_pairs:
        When true (default) only *reciprocated Tit-for-Tat* pairs are
        counted, weighted by the number of rounds the reciprocity lasted --
        the empirical counterpart of the matching model.  When false, every
        transferred kilobit counts, which also includes optimistic-unchoke
        altruism and therefore underestimates stratification.
    behaviors:
        When given, restrict the index to leechers whose
        :attr:`~SwarmPeer.behavior` is in this set -- e.g.
        ``behaviors=["standard"]`` asks whether the *obedient* peers still
        stratify among themselves despite the deviants around them.
    """
    leechers = result.leechers()
    if behaviors is not None:
        allowed = frozenset(behaviors)
        leechers = [peer for peer in leechers if peer.behavior in allowed]
    if len(leechers) < 3:
        raise ValueError("need at least three leechers to measure stratification")
    order = sorted(leechers, key=lambda peer: -peer.upload_kbps)
    rank = {peer.peer_id: index + 1 for index, peer in enumerate(order)}
    weights = (
        result.tft_reciprocal_rounds if use_tft_pairs else result.collaboration_volume
    )

    own_ranks: List[float] = []
    partner_ranks: List[float] = []
    for peer in leechers:
        total = 0.0
        weighted = 0.0
        for (a, b), weight in weights.items():
            if a == peer.peer_id and b in rank:
                weighted += weight * rank[b]
                total += weight
            elif b == peer.peer_id and a in rank:
                weighted += weight * rank[a]
                total += weight
        if total > 0:
            own_ranks.append(float(rank[peer.peer_id]))
            partner_ranks.append(weighted / total)
    if len(own_ranks) < 3:
        return 0.0
    matrix = np.corrcoef(np.asarray(own_ranks), np.asarray(partner_ranks))
    return float(matrix[0, 1])
