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

The round protocol is written once, in :class:`SwarmSimulator`: it draws
every named random stream and runs every membership, fault, resilience,
gossip and telemetry step.  The two engines differ only in how they store
the swarm and run the per-round hot path: ``engine="reference"``
(:class:`ReferenceSwarmSimulator`, dictionaries and sets, the correctness
oracle) or ``engine="fast"`` (the packed-bit array backend in
:mod:`repro.bittorrent.fast`).  They produce bit-identical
:class:`SwarmResult`\\ s for the same seed; the contract is enforced by
``tests/test_swarm_engine_equivalence.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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
    _SwarmView,
    resolve_observer,
)
from repro.bittorrent.tracker import Tracker
from repro.core.exceptions import ModelError, validate_engine
from repro.sim.random_source import RandomSource
from repro.sim import streams

if TYPE_CHECKING:
    from repro.bittorrent.fast.tracker import FastTracker

__all__ = [
    "SwarmConfig",
    "SwarmPeer",
    "SwarmResult",
    "SwarmSimulator",
    "ReferenceSwarmSimulator",
    "partner_ranks_by_peer",
    "stratification_index",
]


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
        if not (math.isfinite(self.round_seconds) and self.round_seconds > 0.0):
            raise ValueError("round_seconds must be finite and positive")
        if not (math.isfinite(self.piece_size_kbit) and self.piece_size_kbit > 0.0):
            raise ValueError("piece_size_kbit must be finite and positive")
        if not (math.isfinite(self.seed_upload_kbps) and self.seed_upload_kbps >= 0.0):
            raise ValueError("seed_upload_kbps must be finite and non-negative")
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


#: One planned transfer: ``(sender pid, receiver pid, kilobits)``.
Transfer = Tuple[int, int, float]


class SwarmSimulator:
    """Drives a round-based Tit-for-Tat swarm: the one round protocol.

    ``SwarmSimulator(config, engine=...)`` builds the backend the engine
    names -- :class:`ReferenceSwarmSimulator` (dictionaries and sets, the
    correctness oracle) or :class:`~repro.bittorrent.fast.swarm.
    FastSwarmSimulator` (packed-bit arrays).  This class is their common
    base and owns everything the engines share, once per run: the random
    source and every named stream drawn from it, the scenario and behavior
    gates, the fault and resilience runtimes, the tracker, the observer,
    the departure queue, the early-exit rule and the result.  Every pinned
    step of the round protocol runs here exactly once; a backend only
    stores peer state and runs the per-round hot path (the hooks under
    "backend interface" below).

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
        ``"reference"`` (default) or ``"fast"``; both are bit-identical
        for the same seed.
    scenario:
        Membership dynamics: a
        :class:`~repro.bittorrent.scenarios.ScenarioSchedule`, a preset
        name (``"static"``, ``"poisson"``, ``"flashcrowd"``,
        ``"seed-linger"``) or ``None`` for the fixed population the paper
        assumes.
    observer:
        A :class:`~repro.bittorrent.telemetry.SwarmObserver` (or an
        :class:`~repro.bittorrent.telemetry.ObserverConfig` to build one)
        that measures the run the way a real scrape-and-poll study would;
        its record lands in ``SwarmResult.observed``.  Observation never
        changes the simulation.
    """

    engine: ClassVar[str]
    #: The backend's tracker class; both draw announces identically.
    tracker_type: ClassVar[Callable[..., "Tracker | FastTracker"]]
    tracker: "Tracker | FastTracker"

    def __new__(
        cls, *args: Any, engine: Optional[str] = None, **kwargs: Any
    ) -> "SwarmSimulator":
        if cls is SwarmSimulator:
            if validate_engine("reference" if engine is None else engine) == "fast":
                from repro.bittorrent.fast.swarm import FastSwarmSimulator

                return super().__new__(FastSwarmSimulator)
            return super().__new__(ReferenceSwarmSimulator)
        if engine is not None and engine != cls.engine:
            raise ModelError(f"{cls.__name__} is the {cls.engine!r} engine, not {engine!r}")
        return super().__new__(cls)

    def __init__(
        self,
        config: SwarmConfig,
        *,
        bandwidths: Optional[Sequence[float]] = None,
        distribution: Optional[BandwidthDistribution] = None,
        seed: int = 0,
        engine: Optional[str] = None,
        scenario: "ScenarioSchedule | str | None" = None,
        observer: "SwarmObserver | ObserverConfig | None" = None,
    ) -> None:
        del engine  # __new__ already picked the backend class
        if not isinstance(config, SwarmConfig):
            raise TypeError("config must be a SwarmConfig")
        self.config = config
        self.scenario = resolve_scenario(scenario)
        self.observer = resolve_observer(observer)
        self.source = RandomSource(seed)
        self.torrent = Torrent(config.piece_count, config.piece_size_kbit)
        # The behavior layer: the swarm's mix, the (possibly overriding)
        # arrival mix, and two flags that gate every behavior branch.  A
        # trivial mix keeps this run draw-for-draw identical to a
        # behavior-free one.
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
        # The fault and resilience layers: one pid-level runtime each (the
        # resilience runtime also validates the schedule's replica targets
        # against the announce list).  A trivial schedule or policy takes
        # no branch and leaves its streams untouched, so such runs stay
        # draw-for-draw identical to runs without the layer.
        self.faults = resolve_faults(config.faults)
        self._faults = FaultRuntime(self.faults)
        self._faults_active = self._faults.active
        self.tracker_available = True
        self.resilience = resolve_resilience(config.resilience)
        self._resilience = ResilienceRuntime(self.resilience, self.faults)
        self._resilience_active = self._resilience.active
        self.tracker = self.tracker_type(announce_size=config.announce_size)
        # Per-peer facts the protocol draws itself, indexed by pid - 1.
        self._profiles: List[BehaviorProfile] = []
        self._groups: List[int] = []
        # Departed and crashed peers, frozen when they left; a crashed
        # peer's snapshot comes back on rejoin.
        self._departed: Dict[int, SwarmPeer] = {}
        # Departure is deterministic at completion time (round + 1 +
        # linger), so completions enqueue here and each round pops its
        # bucket instead of scanning every peer.
        self._depart_due: Dict[int, List[int]] = {}
        self._total_arrived = 0
        self._init_state()
        self._build_population(bandwidths, distribution)

    @property
    def peers(self) -> Dict[int, SwarmPeer]:
        """The peers present now, ascending by id.

        Departed and crashed peers are left out; ``SwarmResult.peers``
        carries them.  The reference engine returns its live peer objects,
        the fast engine a fresh snapshot of its arrays.
        """
        return {pid: self._snapshot(pid) for pid in self._live_ids()}

    # -- construction ------------------------------------------------------------

    def _build_population(
        self,
        bandwidths: Optional[Sequence[float]],
        distribution: Optional[BandwidthDistribution],
    ) -> None:
        config = self.config
        if bandwidths is not None:
            uploads = np.asarray(list(bandwidths), dtype=float)
            if uploads.shape[0] != config.leechers:
                raise ValueError("bandwidths must have one entry per leecher")
            if not (np.isfinite(uploads).all() and (uploads >= 0.0).all()):
                raise ValueError("bandwidths must be finite and non-negative")
        else:
            dist = distribution if distribution is not None else saroiu_like_distribution()
            uploads = dist.sample(config.leechers, self.source.stream(streams.BANDWIDTH))
        # Pinned behavior draws: one assignment batch for the leechers,
        # then (only when some behavior is locality-biased) one group
        # batch for the whole initial population, seeds included.
        mix = self.behaviors
        behavior_rng = self.source.stream(streams.BEHAVIOR)
        n_initial = config.leechers + config.seeds
        behaviors = mix.assign(config.leechers, behavior_rng)
        groups = (
            mix.assign_groups(n_initial, behavior_rng)
            if self._locality_on
            else [-1] * n_initial
        )
        self._join(
            [float(upload) for upload in uploads]
            + [float(config.seed_upload_kbps)] * config.seeds,
            behaviors + [mix.seed_behavior] * config.seeds,
            groups,
            # Clamped like arrivals and behavior holds: never born complete.
            min(int(round(config.start_completion * config.piece_count)), config.piece_count - 1),
            arrival_round=0,
            seeds=config.seeds,
        )
        self._announce_population(n_initial, self.source.stream(streams.TRACKER))
        if self._resilience_active:
            # Construction happens before round 1, outside every outage
            # window: each announce lands on its preferred replica.
            for pid in range(1, n_initial + 1):
                self._resilience.record_announce(pid, 0)
        # Peers that join already holding the full content announce as
        # seeders: scrape counts them, the snatch counter does not.
        for pid in range(1, n_initial + 1):
            if self._pieces_held(pid) == config.piece_count:
                self.tracker.register_complete(pid)

    def _join(
        self,
        uploads: List[float],
        behaviors: List[str],
        groups: List[int],
        start_pieces: int,
        arrival_round: int,
        seeds: int = 0,
    ) -> int:
        """Add one join wave, the last ``seeds`` of it seeds; returns its first pid.

        Draws the wave's tracker-select batch (the pids are allocated in
        order, so they are known up front), then each leecher's bootstrap
        pieces in id order.  The announces are the caller's.
        """
        config = self.config
        first = len(self._profiles) + 1
        if self._resilience_active:
            self._resilience.assign_preferences(
                list(range(first, first + len(uploads))),
                self.source.stream(streams.TRACKER_SELECT),
            )
        profiles = [profile_for(name) for name in behaviors]
        bootstrap_rng = self.source.stream(streams.BOOTSTRAP)
        pieces: List[Optional[np.ndarray]] = []
        for profile in profiles[: len(profiles) - seeds]:
            count = bootstrap_piece_count(profile, start_pieces, config.piece_count)
            pieces.append(
                bootstrap_rng.choice(config.piece_count, size=count, replace=False)
                if count
                else np.empty(0, dtype=np.int64)
            )
        pieces.extend([None] * seeds)
        self._profiles.extend(profiles)
        self._groups.extend(groups)
        self._add_peers(uploads, pieces, arrival_round)
        return first

    def _filter_contacts(self, pid: int, contacts: Iterable[int]) -> List[int]:
        """Apply ``pid``'s locality / NAT edge behaviors to its contacts.

        A crashed peer keeps its profile and group, so its stale tracker
        entry is judged like a live contact.
        """
        contact_list = [int(contact) for contact in contacts]
        profiles, groups = self._profiles, self._groups
        return filter_contacts(
            profiles[pid - 1],
            groups[pid - 1],
            contact_list,
            [groups[contact - 1] for contact in contact_list],
            [profiles[contact - 1].nat_limited for contact in contact_list],
            self.source.stream(streams.BEHAVIOR),
        )

    def _announce(self, pid: int, rng: np.random.Generator) -> List[int]:
        """One tracker announce: its contacts in draw order, behavior-filtered."""
        contacts = self.tracker.announce(pid, rng)
        if self._behaviors_active:
            return self._filter_contacts(pid, contacts)
        return [int(contact) for contact in contacts]

    # -- membership dynamics -------------------------------------------------------

    def _process_membership(self, round_index: int) -> None:
        """Apply the round's membership steps in their pinned order.

        Departures, then one arrival-count draw, one capacity batch and
        per-arrival bootstrap + announce (:mod:`repro.bittorrent.scenarios`).
        An active fault schedule adds pinned steps (``docs/faults.md``):
        recovery flush and crash rejoins before everything else, crash
        events and announce retries after the departures, and partition
        sides at the very end.  Dead-neighbor eviction runs right after
        the rejoins (``docs/resilience.md``).
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
            # Fire the keepalive timeouts, then deliver pending purges of
            # stale registrations if a replica is reachable.  After the
            # rejoins, so a peer back this round keeps its registration.
            self._resilience.begin_round(round_index)
            if self.tracker_available:
                for pid in self._resilience.drain_purges():
                    if pid in self._departed and self.tracker.is_registered(pid):
                        self.tracker.depart(pid)
                        self._resilience.count_purge()
        # A stale entry (the peer crashed meanwhile) must not fire while
        # the peer is gone, and a rejoiner's rescheduled entry can sit
        # beside its original one.
        due = self._depart_due.pop(round_index, [])
        for pid in sorted({pid for pid in due if pid not in self._departed}):
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
            behaviors = arrival_mix.assign(count, behavior_rng)
            groups = (
                arrival_mix.assign_groups(count, behavior_rng)
                if self._locality_on
                else [-1] * count
            )
            first = self._join(
                [float(capacity) for capacity in capacities],
                behaviors,
                groups,
                scenario.arrival_pieces(self.config.piece_count),
                arrival_round=round_index,
            )
            for pid in range(first, first + count):
                self._announce_or_queue(pid, round_index)
            self._total_arrived += count
        if self._faults_active and self._faults.partition_active(round_index):
            self._faults.assign_missing_groups(
                round_index, self._live_ids(), self.source.stream(streams.FAULT_PARTITION)
            )

    def _schedule_departure(self, pid: int, due_round: int) -> None:
        if self.scenario.departure != "stay":
            self._depart_due.setdefault(due_round, []).append(pid)

    def _depart(self, pid: int, round_index: int) -> None:
        """Remove a completed leecher; freeze its statistics in the result."""
        snapshot = self._depart_peer(pid)
        snapshot.departed_round = round_index
        self._departed[pid] = snapshot
        if self._faults_active and not self.tracker_available:
            # The stopped event cannot reach the tracker mid-outage; it
            # is delivered on recovery.
            self._faults.defer_depart(pid)
        else:
            self.tracker.depart(pid)

    # -- fault dynamics ------------------------------------------------------------

    def _announce_or_queue(self, pid: int, round_index: int) -> None:
        """Announce ``pid`` to the tracker, or queue a retry mid-outage.

        A successful announce draws the tracker batch (plus the behavior
        filter batch when active) and connects symmetric edges; contacts
        that crashed since the tracker last heard from them are dropped (a
        dead peer does not answer a handshake).  During an outage nothing
        is drawn -- the announce retries with doubling backoff.
        """
        if not self.tracker_available:
            self._faults.queue_announce(pid, round_index)
            if self._resilience_active and self.resilience.pex:
                self._pex_bootstrap(pid)
            return
        contacts = self._announce(pid, self.source.stream(streams.TRACKER))
        if self._resilience_active:
            self._resilience.record_announce(pid, round_index)
        self._connect(pid, contacts)

    def _pex_bootstrap(self, pid: int) -> None:
        """Seed a blacked-out (re)joiner with cached peer contacts.

        An arrival that finds every replica down would otherwise sit alone
        in the retry queue; with PEX on it samples a bounded handful of
        longer-lived peers (ids strictly below its own: resume caches and
        local discovery only know peers that existed first).  One
        pex-gossip batch per queued announce.
        """
        candidates = [other for other in self._live_ids() if other < pid]
        sample = sample_pools(
            [candidates],
            self.resilience.pex_sample,
            self.source.stream(streams.PEX_GOSSIP),
        )[0]
        if sample:
            self._connect(pid, sample)
            self._resilience.count_bootstrap()

    def _pex_round(self, transfers: List[Transfer]) -> None:
        """Gossip neighbor samples along this round's surviving transfers.

        Only runs while every replica is unreachable.  Each directed
        (sender, receiver) pair carries one bounded sample of the sender's
        live neighbors (receiver excluded); all samples of the round are
        drawn as one pinned pex-gossip batch over the sorted pairs
        *before* any edge is added.
        """
        pairs = sorted((sender, receiver) for sender, receiver, _ in transfers)
        pools = [
            [other for other in self._sorted_neighbors(sender) if other != receiver]
            for sender, receiver in pairs
        ]
        samples = sample_pools(
            pools, self.resilience.pex_sample, self.source.stream(streams.PEX_GOSSIP)
        )
        for (_, receiver), sample in zip(pairs, samples):
            self._resilience.count_introduction(self._connect(receiver, sample))

    def _process_rejoins(self, round_index: int) -> None:
        """Restore crashed peers whose rejoin falls due this round.

        The bitfield (and the download statistics) survived the crash;
        neighbors, partial piece credit and choker state did not, so the
        peer comes back like a fresh arrival that happens to hold pieces
        -- announcing to the tracker (or queueing the announce when the
        rejoin lands mid-outage).  An already-complete rejoiner re-enters
        the departure queue.
        """
        for pid in self._faults.rejoins_due(round_index):
            snapshot = self._departed.pop(pid)
            if self._resilience_active:
                self._resilience.cancel_eviction(pid)
            self._rejoin_peer(snapshot)
            if snapshot.completed_round is not None:
                self._schedule_departure(
                    pid,
                    max(
                        round_index,
                        snapshot.completed_round + 1 + self.scenario.effective_linger,
                    ),
                )
            self._announce_or_queue(pid, round_index)

    def _process_crashes(self, round_index: int) -> None:
        """Fire the round's crash event, if the schedule has one."""
        seeds = range(self.config.leechers + 1, self.config.leechers + self.config.seeds + 1)
        candidates = [pid for pid in self._live_ids() if pid not in seeds]
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
        if self._resilience_active:
            # The keepalive clock starts now; only a peer somebody was
            # connected to is detectable (captured before the scrub).
            self._resilience.note_crash(
                pid, round_index, bool(self._sorted_neighbors(pid))
            )
        snapshot = self._crash_peer(pid)
        snapshot.departed_round = round_index
        self._departed[pid] = snapshot
        self._faults.clear_announce(pid)

    def _process_pending_announces(self, round_index: int) -> None:
        """Retry queued announces whose backoff expires this round."""
        for pid in self._faults.announces_due(round_index):
            if pid in self._departed:
                # Crashed (or departed) while waiting: the announce dies
                # with the peer.
                self._faults.clear_announce(pid)
                continue
            if not self.tracker_available:
                self._faults.reschedule_announce(pid, round_index)
                continue
            self._faults.clear_announce(pid)
            self._announce_or_queue(pid, round_index)

    def _filter_faulty_transfers(
        self, transfers: List[Transfer], round_index: int
    ) -> List[Transfer]:
        """Drop transfers lost to partitions and message loss this round.

        The unchoke decisions stand -- loss kills the payload, not the
        relationship -- so ``regular_pairs`` (and with it the reciprocal
        Tit-for-Tat statistic) comes from the *planned* round.  The loss
        batch is drawn over the sorted pid pairs.
        """
        if not transfers:
            return transfers
        dropped = self._faults.dropped_pairs(
            round_index,
            sorted((sender, receiver) for sender, receiver, _ in transfers),
            self.source.stream(streams.FAULT_LOSS),
        )
        if not dropped:
            return transfers
        return [t for t in transfers if (t[0], t[1]) not in dropped]

    # -- simulation ---------------------------------------------------------------

    def run(self) -> SwarmResult:
        """Run the configured number of rounds and return the results."""
        config = self.config
        scenario = self.scenario
        observer = self.observer
        if observer is not None:
            observer.begin_run(_SwarmView(self))
        rng = self.source.stream(streams.ROUNDS)
        collaboration: Dict[Tuple[int, int], float] = {}
        tft_rounds: Dict[Tuple[int, int], float] = {}
        completed = sum(
            1
            for pid in range(1, config.leechers + 1)
            if self._pieces_held(pid) == config.piece_count
        )

        rounds_run = config.rounds
        for round_index in range(1, config.rounds + 1):
            self._process_membership(round_index)
            transfers, regular_pairs = self._plan_round(rng)
            if self._faults_active:
                transfers = self._filter_faulty_transfers(transfers, round_index)
            self._record_reciprocal_tft(regular_pairs, tft_rounds, round_index)
            for pid in self._apply_round(transfers, collaboration, rng, round_index):
                completed += 1
                if self._faults_active and not self.tracker_available:
                    self._faults.defer_completion(pid)
                else:
                    self.tracker.record_completion(pid)
                self._schedule_departure(pid, round_index + 1 + scenario.effective_linger)
            if (
                self._resilience_active
                and self.resilience.pex
                and not self.tracker_available
            ):
                self._pex_round(transfers)
            if observer is not None:
                observer.observe_round(round_index, regular_pairs)
            # Downloading leechers only: partial seeds never complete.
            if (
                self._incomplete_count() == 0
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

    # -- backend interface --------------------------------------------------------
    #
    # Peer ids are allocated 1, 2, ... in join order and never reused.  A
    # backend sees every mutation through these hooks, in the protocol's
    # order, and never draws from the random source itself: the protocol
    # passes in the generators it needs.

    def _init_state(self) -> None:
        """Create the empty peer state (called once, before the first join)."""
        raise NotImplementedError

    def _add_peers(
        self, uploads: List[float], pieces: List[Optional[np.ndarray]], arrival_round: int
    ) -> None:
        """Add the next ``len(uploads)`` peers, their profiles and groups already known.

        ``pieces`` holds each peer's bootstrap piece indices, ``None`` for
        a seed (which holds every piece).
        """
        raise NotImplementedError

    def _announce_population(self, count: int, rng: np.random.Generator) -> None:
        """Announce the initial peers ``1..count`` in id order and connect them."""
        for pid in range(1, count + 1):
            self._connect(pid, self._announce(pid, rng))

    def _connect(self, pid: int, contacts: Iterable[int]) -> int:
        """Add symmetric edges to the present contacts; returns how many were new."""
        raise NotImplementedError

    def _depart_peer(self, pid: int) -> SwarmPeer:
        """Unlink a departing peer; its snapshot keeps neighbors and credit."""
        raise NotImplementedError

    def _crash_peer(self, pid: int) -> SwarmPeer:
        """Unlink a crashed peer; its snapshot keeps only bitfield and statistics."""
        raise NotImplementedError

    def _rejoin_peer(self, snapshot: SwarmPeer) -> None:
        """Bring a crashed peer back, unconnected, with a fresh choker."""
        raise NotImplementedError

    def _live_ids(self) -> List[int]:
        """Present peer ids, ascending."""
        raise NotImplementedError

    def _sorted_neighbors(self, pid: int) -> List[int]:
        """A present peer's neighbor ids, ascending."""
        raise NotImplementedError

    def _pieces_held(self, pid: int) -> Optional[int]:
        """How many pieces ``pid`` holds, ``None`` when it is not present."""
        raise NotImplementedError

    def _incomplete_count(self) -> int:
        """Present downloading leechers that still miss pieces."""
        raise NotImplementedError

    def _plan_round(
        self, rng: np.random.Generator
    ) -> Tuple[List[Transfer], Set[Tuple[int, int]]]:
        """Decide unchokes and the kilobits each peer pushes to each partner.

        Returns the planned transfers, owners in ascending id order, and
        the directed (sender, target) pairs granted a *regular*
        Tit-for-Tat slot this round.
        """
        raise NotImplementedError

    def _apply_round(
        self,
        transfers: List[Transfer],
        collaboration: Dict[Tuple[int, int], float],
        rng: np.random.Generator,
        round_index: int,
    ) -> List[int]:
        """Turn transfers into pieces; returns the newly completed peer ids."""
        raise NotImplementedError

    def _snapshot(self, pid: int) -> SwarmPeer:
        """A present peer as a :class:`SwarmPeer`."""
        raise NotImplementedError


class ReferenceSwarmSimulator(SwarmSimulator):
    """The reference backend: one :class:`SwarmPeer` per present peer.

    Dictionaries and sets, one choker object per peer and a piece
    selector -- the direct transcription of the model, and the
    correctness oracle of the fast engine.  ``_peers`` stays in ascending
    id order, so every sweep visits peers (and consumes the rounds
    stream) in the order of the fast engine's dense rows.
    """

    engine = "reference"
    tracker_type = Tracker

    def _init_state(self) -> None:
        self.selector: PieceSelector = make_selector(self.config.piece_selection)
        self._peers: Dict[int, SwarmPeer] = {}
        self._chokers: Dict[int, TitForTatChoker | SeedChoker] = {}

    def _leecher_choker(self) -> TitForTatChoker:
        config = self.config
        return TitForTatChoker(
            regular_slots=config.regular_slots,
            optimistic_slots=config.optimistic_slots,
            optimistic_period=config.optimistic_period,
        )

    def _add_peers(
        self, uploads: List[float], pieces: List[Optional[np.ndarray]], arrival_round: int
    ) -> None:
        piece_count = self.config.piece_count
        first = len(self._profiles) - len(uploads) + 1
        for pid, (upload, held) in enumerate(zip(uploads, pieces), start=first):
            self._peers[pid] = SwarmPeer(
                peer_id=pid,
                upload_kbps=upload,
                is_seed=held is None,
                bitfield=(
                    Bitfield.complete(piece_count)
                    if held is None
                    else Bitfield.from_indices(piece_count, held.tolist())
                ),
                arrival_round=arrival_round,
                behavior=self._profiles[pid - 1].name,
                locality_group=self._groups[pid - 1],
            )
            self._chokers[pid] = (
                SeedChoker(slots=self.config.seed_slots)
                if held is None
                else self._leecher_choker()
            )

    def _connect(self, pid: int, contacts: Iterable[int]) -> int:
        peer = self._peers[pid]
        added = 0
        for other in contacts:
            partner = self._peers.get(other)
            if partner is None or other == pid or other in peer.neighbors:
                continue  # a crashed peer's stale tracker entry, or no news
            peer.neighbors.add(other)
            partner.neighbors.add(pid)
            added += 1
        return added

    def _depart_peer(self, pid: int) -> SwarmPeer:
        peer = self._peers.pop(pid)
        for other in peer.neighbors:
            self._peers[other].neighbors.discard(pid)
        del self._chokers[pid]
        return peer

    def _crash_peer(self, pid: int) -> SwarmPeer:
        peer = self._depart_peer(pid)
        peer.neighbors = set()
        peer.partial_kbit = {}
        peer.received_last_round = {}
        return peer

    def _rejoin_peer(self, snapshot: SwarmPeer) -> None:
        snapshot.departed_round = None
        self._peers[snapshot.peer_id] = snapshot
        self._peers = dict(sorted(self._peers.items()))
        self._chokers[snapshot.peer_id] = self._leecher_choker()

    def _live_ids(self) -> List[int]:
        return list(self._peers)

    def _sorted_neighbors(self, pid: int) -> List[int]:
        return sorted(self._peers[pid].neighbors)

    def _pieces_held(self, pid: int) -> Optional[int]:
        peer = self._peers.get(pid)
        return None if peer is None else peer.bitfield.count()

    def _incomplete_count(self) -> int:
        return sum(
            1
            for pid, peer in self._peers.items()
            if not peer.is_seed
            and self._profiles[pid - 1].downloads
            and not peer.bitfield.is_complete()
        )

    def _snapshot(self, pid: int) -> SwarmPeer:
        return self._peers[pid]

    def _plan_round(
        self, rng: np.random.Generator
    ) -> Tuple[List[Transfer], Set[Tuple[int, int]]]:
        config = self.config
        transfers: List[Transfer] = []
        regular_pairs: Set[Tuple[int, int]] = set()
        for peer in self._peers.values():
            profile = self._profiles[peer.peer_id - 1]
            if not profile.unchokes:
                # BitThief never reciprocates: skipped before the choker,
                # so no stream draw is consumed.
                continue
            interested = [
                other
                for other in sorted(peer.neighbors)
                if not self._peers[other].is_seed
                and self._profiles[other - 1].downloads
                and self._peers[other].bitfield.is_interested_in(peer.bitfield)
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
                transfers.append((peer.peer_id, target, share))
        return transfers, regular_pairs

    def _apply_round(
        self,
        transfers: List[Transfer],
        collaboration: Dict[Tuple[int, int], float],
        rng: np.random.Generator,
        round_index: int,
    ) -> List[int]:
        piece_size = self.config.piece_size_kbit
        availability = piece_availability(
            (peer.bitfield for peer in self._peers.values()), self.config.piece_count
        )
        received_now: Dict[int, Dict[int, float]] = {pid: {} for pid in self._peers}
        newly_completed: List[int] = []

        for sender_id, receiver_id, volume_kbit in transfers:
            sender = self._peers[sender_id]
            receiver = self._peers[receiver_id]
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
            reveal_limit = self._profiles[sender_id - 1].reveal_limit
            taken = 0
            credit = receiver.partial_kbit.get(sender_id, 0.0) + volume_kbit
            while credit >= piece_size:
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
                credit -= piece_size
                taken += 1
                if receiver.bitfield.is_complete() and receiver.completed_round is None:
                    receiver.completed_round = round_index
                    newly_completed.append(receiver_id)
            receiver.partial_kbit[sender_id] = credit

        for pid, received in sorted(received_now.items()):
            self._peers[pid].received_last_round = received
        return newly_completed


def partner_ranks_by_peer(
    peers: Sequence[int],
    rank: Mapping[int, int],
    weights: Mapping[Tuple[int, int], float],
) -> Tuple[List[float], List[float]]:
    """Each ranked peer's own rank beside its weight-averaged partner rank.

    ``peers`` (all of them ranked) fixes the output order.  A pair counts
    only when both its peers are ranked, and a peer without weight is left
    out.  One pass over ``weights`` in dict order adds each pair to both
    endpoints, so every peer's sums take the same float additions in the
    same order as a scan of all pairs per peer, in O(pairs) instead of
    O(peers x pairs).
    """
    weighted: Dict[int, float] = {}
    total: Dict[int, float] = {}
    for (a, b), weight in weights.items():
        if a not in rank or b not in rank:
            continue
        weighted[a] = weighted.get(a, 0.0) + weight * rank[b]
        total[a] = total.get(a, 0.0) + weight
        if b != a:
            weighted[b] = weighted.get(b, 0.0) + weight * rank[a]
            total[b] = total.get(b, 0.0) + weight
    own_ranks: List[float] = []
    partner_ranks: List[float] = []
    for peer in peers:
        if total.get(peer, 0.0) > 0:
            own_ranks.append(float(rank[peer]))
            partner_ranks.append(weighted[peer] / total[peer])
    return own_ranks, partner_ranks


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
    own_ranks, partner_ranks = partner_ranks_by_peer(
        [peer.peer_id for peer in leechers], rank, weights
    )
    if len(own_ranks) < 3:
        return 0.0
    matrix = np.corrcoef(np.asarray(own_ranks), np.asarray(partner_ranks))
    return float(matrix[0, 1])
