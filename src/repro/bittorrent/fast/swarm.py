"""The vectorized swarm engine (``engine="fast"``).

:class:`FastSwarmSimulator` replays :class:`repro.bittorrent.swarm.
SwarmSimulator` round for round on flat arrays:

* every bitfield lives in one packed-bit ``uint8`` matrix
  (:class:`~repro.bittorrent.fast.bitfields.BitfieldMatrix`), so interest
  tests are byte-wise ``AND``/``NOT`` over tracker edges instead of Python
  set differences;
* piece availability is one integer vector maintained incrementally, and
  rarest-first selection is an ``argmin``-style mask over the wanted
  indices;
* the Tit-for-Tat slots of all peers are ranked in a single
  :func:`numpy.lexsort` over the received-volume edge array
  (:func:`~repro.bittorrent.fast.choking.batched_regular_slots`);
* tracker announces are array-backed
  (:class:`~repro.bittorrent.fast.tracker.FastTracker`).

Dynamic scenarios (:mod:`repro.bittorrent.scenarios`) break the fixed-width
assumption the arrays were born with, so membership is two-tier: the
*live adjacency* is a list of Python neighbor sets mutated as peers join
and leave, and the *CSR edge arrays* the vectorized passes run over are a
frozen snapshot of it, re-frozen (``_rebuild_csr``) only on rounds whose
membership actually changed.  Peer rows grow geometrically
(:meth:`BitfieldMatrix.add_peers`) and are tombstoned via an ``alive``
mask on departure -- ids are never reused, so departed peers keep their
row and their frozen statistics for the final result.

The engine is *bit-identical* to the reference simulator: it consumes the
shared :class:`~repro.sim.random_source.RandomSource` streams draw for
draw (same shuffles, same ``choice`` calls, same scenario arrival draws,
in the same order), and the float accounting applies the same IEEE
operations in the same sequence.  ``tests/test_swarm_engine_equivalence.py``
enforces the contract -- under churn too; the speedup (>= 5x at 5k
leechers, gated by ``benchmarks/bench_swarm_speedup.py``) comes purely
from replacing per-piece Python set algebra with vectorized passes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

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
from repro.bittorrent.fast.bitfields import BitfieldMatrix
from repro.bittorrent.faults import FaultRuntime, resolve_faults
from repro.bittorrent.fast.choking import FastChokerState, batched_regular_slots
from repro.bittorrent.fast.tracker import (
    FastTracker,
    build_neighbor_csr,
    neighbor_sets_to_csr,
)
from repro.bittorrent.piece_selection import make_selector
from repro.bittorrent.resilience import (
    ResilienceRuntime,
    resolve_resilience,
    sample_pools,
)
from repro.bittorrent.scenarios import ScenarioSchedule, resolve_scenario
from repro.bittorrent.telemetry import (
    ObserverConfig,
    SwarmObserver,
    _FastSwarmView,
    resolve_observer,
)
from repro.sim.random_source import RandomSource
from repro.sim import streams

if TYPE_CHECKING:  # runtime imports stay local to avoid an import cycle
    from repro.bittorrent.swarm import SwarmConfig, SwarmResult

__all__ = ["FastSwarmSimulator"]


class FastSwarmSimulator:
    """Array-backed round simulator; see the module docstring.

    Constructed with the same signature as the reference simulator (minus
    ``engine``); normally reached through
    ``SwarmSimulator(config, engine="fast")``.
    """

    def __init__(
        self,
        config: "SwarmConfig",
        *,
        bandwidths: Optional[Sequence[float]] = None,
        distribution: Optional[BandwidthDistribution] = None,
        seed: int = 0,
        scenario: "ScenarioSchedule | str | None" = None,
        observer: "SwarmObserver | ObserverConfig | None" = None,
    ) -> None:
        # Imported here to avoid a circular import with repro.bittorrent.swarm.
        from repro.bittorrent.swarm import SwarmConfig

        if not isinstance(config, SwarmConfig):
            raise TypeError("config must be a SwarmConfig")
        make_selector(config.piece_selection)  # validate the policy name
        self.config = config
        self.scenario = resolve_scenario(scenario)
        self.observer = resolve_observer(observer)
        self.source = RandomSource(seed)
        # The behavior gates, derived exactly like the reference engine's
        # (pure functions of config + scenario), so both engines branch
        # identically and consume the "behavior" stream draw for draw.
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
        # The fault layer mirrors the reference engine's: one pid-level
        # runtime, gates derived from the config alone, no draws and no
        # branches for a trivial schedule.
        self.faults = resolve_faults(config.faults)
        self._faults = FaultRuntime(self.faults)
        self._faults_active = self._faults.active
        self.tracker_available: bool = True
        # The resilience layer mirrors the reference engine's: one shared
        # pid-level runtime, trivial by default (no draws, no branches).
        # PEX introductions mutate the live adjacency between membership
        # rounds, so the CSR re-freeze is driven by a dirty flag too.
        self.resilience = resolve_resilience(config.resilience)
        self._resilience = ResilienceRuntime(self.resilience, self.faults)
        self._resilience_active = self._resilience.active
        self._adjacency_dirty = False
        self.n_total = config.leechers + config.seeds
        self._build_population(bandwidths, distribution)

    # -- construction ------------------------------------------------------------

    def _build_population(
        self,
        bandwidths: Optional[Sequence[float]],
        distribution: Optional[BandwidthDistribution],
    ) -> None:
        config = self.config
        n = self.n_total
        rng = self.source.stream(streams.BANDWIDTH)
        if bandwidths is not None:
            sampled = np.asarray(list(bandwidths), dtype=float)
            if sampled.shape[0] != config.leechers:
                raise ValueError("bandwidths must have one entry per leecher")
        else:
            dist = distribution if distribution is not None else saroiu_like_distribution()
            sampled = dist.sample(config.leechers, rng)
        self.uploads: List[float] = [float(x) for x in sampled] + [
            float(config.seed_upload_kbps)
        ] * config.seeds
        self.is_seed = np.zeros(n, dtype=bool)
        self.is_seed[config.leechers:] = True
        self.alive = np.ones(n, dtype=bool)

        # Behavior assignment replays the reference order: one leecher
        # assignment batch, then (iff some behavior is locality-biased)
        # one group batch for the whole population -- both before any
        # bootstrap draw.
        mix = self.behaviors
        behavior_rng = self.source.stream(streams.BEHAVIOR)
        leecher_behaviors = mix.assign(config.leechers, behavior_rng)
        groups = (
            mix.assign_groups(n, behavior_rng)
            if self._locality_on
            else [-1] * n
        )
        self.behavior_names: List[str] = (
            leecher_behaviors + [mix.seed_behavior] * config.seeds
        )
        self.locality_groups: List[int] = groups
        self.profiles: List[BehaviorProfile] = [
            profile_for(name) for name in self.behavior_names
        ]
        self.upload_factor: List[float] = [p.upload_factor for p in self.profiles]
        self.reveal_limit: List[Optional[int]] = [p.reveal_limit for p in self.profiles]
        self.can_download = np.fromiter(
            (p.downloads for p in self.profiles), dtype=bool, count=n
        )

        # Replica preferences: the same pinned tracker-select batch the
        # reference engine draws for the whole initial population.
        if self._resilience_active:
            self._resilience.assign_preferences(
                list(range(1, n + 1)),
                self.source.stream(streams.TRACKER_SELECT),
            )

        self.bitfields = BitfieldMatrix(n, config.piece_count)
        bootstrap_rng = self.source.stream(streams.BOOTSTRAP)
        start_default = int(round(config.start_completion * config.piece_count))
        for i in range(config.leechers):
            start_pieces = bootstrap_piece_count(
                self.profiles[i], start_default, config.piece_count
            )
            if start_pieces:
                self.bitfields.fill(
                    i,
                    bootstrap_rng.choice(
                        config.piece_count, size=start_pieces, replace=False
                    ),
                )
        for i in range(config.leechers, n):
            self.bitfields.set_complete(i)

        announce_rng = self.source.stream(streams.TRACKER)
        self.tracker = FastTracker(announce_size=config.announce_size)
        # The neighbor sets are the *live* adjacency (mutated under churn);
        # the CSR arrays are its frozen snapshot for the vectorized passes.
        self.indptr, self.adj, self.neighbor_sets = build_neighbor_csr(
            n,
            self.tracker,
            announce_rng,
            contact_filter=self._contact_filter if self._behaviors_active else None,
        )
        self._freeze_edges()
        if self._resilience_active:
            # Same per-announce accounting as the reference construction
            # loop (round 0 is outside every outage window, so each
            # announce lands on its preferred replica); record_announce
            # draws nothing, so running it after the CSR build is free.
            for pid in range(1, n + 1):
                self._resilience.record_announce(pid, 0)
        # Initially-complete peers announce as seeders (scrape counts them,
        # the snatch counter does not) -- mirrors the reference tracker.
        for i in range(n):
            if self.bitfields.have_count[i] == config.piece_count:
                self.tracker.register_complete(i + 1)

        self.counts = self.bitfields.availability()
        self.chokers = FastChokerState(
            regular_slots=config.regular_slots,
            optimistic_slots=config.optimistic_slots,
            optimistic_period=config.optimistic_period,
            seed_slots=config.seed_slots,
        )
        self.downloaded: List[float] = [0.0] * n
        self.uploaded: List[float] = [0.0] * n
        self.completed_round: List[Optional[int]] = [None] * n
        self.arrival_round: List[int] = [0] * n
        # partial[receiver][sender] = kilobits short of the next whole piece
        # (dense indices) -- the array mirror of SwarmPeer.partial_kbit.
        self.partial: Dict[int, Dict[int, float]] = {}
        self._last_received: Dict[int, Dict[int, float]] = {}
        self._departed: Dict[int, "SwarmPeer"] = {}
        # Departure is deterministic at completion time (round + 1 + linger),
        # so completions enqueue here and _process_membership pops one round's
        # bucket instead of scanning every row ever allocated.
        self._depart_due: Dict[int, List[int]] = {}
        self._total_arrived = 0

    def _contact_filter(self, peer_id: int, contacts: np.ndarray) -> List[int]:
        """The behavior layer's locality / NAT edge rules for one announce.

        Mirrors ``SwarmSimulator._filter_contacts`` via the shared
        :func:`~repro.bittorrent.behaviors.filter_contacts`, consuming the
        same ``"behavior"`` stream draws (one uniform batch per biased
        announcer) in the same order.
        """
        i = peer_id - 1
        contact_list = [int(contact) for contact in contacts]
        return filter_contacts(
            self.profiles[i],
            self.locality_groups[i],
            contact_list,
            [self.locality_groups[contact - 1] for contact in contact_list],
            [self.profiles[contact - 1].nat_limited for contact in contact_list],
            self.source.stream(streams.BEHAVIOR),
        )

    def _freeze_edges(self) -> None:
        """Derive the per-edge arrays from the current (indptr, adj) CSR."""
        n = self.n_total
        self.edge_peer = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.indptr)
        )
        self.adj_pid = self.adj + 1
        # Globally sorted (owner, partner) key: CSR segments are peer-ordered
        # and id-sorted inside, so one searchsorted resolves any edge slot.
        self._key_mult = n
        self.edge_key = self.edge_peer * n + self.adj
        # An unchoke target must be a non-seed that actually downloads
        # (partial seeds never request); frozen with the CSR since the
        # download flag only changes when membership does.
        self.adj_target = ~self.is_seed[self.adj]
        if self._behaviors_active:
            self.adj_target &= self.can_download[self.adj]
        self.recv_edge = np.zeros(self.adj.shape[0], dtype=np.float64)

    def _rebuild_csr(self) -> None:
        """Re-freeze the live adjacency after a membership change.

        Departed peers have empty segments (their sets were scrubbed), new
        arrivals bring their announce edges in; last round's received
        volumes are re-projected onto the new edge layout so the coming
        rechoke sees exactly what the reference chokers see.
        """
        self.indptr, self.adj = neighbor_sets_to_csr(self.neighbor_sets)
        self._freeze_edges()
        self._project_received()

    # -- membership dynamics -------------------------------------------------------

    def _process_membership(self, round_index: int) -> bool:
        """Departures then arrivals, mirroring the reference step for step.

        Returns whether membership changed (i.e. the CSR must be re-frozen).
        When a fault schedule is active, the pinned extra steps of the
        protocol (``docs/faults.md``) run in exactly the reference
        engine's order: recovery flush and crash rejoins first, then the
        scenario departures, then crash events and announce retries, the
        scenario arrivals, and finally partition-side assignment.
        """
        scenario = self.scenario
        faults = self._faults
        changed = False
        if self._faults_active:
            faults.begin_round(round_index)
            self.tracker_available = faults.tracker_up(
                round_index, self.resilience.trackers
            )
            if self.tracker_available:
                completions, departs = faults.drain_deferred()
                for pid in completions:
                    self.tracker.record_completion(pid)
                for pid in departs:
                    self.tracker.depart(pid)
            changed |= self._process_rejoins(round_index)
        if self._resilience_active:
            # Dead-neighbor eviction, after the rejoin step -- same pinned
            # position as the reference engine.  Purges touch only the
            # tracker's registration state, never the adjacency, so the
            # CSR stays valid.
            self._resilience.begin_round(round_index)
            if self.tracker_available:
                for pid in self._resilience.drain_purges():
                    if self.alive[pid - 1]:
                        continue  # rejoined: the registration is live again
                    if self.tracker.is_registered(pid):
                        self.tracker.depart(pid)
                        self._resilience.count_purge()
        if scenario.departure != "stay":
            # The alive filter and the dedupe only matter under crashes:
            # a victim's stale bucket entry must not fire while it is
            # gone, and a rejoiner's rescheduled entry can coexist with
            # the original one.  Fault-free runs never hit either.
            due = sorted(
                {i for i in self._depart_due.pop(round_index, []) if self.alive[i]}
            )
            for i in due:
                self._depart(i, round_index)
            changed |= bool(due)
        if self._faults_active:
            changed |= self._process_crashes(round_index)
            changed |= self._process_pending_announces(round_index)
        count = scenario.arrivals_for_round(
            round_index, self._total_arrived, self.source.stream(streams.SCENARIO)
        )
        if count > 0:
            capacities = scenario.sample_capacities(count, self.source.stream(streams.BANDWIDTH))
            self._arrive_batch(capacities, round_index)
            self._total_arrived += count
            changed = True
        if self._faults_active and faults.partition_active(round_index):
            alive_pids = [i + 1 for i in range(self.n_total) if self.alive[i]]
            faults.assign_missing_groups(
                round_index, alive_pids, self.source.stream(streams.FAULT_PARTITION)
            )
        return changed

    def _depart(self, i: int, round_index: int) -> None:
        """Tombstone dense row ``i``; snapshot its stats for the result."""
        pid = i + 1
        snapshot = self._materialize_one(i)
        snapshot.departed_round = round_index
        self._departed[pid] = snapshot
        self.alive[i] = False
        self.counts -= self.bitfields.unpack_row(i)
        for j in self.neighbor_sets[i]:
            self.neighbor_sets[j].discard(i)
        self.neighbor_sets[i] = set()
        self.partial.pop(i, None)
        self.chokers.drop(pid)
        if self._faults_active and not self.tracker_available:
            self._faults.defer_depart(pid)
        else:
            self.tracker.depart(pid)

    # -- fault dynamics ------------------------------------------------------------

    def _announce_or_queue(self, pid: int, round_index: int) -> None:
        """Announce ``pid``, or queue a backoff retry mid-outage (no draws).

        Mirrors ``SwarmSimulator._announce_or_queue``: the behavior
        filter sees the raw tracker contacts, and stale entries of
        crashed peers are dropped afterwards (a dead peer does not
        answer a handshake).
        """
        if not self.tracker_available:
            self._faults.queue_announce(pid, round_index)
            if self._resilience_active and self.resilience.pex:
                self._pex_bootstrap(pid)
            return
        announced = self.tracker.announce(pid, self.source.stream(streams.TRACKER))
        if self._resilience_active:
            self._resilience.record_announce(pid, round_index)
        contacts: Sequence[int] = (
            self._contact_filter(pid, announced)
            if self._behaviors_active
            else announced
        )
        i = pid - 1
        for contact in contacts:
            j = int(contact) - 1
            if not self.alive[j]:
                continue  # stale tracker entry: a crashed peer
            self.neighbor_sets[i].add(j)
            self.neighbor_sets[j].add(i)

    def _process_rejoins(self, round_index: int) -> bool:
        """Restore crashed peers whose rejoin falls due this round.

        The dense row (bitfield, statistics, behavior) survived the
        crash untouched; neighbors, partial credit and choker state were
        scrubbed at crash time, so flipping ``alive`` back and
        re-announcing is all a rejoin takes.  An already-complete
        rejoiner re-enters the deterministic departure queue.
        """
        due = self._faults.rejoins_due(round_index)
        if not due:
            return False
        for pid in due:
            i = pid - 1
            self._departed.pop(pid, None)
            if self._resilience_active:
                self._resilience.cancel_eviction(pid)
            self.alive[i] = True
            self.counts += self.bitfields.unpack_row(i)
            if self.scenario.departure != "stay" and self.completed_round[i] is not None:
                due_round = max(
                    round_index,
                    self.completed_round[i] + 1 + self.scenario.effective_linger,
                )
                self._depart_due.setdefault(due_round, []).append(i)
            self._announce_or_queue(pid, round_index)
        return True

    def _process_crashes(self, round_index: int) -> bool:
        """Fire the round's crash event, if the schedule has one."""
        candidates = [
            i + 1 for i in range(self.n_total) if self.alive[i] and not self.is_seed[i]
        ]
        victims = self._faults.select_crash_victims(
            round_index, candidates, self.source.stream(streams.FAULT_CRASH)
        )
        for pid in victims:
            self._crash(pid - 1, round_index)
        return bool(victims)

    def _crash(self, i: int, round_index: int) -> None:
        """Vanish dense row ``i`` without telling the tracker.

        Unlike :meth:`_depart` the tracker keeps the stale registration
        (and keeps handing the id out); the scrub order matters -- the
        snapshot is materialized *after* neighbors, partial credit and
        last-round receipts are cleared, so it matches the reference
        engine's crashed-peer snapshot field for field.
        """
        pid = i + 1
        if self._resilience_active:
            # Keepalive clock, captured before the scrub -- mirrors the
            # reference engine's note placement.
            self._resilience.note_crash(
                pid, round_index, bool(self.neighbor_sets[i])
            )
        self.alive[i] = False
        self.counts -= self.bitfields.unpack_row(i)
        for j in self.neighbor_sets[i]:
            self.neighbor_sets[j].discard(i)
        self.neighbor_sets[i] = set()
        self.partial.pop(i, None)
        self._last_received.pop(pid, None)
        self.chokers.drop(pid)
        self._faults.clear_announce(pid)
        snapshot = self._materialize_one(i)
        snapshot.departed_round = round_index
        self._departed[pid] = snapshot

    def _process_pending_announces(self, round_index: int) -> bool:
        """Retry queued announces whose backoff expires this round."""
        delivered = False
        for pid in self._faults.announces_due(round_index):
            if not self.alive[pid - 1]:
                # Crashed (or departed) while waiting: the announce dies
                # with the peer.
                self._faults.clear_announce(pid)
                continue
            if not self.tracker_available:
                self._faults.reschedule_announce(pid, round_index)
                continue
            self._faults.clear_announce(pid)
            self._announce_or_queue(pid, round_index)
            delivered = True
        return delivered

    # -- resilience dynamics -------------------------------------------------------

    def _pex_bootstrap(self, pid: int) -> None:
        """Bootstrap a tracker-less arrival from live lower-id peers.

        Mirrors ``SwarmSimulator._pex_bootstrap``: the candidate pool --
        alive peers with a smaller id -- is the one membership predicate
        both engines can compute identically mid-arrival-wave, and the
        single pinned ``pex-gossip`` batch keeps the stream aligned.
        """
        candidates = [j + 1 for j in range(pid - 1) if self.alive[j]]
        sample = sample_pools(
            [candidates],
            self.resilience.pex_sample,
            self.source.stream(streams.PEX_GOSSIP),
        )[0]
        if not sample:
            return
        i = pid - 1
        for contact in sample:
            j = contact - 1
            self.neighbor_sets[i].add(j)
            self.neighbor_sets[j].add(i)
        self._adjacency_dirty = True
        self._resilience.count_bootstrap()

    def _pex_round(self, transfers: List[Tuple[int, int, float]]) -> None:
        """One gossip round over this round's unchoke pairs (PEX).

        Two phases, mirroring the reference engine: every pool is built
        from the pre-gossip adjacency, then one pinned ``pex-gossip``
        batch samples all pools, then the introductions are applied.
        """
        if not transfers:
            return
        pairs = sorted((s + 1, r + 1) for s, r, _ in transfers)
        pools = [
            sorted(j + 1 for j in self.neighbor_sets[a - 1] if j != b - 1)
            for a, b in pairs
        ]
        samples = sample_pools(
            pools, self.resilience.pex_sample, self.source.stream(streams.PEX_GOSSIP)
        )
        for (_, b), sample in zip(pairs, samples):
            i_b = b - 1
            for pid in sample:
                j = pid - 1
                if j == i_b or j in self.neighbor_sets[i_b]:
                    continue
                self.neighbor_sets[i_b].add(j)
                self.neighbor_sets[j].add(i_b)
                self._adjacency_dirty = True
                self._resilience.count_introduction()

    def _filter_faulty_transfers(
        self,
        transfers: List[Tuple[int, int, float]],
        round_index: int,
    ) -> List[Tuple[int, int, float]]:
        """Drop transfers lost to partitions and message loss this round.

        The loss batch is drawn over the canonical sorted pid pairs --
        exactly the order the reference engine derives from its transfer
        dict -- so both engines consume the ``fault-loss`` stream
        identically and drop the same pairs.
        """
        if not transfers:
            return transfers
        pairs = sorted((s + 1, r + 1) for s, r, _ in transfers)
        dropped = self._faults.dropped_pairs(
            round_index, pairs, self.source.stream(streams.FAULT_LOSS)
        )
        if not dropped:
            return transfers
        return [t for t in transfers if (t[0] + 1, t[1] + 1) not in dropped]

    def _arrive_batch(self, capacities: np.ndarray, round_index: int) -> None:
        """Join ``len(capacities)`` fresh leechers (grows every array)."""
        config = self.config
        count = len(capacities)
        # Behavior draws come right after the capacity batch, mirroring
        # the reference's _process_membership order; growing the arrays
        # below consumes nothing, so its placement is free.
        arrival_mix = self._arrival_mix
        behavior_rng = self.source.stream(streams.BEHAVIOR)
        arrival_behaviors = arrival_mix.assign(count, behavior_rng)
        arrival_groups = (
            arrival_mix.assign_groups(count, behavior_rng)
            if self._locality_on
            else [-1] * count
        )
        if self._resilience_active:
            # One tracker-select batch per arrival wave, right after the
            # behavior draws -- the reference engine's pinned position.
            self._resilience.assign_preferences(
                [self.n_total + 1 + k for k in range(count)],
                self.source.stream(streams.TRACKER_SELECT),
            )
        base = self.bitfields.add_peers(count)
        self.alive = np.concatenate([self.alive, np.ones(count, dtype=bool)])
        self.is_seed = np.concatenate([self.is_seed, np.zeros(count, dtype=bool)])
        self.uploads.extend(float(c) for c in capacities)
        self.downloaded.extend([0.0] * count)
        self.uploaded.extend([0.0] * count)
        self.completed_round.extend([None] * count)
        self.arrival_round.extend([round_index] * count)
        self.neighbor_sets.extend(set() for _ in range(count))
        new_profiles = [profile_for(name) for name in arrival_behaviors]
        self.behavior_names.extend(arrival_behaviors)
        self.locality_groups.extend(arrival_groups)
        self.profiles.extend(new_profiles)
        self.upload_factor.extend(p.upload_factor for p in new_profiles)
        self.reveal_limit.extend(p.reveal_limit for p in new_profiles)
        self.can_download = np.concatenate(
            [
                self.can_download,
                np.fromiter(
                    (p.downloads for p in new_profiles), dtype=bool, count=count
                ),
            ]
        )
        self.n_total = base + count

        start_default = self.scenario.arrival_pieces(config.piece_count)
        bootstrap_rng = self.source.stream(streams.BOOTSTRAP)
        for k in range(count):
            i = base + k
            start_pieces = bootstrap_piece_count(
                new_profiles[k], start_default, config.piece_count
            )
            if start_pieces:
                self.bitfields.fill(
                    i,
                    bootstrap_rng.choice(
                        config.piece_count, size=start_pieces, replace=False
                    ),
                )
                self.counts += self.bitfields.unpack_row(i)
            self._announce_or_queue(i + 1, round_index)

    # -- simulation ---------------------------------------------------------------

    def run(self) -> "SwarmResult":
        """Run the configured rounds; returns a reference ``SwarmResult``."""
        from repro.bittorrent.swarm import SwarmResult

        config = self.config
        scenario = self.scenario
        observer = self.observer
        if observer is not None:
            observer.begin_run(_FastSwarmView(self))
        rng = self.source.stream(streams.ROUNDS)
        collaboration: Dict[Tuple[int, int], float] = {}
        tft_rounds: Dict[Tuple[int, int], float] = {}
        leecher_complete = (
            self.bitfields.have_count[: config.leechers] == config.piece_count
        )
        completed = int(leecher_complete.sum())
        # Non-downloading leechers (partial seeds) never complete and do
        # not block the early exit -- same filter as the reference's
        # all(...) predicate.
        incomplete = int(
            (~leecher_complete & self.can_download[: config.leechers]).sum()
        )

        rounds_run = config.rounds
        for round_index in range(1, config.rounds + 1):
            membership_changed = self._process_membership(round_index)
            if membership_changed:
                incomplete = self._count_incomplete()
            if membership_changed or self._adjacency_dirty:
                self._rebuild_csr()
                self._adjacency_dirty = False
            transfers, regular_pairs = self._plan_round(rng)
            if self._faults_active:
                transfers = self._filter_faulty_transfers(transfers, round_index)
            self._record_reciprocal_tft(regular_pairs, tft_rounds, round_index)
            newly, incomplete = self._apply_round(
                transfers, collaboration, rng, round_index, incomplete
            )
            completed += newly
            if (
                self._resilience_active
                and self.resilience.pex
                and not self.tracker_available
            ):
                self._pex_round(transfers)
            if observer is not None:
                observer.observe_round(round_index, regular_pairs)
            if (
                incomplete == 0
                and not scenario.more_arrivals_after(round_index, self._total_arrived)
                and not (
                    self._faults_active
                    and self._faults.blocks_early_exit(round_index)
                )
            ):
                rounds_run = round_index
                break
        return SwarmResult(
            config=config,
            peers=self.materialize_peers(),
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

    def _count_incomplete(self) -> int:
        """Active downloading leechers still missing pieces (post-churn)."""
        live = (
            self.alive[: self.n_total]
            & ~self.is_seed[: self.n_total]
            & self.can_download[: self.n_total]
        )
        return int(
            (self.bitfields.have_count[: self.n_total][live] < self.config.piece_count).sum()
        )

    def _interest_pass(self) -> np.ndarray:
        """Directed per-edge interest: is the partner an unchoke target?

        Edge (p -> q) is set when q is a non-seed that misses a piece p
        holds -- the reference's ``is_interested_in`` test, vectorized.
        Completed sources (seeds included) short-circuit to "q incomplete",
        so late rounds cost almost nothing.
        """
        piece_count = self.config.piece_count
        have = self.bitfields.have_count
        candidate = self.adj_target & (have[self.adj] < piece_count)
        interested = np.zeros(self.adj.shape[0], dtype=bool)
        src_complete = have[self.edge_peer] == piece_count
        interested[candidate & src_complete] = True
        rest = np.flatnonzero(candidate & ~src_complete)
        if rest.size:
            interested[rest] = self.bitfields.edge_interest(
                self.edge_peer[rest], self.adj[rest]
            )
        return interested

    def _plan_round(
        self, rng: np.random.Generator
    ) -> Tuple[List[Tuple[int, int, float]], Set[Tuple[int, int]]]:
        """Decide unchokes; returns dense transfers and regular pid pairs."""
        config = self.config
        interested = self._interest_pass()
        regular_map = batched_regular_slots(
            self.edge_peer,
            self.adj_pid,
            self.recv_edge,
            interested,
            config.regular_slots,
        )
        transfers: List[Tuple[int, int, float]] = []
        regular_pairs: Set[Tuple[int, int]] = set()
        round_seconds = config.round_seconds
        # One vectorized pass finds the peers with at least one interested
        # edge and their per-peer candidate lists; the Python loop below
        # then only visits *active* peers, in the same ascending dense-id
        # order as iterating every row, so the shared random stream is
        # consumed draw for draw as before.
        active_edges = np.flatnonzero(interested)
        if active_edges.size == 0:
            return transfers, regular_pairs
        owners = self.edge_peer.take(active_edges)  # ascending (CSR order)
        partner_ids = self.adj_pid.take(active_edges).tolist()
        starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]]).tolist()
        ends = starts[1:] + [owners.size]
        owner_at = owners[starts].tolist()
        is_seed = self.is_seed
        uploads = self.uploads
        profiles = self.profiles
        upload_factor = self.upload_factor
        for i, lo, hi in zip(owner_at, starts, ends):
            if not profiles[i].unchokes:
                # Never-upload owners are skipped before any choker call,
                # exactly where the reference skips them, so the shared
                # stream stays aligned.
                continue
            interested_ids = partner_ids[lo:hi]
            if is_seed[i]:
                regular: List[int] = []
                unchoked = self.chokers.seed_unchoke(interested_ids, rng)
            else:
                regular, optimistic = self.chokers.leecher_unchoke(
                    i + 1, interested_ids, regular_map.get(i, []), rng
                )
                unchoked = regular + optimistic
            if not unchoked:
                continue
            for target in regular:
                regular_pairs.add((i + 1, target))
            budget_kbit = uploads[i] * round_seconds
            factor = upload_factor[i]
            if factor != 1.0:
                # Guarded multiply: standard peers keep the exact float
                # sequence of the behavior-free code path.
                budget_kbit *= factor
            share = budget_kbit / len(unchoked)
            for target in unchoked:
                transfers.append((i, target - 1, share))
        return transfers, regular_pairs

    def _record_reciprocal_tft(
        self,
        regular_pairs: Set[Tuple[int, int]],
        tft_rounds: Dict[Tuple[int, int], float],
        round_index: int,
    ) -> None:
        if round_index <= self.config.warmup_rounds:
            return
        for sender, target in regular_pairs:
            if sender < target and (target, sender) in regular_pairs:
                key = (sender, target)
                tft_rounds[key] = tft_rounds.get(key, 0.0) + 1.0

    def _acquire_pieces(
        self,
        receiver: int,
        wanted_idx: np.ndarray,
        credit: float,
        rng: np.random.Generator,
        reveal_limit: Optional[int] = None,
    ) -> Tuple[float, int]:
        """Convert ``credit`` kilobits into pieces; returns (credit, gained).

        The reference loop re-picks from the live wanted set each piece,
        but within one transfer the availability of the *remaining* wanted
        pieces never changes (only the chosen piece's count moves, and it
        leaves the set).  Rarest-first therefore pre-sorts the wanted
        pieces into rarity tiers once and consumes them tier by tier.

        The random draws batch: the sequence of pick bounds (tier size,
        tier size - 1, ...) is fully determined *before* any pick, and
        ``Generator.integers(0, bounds_array)`` consumes the bit stream
        element for element exactly like the equivalent sequence of scalar
        ``integers(0, bound)`` calls (Lemire bounded generation either
        way).  One vectorized draw therefore replaces the per-piece Python
        RNG calls while staying draw-for-draw identical to the reference
        selectors -- the equivalence suite holds bit-for-bit.
        """
        piece_size = self.config.piece_size_kbit
        policy = self.config.piece_selection
        taken: List[int] = []
        total = wanted_idx.shape[0]

        # The pick count replays the reference control flow exactly --
        # subtract-while-credit-covers-a-piece -- because repeated float
        # subtraction is not generally the same as one floor division.
        # ``remaining`` is the credit after those subtractions, i.e. the
        # exact float the reference loop would leave behind.  A sender's
        # reveal_limit (super-seeding) caps the subtraction count too, so
        # the leftover credit matches the reference's capped loop.
        remaining = credit
        max_picks = 0
        while (
            remaining >= piece_size
            and max_picks < total
            and (reveal_limit is None or max_picks < reveal_limit)
        ):
            remaining -= piece_size
            max_picks += 1
        if max_picks == 0:
            return credit, 0

        if policy == "rarest-first":
            avail = self.counts.take(wanted_idx)
            # ``wanted_idx`` is ascending, so a stable sort on availability
            # alone equals the reference lexsort((piece, avail)) ordering.
            order = np.argsort(avail, kind="stable")
            queue = wanted_idx.take(order)
            levels = avail.take(order)
            cuts = (levels[1:] != levels[:-1]).nonzero()[0]
            starts = [0] + (cuts + 1).tolist()
            ends = starts[1:] + [total]
            bounds: List[int] = []
            plan: List[Tuple[int, int, int]] = []  # (start, end, picks)
            picks_left = max_picks
            for tier_start, tier_end in zip(starts, ends):
                size = tier_end - tier_start
                take = size if size < picks_left else picks_left
                plan.append((tier_start, tier_end, take))
                bounds.extend(range(size, size - take, -1))
                picks_left -= take
                if picks_left == 0:
                    break
            if len(bounds) == 1:
                draws = [rng.integers(0, bounds[0])]
            else:
                draws = rng.integers(0, np.asarray(bounds, dtype=np.int64)).tolist()
            cursor = 0
            for tier_start, tier_end, take in plan:
                tier = queue[tier_start:tier_end].tolist()
                for _ in range(take):
                    taken.append(tier.pop(draws[cursor]))
                    cursor += 1
        elif policy == "random":
            if max_picks == 1:
                draws = [rng.integers(0, total)]
            else:
                draws = rng.integers(
                    0, np.arange(total, total - max_picks, -1, dtype=np.int64)
                ).tolist()
            pool = wanted_idx.tolist()
            for draw in draws:
                taken.append(pool.pop(draw))
        else:  # sequential: lowest index first, no randomness
            taken = wanted_idx[:max_picks].tolist()

        credit = remaining
        gained = len(taken)
        if gained:
            # The loop above never re-reads bitfield or availability state
            # (tiers are fixed per transfer), so the mutations batch.
            idx = np.asarray(taken, dtype=np.int64)
            packed_row = self.bitfields.packed[receiver]
            np.bitwise_or.at(
                packed_row, idx >> 3, (0x80 >> (idx & 7)).astype(np.uint8)
            )
            self.counts[idx] += 1
            self.bitfields.have_count[receiver] += gained
        return credit, gained

    def _apply_round(
        self,
        transfers: List[Tuple[int, int, float]],
        collaboration: Dict[Tuple[int, int], float],
        rng: np.random.Generator,
        round_index: int,
        incomplete: int,
    ) -> Tuple[int, int]:
        """Turn transfers into pieces; returns (newly completed, incomplete)."""
        config = self.config
        piece_size = config.piece_size_kbit
        piece_count = config.piece_count
        bitfields = self.bitfields
        have = bitfields.have_count
        partial = self.partial
        uploaded = self.uploaded
        downloaded = self.downloaded
        received_now: Dict[int, Dict[int, float]] = {}
        newly_completed = 0

        for sender, receiver, volume_kbit in transfers:
            if have[receiver] == piece_count:
                continue  # a complete receiver wants nothing
            # A complete sender always has something an incomplete receiver
            # misses, so the byte-mask test (and its allocation) is only
            # needed for partially-complete senders.
            if have[sender] == piece_count:
                wanted_bytes = None
            else:
                wanted_bytes = bitfields.wanted_bytes(sender, receiver)
                if not wanted_bytes.any():
                    continue
            uploaded[sender] += volume_kbit
            downloaded[receiver] += volume_kbit
            by_sender = received_now.setdefault(receiver + 1, {})
            by_sender[sender + 1] = by_sender.get(sender + 1, 0.0) + volume_kbit
            key = (
                (sender + 1, receiver + 1)
                if sender < receiver
                else (receiver + 1, sender + 1)
            )
            collaboration[key] = collaboration.get(key, 0.0) + volume_kbit

            partial_r = partial.setdefault(receiver, {})
            credit = partial_r.get(sender, 0.0) + volume_kbit
            if credit >= piece_size:
                if wanted_bytes is None:
                    wanted_bytes = bitfields.wanted_bytes(sender, receiver)
                wanted_idx = bitfields.indices(wanted_bytes)
                credit, gained = self._acquire_pieces(
                    receiver, wanted_idx, credit, rng, self.reveal_limit[sender]
                )
                if (
                    gained
                    and have[receiver] == piece_count
                    and self.completed_round[receiver] is None
                ):
                    self.completed_round[receiver] = round_index
                    newly_completed += 1
                    incomplete -= 1
                    if self._faults_active and not self.tracker_available:
                        self._faults.defer_completion(receiver + 1)
                    else:
                        self.tracker.record_completion(receiver + 1)
                    if self.scenario.departure != "stay":
                        due_round = round_index + 1 + self.scenario.effective_linger
                        self._depart_due.setdefault(due_round, []).append(receiver)
            partial_r[sender] = credit

        self._store_received(received_now)
        return newly_completed, incomplete

    def _store_received(self, received_now: Dict[int, Dict[int, float]]) -> None:
        """Record this round's receipts and project them onto the edges."""
        self._last_received = received_now
        self._project_received()

    def _project_received(self) -> None:
        """Scatter ``_last_received`` onto the current edge array.

        Under churn the edge layout may have just been re-frozen, so every
        (receiver, sender) pair is resolved against the live edge keys and
        pairs whose edge disappeared (a departed partner) are dropped --
        the reference chokers never look those up either.
        """
        self.recv_edge.fill(0.0)
        if not self._last_received or self.edge_key.size == 0:
            return
        receivers: List[int] = []
        senders: List[int] = []
        volumes: List[float] = []
        for receiver_pid, by_sender in self._last_received.items():
            for sender_pid, volume in by_sender.items():
                receivers.append(receiver_pid - 1)
                senders.append(sender_pid - 1)
                volumes.append(volume)
        keys = (
            np.asarray(receivers, dtype=np.int64) * self._key_mult
            + np.asarray(senders, dtype=np.int64)
        )
        positions = np.searchsorted(self.edge_key, keys)
        in_range = positions < self.edge_key.size
        positions = np.where(in_range, positions, 0)
        valid = in_range & (self.edge_key[positions] == keys)
        self.recv_edge[positions[valid]] = np.asarray(volumes, dtype=np.float64)[valid]

    # -- materialization ----------------------------------------------------------

    def _materialize_one(self, i: int) -> "SwarmPeer":
        """Rebuild one dense row as a reference ``SwarmPeer`` snapshot."""
        from repro.bittorrent.swarm import SwarmPeer

        pid = i + 1
        return SwarmPeer(
            peer_id=pid,
            upload_kbps=self.uploads[i],
            is_seed=bool(self.is_seed[i]),
            bitfield=self.bitfields.to_bitfield(i),
            neighbors={j + 1 for j in self.neighbor_sets[i]},
            downloaded_kbit=self.downloaded[i],
            uploaded_kbit=self.uploaded[i],
            partial_kbit={
                sender + 1: credit
                for sender, credit in self.partial.get(i, {}).items()
            },
            received_last_round=dict(self._last_received.get(pid, {})),
            completed_round=self.completed_round[i],
            arrival_round=self.arrival_round[i],
            behavior=self.behavior_names[i],
            locality_group=self.locality_groups[i],
        )

    def materialize_peers(self) -> Dict[int, "SwarmPeer"]:
        """Rebuild reference ``SwarmPeer`` objects from the arrays.

        Each call returns a fresh snapshot of the *current* simulation
        state (initial population before :meth:`run`, final state after),
        departed peers included (frozen at their departure round); this is
        what backs ``SwarmSimulator.peers`` in fast mode and the ``peers``
        of the returned result.
        """
        peers: Dict[int, "SwarmPeer"] = dict(self._departed)
        for i in range(self.n_total):
            if self.alive[i]:
                peers[i + 1] = self._materialize_one(i)
        return dict(sorted(peers.items()))
