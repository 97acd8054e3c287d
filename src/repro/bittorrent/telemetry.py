"""The swarm measurement layer: what a real BitTorrent measurer sees.

The simulator is omniscient -- it knows every bitfield, every transfer and
every completion round.  Measurement studies of deployed swarms (the
``bittorrent-analyzer``-style methodology of ROADMAP item 3) see far less:

* the tracker **scrape** endpoint -- current seeders, current leechers and
  the cumulative snatch (completed-download) counter;
* periodic **peer polls** -- the progress a sampled subset of the swarm
  reports when contacted, bounded by a poll budget;
* **confirmed downloads** -- peers first observed incomplete whose sampled
  progress later crosses a threshold (~98% in practice, because the last
  pieces of a session are routinely missed between polls).

:class:`SwarmObserver` reproduces that observer inside the simulator.  It
attaches to either engine (``engine="reference"`` or ``"fast"``) through
``SwarmSimulator(..., observer=...)`` and is **invisible by construction**:

* it only *reads* engine state (tracker scrape counters, bitfield
  progress), never mutates it;
* its only randomness -- which peers to poll when the budget is smaller
  than the swarm -- comes from its own named stream
  (``"telemetry-poll"``) of the engine's shared
  :class:`~repro.sim.random_source.RandomSource`, and named streams are
  derived independently, so existing consumers see the same draws with or
  without observation.  Observed runs are therefore bit-identical to
  unobserved runs, a property the hypothesis suite enforces.

Cross-engine identity: the poll sample is drawn by *index* into the
tracker's ``known_peers()`` list, which both trackers produce identically,
and progress is the integer piece count over the torrent size on both
engines -- so the full observed record (scrape series, poll timelines,
partner sightings) is id-for-id equal across engines, golden-traced like
the swarm results themselves.

The downstream estimators (download-time CDFs, threshold-sensitivity
curves, the observed stratification index) live in
:mod:`repro.bittorrent.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.bittorrent.faults import TrackerUnavailableError
from repro.bittorrent.tracker import ScrapeStats
from repro.sim import streams
from repro.sim.recorder import MetricRecorder

if TYPE_CHECKING:
    from repro.bittorrent.swarm import SwarmSimulator

__all__ = [
    "ObserverConfig",
    "ScrapeSample",
    "PollSample",
    "ObservedSwarm",
    "SwarmObserver",
    "resolve_observer",
]

#: Back-compat alias; the name is declared centrally in the stream registry.
POLL_STREAM = streams.TELEMETRY_POLL


@dataclass(frozen=True)
class ObserverConfig:
    """Measurement-campaign parameters of a :class:`SwarmObserver`.

    Attributes
    ----------
    scrape_interval:
        Rounds between tracker scrapes (1 = every round).
    poll_interval:
        Rounds between peer-poll sweeps.  Poll rounds always scrape too
        (contacting the tracker is how the observer finds peers to poll).
    poll_budget:
        Maximum peers contacted per poll sweep; ``None`` polls the whole
        swarm.  A finite budget is what makes the observer *miss* peers
        that churn between polls -- the source of confirmed-download
        undercounting.
    confirm_threshold:
        Observed progress at or above which a peer first seen incomplete
        counts as a confirmed download (the ~98% rule of real studies).
    """

    scrape_interval: int = 1
    poll_interval: int = 2
    poll_budget: Optional[int] = None
    confirm_threshold: float = 0.98

    def __post_init__(self) -> None:
        if self.scrape_interval < 1:
            raise ValueError("scrape_interval must be >= 1")
        if self.poll_interval < 1:
            raise ValueError("poll_interval must be >= 1")
        if self.poll_budget is not None and self.poll_budget < 0:
            raise ValueError("poll_budget cannot be negative")
        if not 0.0 < self.confirm_threshold <= 1.0:
            raise ValueError("confirm_threshold must be in (0, 1]")


@dataclass(frozen=True)
class ScrapeSample:
    """One scrape response, stamped with the simulation round."""

    round: int
    seeders: int
    leechers: int
    snatches: int

    @classmethod
    def from_stats(cls, round_index: int, stats: ScrapeStats) -> "ScrapeSample":
        return cls(
            round=round_index,
            seeders=stats.seeders,
            leechers=stats.leechers,
            snatches=stats.snatches,
        )


@dataclass(frozen=True)
class PollSample:
    """One peer poll: reported progress plus the partners seen with it.

    ``partners`` are the peer's reciprocated Tit-for-Tat partners in the
    polled round (ascending peer ids) -- the measurement analogue of
    asking a client who it is actively trading with.
    """

    round: int
    progress: float
    partners: Tuple[int, ...] = ()


@dataclass
class ObservedSwarm:
    """Everything one measurement campaign collected, and its estimators.

    The raw record is the scrape series and the per-peer poll timelines;
    the methods derive the quantities real studies publish (reported vs
    confirmed downloads, visit counts, observed download rates).  The
    derived quantities are pure functions of the record, so two campaigns
    with equal records (e.g. the two engines) agree on every estimate.
    """

    config: ObserverConfig
    piece_count: int
    piece_size_kbit: float
    round_seconds: float
    scrapes: List[ScrapeSample] = field(default_factory=list)
    timelines: Dict[int, List[PollSample]] = field(default_factory=dict)
    poll_rounds: List[int] = field(default_factory=list)
    rounds_observed: int = 0

    # -- recording (used by SwarmObserver) -----------------------------------------

    def record_scrape(self, round_index: int, stats: ScrapeStats) -> None:
        self.scrapes.append(ScrapeSample.from_stats(round_index, stats))

    def record_poll(
        self,
        round_index: int,
        peer_id: int,
        progress: float,
        partners: Tuple[int, ...],
    ) -> None:
        self.timelines.setdefault(peer_id, []).append(
            PollSample(round=round_index, progress=progress, partners=partners)
        )

    # -- download accounting -------------------------------------------------------

    @property
    def peers_observed(self) -> int:
        """Distinct peers ever reached by a poll."""
        return len(self.timelines)

    def reported_downloads(self) -> int:
        """The tracker's claim: the snatch counter at the last scrape."""
        return self.scrapes[-1].snatches if self.scrapes else 0

    def confirmed_downloads(self, threshold: Optional[float] = None) -> int:
        """Downloads the observer can vouch for at the given threshold.

        A peer counts when it was *first observed incomplete* (progress
        < 1, i.e. seen as a leecher) and some later-or-same poll reported
        progress at or above ``threshold`` (default: the campaign's
        ``confirm_threshold``).

        At ``threshold=1.0`` this is a certified lower bound:
        ``confirmed(1.0) <= reported_downloads() <= true completions``
        (every such peer completed mid-run, and the co-scheduled scrape
        already counted its snatch).  Below 1.0 it is the empirical
        estimator of real studies, trading missed completions against
        counting peers that stalled just short of the line.
        """
        theta = self.config.confirm_threshold if threshold is None else threshold
        if not 0.0 < theta <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        count = 0
        for samples in self.timelines.values():
            if samples[0].progress < 1.0 and any(
                s.progress >= theta for s in samples
            ):
                count += 1
        return count

    def confirmation_round(
        self, peer_id: int, threshold: Optional[float] = None
    ) -> Optional[int]:
        """First round this peer's poll crossed the threshold (or None)."""
        theta = self.config.confirm_threshold if threshold is None else threshold
        samples = self.timelines.get(peer_id, [])
        if not samples or samples[0].progress >= 1.0:
            return None
        for sample in samples:
            if sample.progress >= theta:
                return sample.round
        return None

    # -- visit and rate estimators -------------------------------------------------

    def visit_counts(self) -> Dict[int, int]:
        """How often each observed peer was reached, by peer id."""
        return {pid: len(samples) for pid, samples in sorted(self.timelines.items())}

    def first_seen(self, peer_id: int) -> Optional[int]:
        """Round of the first successful poll of this peer (or None)."""
        samples = self.timelines.get(peer_id)
        return samples[0].round if samples else None

    def observed_download_rates(self) -> Dict[int, float]:
        """Per-peer download rate (kbps) estimated from the poll timeline.

        Only peers polled at least twice, first seen incomplete, yield an
        estimate: progress delta times content size over elapsed wall
        time.  This is exactly the between-visits slope a crawler can
        compute, and the input to the observed stratification index.
        """
        rates: Dict[int, float] = {}
        for pid, samples in sorted(self.timelines.items()):
            if len(samples) < 2 or samples[0].progress >= 1.0:
                continue
            first, last = samples[0], samples[-1]
            elapsed_rounds = last.round - first.round
            if elapsed_rounds <= 0:
                continue
            delta = last.progress - first.progress
            rates[pid] = (
                delta
                * self.piece_count
                * self.piece_size_kbit
                / (elapsed_rounds * self.round_seconds)
            )
        return rates

    def partner_sightings(self) -> Dict[Tuple[int, int], int]:
        """How often each (low, high) pair was seen trading in a poll."""
        sightings: Dict[Tuple[int, int], int] = {}
        for pid, samples in self.timelines.items():
            for sample in samples:
                for partner in sample.partners:
                    key = (min(pid, partner), max(pid, partner))
                    sightings[key] = sightings.get(key, 0) + 1
        return sightings

    # -- export --------------------------------------------------------------------

    def to_recorder(self) -> MetricRecorder:
        """The campaign as streaming metric series (the recorder layer).

        Series: ``scrape/seeders``, ``scrape/leechers``,
        ``scrape/snatches`` at scrape rounds; ``poll/peers_polled`` and
        ``poll/mean_progress`` at poll rounds.  Times are simulation
        rounds.
        """
        recorder = MetricRecorder()
        for sample in self.scrapes:
            recorder.record_many(
                float(sample.round),
                {
                    "scrape/seeders": float(sample.seeders),
                    "scrape/leechers": float(sample.leechers),
                    "scrape/snatches": float(sample.snatches),
                },
            )
        by_round: Dict[int, List[float]] = {}
        for samples in self.timelines.values():
            for sample in samples:
                by_round.setdefault(sample.round, []).append(sample.progress)
        for round_index in sorted(by_round):
            values = by_round[round_index]
            recorder.record_many(
                float(round_index),
                {
                    "poll/peers_polled": float(len(values)),
                    "poll/mean_progress": float(sum(values) / len(values)),
                },
            )
        return recorder


class SwarmObserver:
    """Attaches to a swarm engine and runs one measurement campaign.

    The engine drives the observer: it calls :meth:`begin_run` with a view
    of itself before the first round, :meth:`observe_round` after every
    completed round, and :meth:`finish` when the run ends.  The *view* is
    the narrow read-only surface every run exposes identically --
    ``source``, ``piece_count``, ``piece_size_kbit``, ``round_seconds``,
    ``scrape()``, ``known_peers()`` and ``progress(peer_id)`` (see
    :class:`_SwarmView`).
    """

    def __init__(self, config: Optional[ObserverConfig] = None) -> None:
        self.config = config or ObserverConfig()
        self.observed: Optional[ObservedSwarm] = None
        self._view = None

    def begin_run(self, view) -> None:
        """Reset the campaign and bind the engine view for this run."""
        self._view = view
        self.observed = ObservedSwarm(
            config=self.config,
            piece_count=view.piece_count,
            piece_size_kbit=view.piece_size_kbit,
            round_seconds=view.round_seconds,
        )

    def observe_round(
        self, round_index: int, regular_pairs: Set[Tuple[int, int]]
    ) -> None:
        """Run the scrape / poll schedule for one completed round.

        ``regular_pairs`` is the engine's set of directed regular-slot
        grants this round; polls report the reciprocated pairs the polled
        peer is part of -- identical on both engines.
        """
        if self.observed is None:
            raise RuntimeError("observe_round before begin_run")
        config = self.config
        poll_due = (
            (round_index - 1) % config.poll_interval == 0
            and config.poll_budget != 0
        )
        scrape_due = poll_due or (round_index - 1) % config.scrape_interval == 0
        if scrape_due:
            # A tracker outage (the fault layer) fails the scrape: the
            # sample is simply *absent* from the series, exactly like a
            # crawler's failed HTTP request.  The schedule itself is
            # unchanged -- the next due round tries again.
            try:
                self.observed.record_scrape(round_index, self._view.scrape())
            except TrackerUnavailableError:
                pass
        if poll_due:
            self._poll(round_index, regular_pairs)

    def _poll(self, round_index: int, regular_pairs: Set[Tuple[int, int]]) -> None:
        view = self._view
        try:
            known = view.known_peers()
        except TrackerUnavailableError:
            # Tracker down mid-campaign: a real crawler falls back to the
            # peers it has already met.  Polls against that roster still
            # go out (peer polls are peer-to-peer, not via the tracker).
            known = sorted(self.observed.timelines)
        if not known:
            return
        budget = self.config.poll_budget
        if budget is not None and budget < len(known):
            # Drawn by *index* so stream consumption depends only on the
            # population size -- identical across engines, and isolated in
            # the observer's own named stream.
            rng = view.source.stream(streams.TELEMETRY_POLL)
            chosen = rng.choice(len(known), size=budget, replace=False)
            sample = sorted(known[int(i)] for i in chosen)
        else:
            sample = list(known)
        reciprocal: Dict[int, List[int]] = {}
        for a, b in regular_pairs:
            if a < b and (b, a) in regular_pairs:
                reciprocal.setdefault(a, []).append(b)
                reciprocal.setdefault(b, []).append(a)
        self.observed.poll_rounds.append(round_index)
        for pid in sample:
            progress = view.progress(pid)
            if progress is None:
                # The peer is gone (departed, or crashed without telling
                # the tracker): the poll times out and records nothing.
                continue
            partners = tuple(sorted(reciprocal.get(pid, ())))
            self.observed.record_poll(round_index, pid, progress, partners)

    def finish(self, rounds_run: int) -> ObservedSwarm:
        """Close the campaign; returns the collected record."""
        if self.observed is None:
            raise RuntimeError("finish before begin_run")
        self.observed.rounds_observed = rounds_run
        return self.observed


def resolve_observer(
    observer: "SwarmObserver | ObserverConfig | None",
) -> Optional[SwarmObserver]:
    """Normalize the ``observer=`` argument of the swarm simulators."""
    if observer is None:
        return None
    if isinstance(observer, SwarmObserver):
        return observer
    if isinstance(observer, ObserverConfig):
        return SwarmObserver(observer)
    raise TypeError(
        "observer must be a SwarmObserver, an ObserverConfig or None, "
        f"got {type(observer).__name__}"
    )


class _SwarmView:
    """Read-only measurement surface of a swarm run, on either engine.

    Tracker endpoints (``scrape`` / ``known_peers``) raise
    :class:`~repro.bittorrent.faults.TrackerUnavailableError` during a
    scheduled outage -- the observer sees the failure, the simulator never
    does (its own announces are deferred internally, not via this view).
    ``progress`` is the integer piece count over the torrent size, so it
    is bit-identical across engines, and ``None`` for peers not currently
    present (a crashed peer's stale tracker entry can still be sampled).
    """

    def __init__(self, simulator: "SwarmSimulator") -> None:
        self._simulator = simulator
        config = simulator.config
        self.piece_count = config.piece_count
        self.piece_size_kbit = config.piece_size_kbit
        self.round_seconds = config.round_seconds
        self.source = simulator.source

    def scrape(self) -> ScrapeStats:
        if not self._simulator.tracker_available:
            raise TrackerUnavailableError("tracker outage: scrape failed")
        return self._simulator.tracker.scrape()

    def known_peers(self) -> List[int]:
        if not self._simulator.tracker_available:
            raise TrackerUnavailableError("tracker outage: announce failed")
        return self._simulator.tracker.known_peers()

    def progress(self, peer_id: int) -> Optional[float]:
        held = self._simulator._pieces_held(peer_id)
        return None if held is None else held / self.piece_count

    def stale_count(self) -> int:
        """Crashed-but-registered ghosts in the scrape (omniscient).

        Consumes no randomness and mutates nothing; see
        :meth:`repro.bittorrent.tracker.Tracker.stale_count`.
        """
        return self._simulator.tracker.stale_count(self._simulator._live_ids())
