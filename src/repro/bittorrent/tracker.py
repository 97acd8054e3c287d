"""Tracker: peer discovery.

The tracker hands every joining peer a random subset of the swarm.  The
union of these announcements -- the swarm's neighbor sets, which the
simulator keeps -- is precisely the paper's *acceptance graph*: two peers
can only end up in a Tit-for-Tat exchange if at least one of them learnt
about the other, and the resulting knowledge graph is (close to) an
Erdős–Rényi graph with expected degree equal to the announce size.

Besides discovery the tracker keeps the aggregate counters a real tracker
exposes through its *scrape* endpoint -- current seeders, current leechers
and the cumulative number of completed downloads ("snatches") -- which is
all that measurement studies built on scrapes ever see
(:mod:`repro.bittorrent.telemetry`).  The counters are maintained
unconditionally: they consume no randomness and touch no simulation state,
so an attached observer cannot perturb a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Set

import numpy as np

__all__ = ["ScrapeStats", "Tracker"]


@dataclass(frozen=True)
class ScrapeStats:
    """One tracker scrape: the three counters of the BitTorrent scrape API.

    ``seeders`` and ``leechers`` describe the swarm *right now*;
    ``snatches`` is the cumulative count of completed-download events the
    tracker has been told about (peers that were already complete when
    they first announced are seeders, not snatches -- exactly the
    distinction real trackers make).
    """

    seeders: int
    leechers: int
    snatches: int


@dataclass
class Tracker:
    """A minimal BitTorrent tracker.

    Attributes
    ----------
    announce_size:
        Number of peers returned by each announce (BitTorrent defaults to
        50; the paper's realistic value for *interesting* neighbors is 20).
    """

    announce_size: int = 20
    _known: Set[int] = field(default_factory=set, repr=False)
    _complete: Set[int] = field(default_factory=set, repr=False)
    _snatches: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.announce_size <= 0:
            raise ValueError("announce_size must be positive")

    @property
    def swarm_size(self) -> int:
        """Number of peers currently registered."""
        return len(self._known)

    def announce(self, peer_id: int, rng: np.random.Generator) -> List[int]:
        """Register ``peer_id`` and return a random subset of other peers.

        The tracker keeps no record of who learnt about whom: the swarm
        connects the announcing peer and the returned ones symmetrically,
        and its neighbor sets are the acceptance graph.

        Re-announcing an already-registered peer is allowed and draws a
        fresh contact subset -- this is how a crashed peer rejoins under
        the fault layer (:mod:`repro.bittorrent.faults`).  Note that a
        *crashed* peer never departs, so its stale entry keeps being
        handed out until it rejoins; callers that care must filter
        contacts against the currently-present population.
        """
        others = sorted(self._known - {peer_id})
        self._known.add(peer_id)
        if not others:
            return []
        count = min(self.announce_size, len(others))
        return [int(x) for x in rng.choice(others, size=count, replace=False)]

    def depart(self, peer_id: int) -> None:
        """Remove a peer from the tracker.

        Later announces can no longer return the departed peer, which is
        how scenario departures propagate to newly arriving peers.  A
        departing seeder also leaves the scrape's seeder count (snatches,
        being cumulative, are kept).  During a scheduled tracker outage
        the engines *defer* this call (and ``record_completion``) until
        recovery, so mid-outage scrapes would -- had they not failed --
        still show the pre-outage counters.
        """
        self._known.discard(peer_id)
        self._complete.discard(peer_id)

    def register_complete(self, peer_id: int) -> None:
        """Mark a registered peer as a seeder *without* counting a snatch.

        This is the announce a peer that already holds the full content
        sends on joining: it raises the scrape's seeder count but -- like a
        real tracker -- is not a completed-download event.
        """
        if peer_id in self._known:
            self._complete.add(peer_id)

    def record_completion(self, peer_id: int) -> None:
        """Count one completed download (the announce ``event=completed``).

        Idempotent per peer: a peer completes at most once, so repeated
        notifications do not inflate the snatch counter.
        """
        if peer_id in self._known and peer_id not in self._complete:
            self._complete.add(peer_id)
            self._snatches += 1

    def scrape(self) -> ScrapeStats:
        """The scrape-endpoint counters (seeders / leechers / snatches)."""
        seeders = len(self._complete)
        return ScrapeStats(
            seeders=seeders,
            leechers=len(self._known) - seeders,
            snatches=self._snatches,
        )

    def is_registered(self, peer_id: int) -> bool:
        """Whether the peer is currently in the swarm (not departed)."""
        return peer_id in self._known

    def stale_count(self, present: Iterable[int]) -> int:
        """Registered peers that are no longer actually in the swarm.

        Crashed peers never send a ``stopped`` event, so their
        registrations linger: announces keep handing the ids out and
        ``scrape()`` keeps counting the ghosts (see ``docs/faults.md``,
        "scrapes overcount crashed peers").  ``present`` is the ground
        truth -- the ids currently alive in the simulation -- which makes
        this an *omniscient* diagnostic a real scraper could not compute;
        the telemetry views expose it as exactly that.
        """
        alive = frozenset(present)
        return sum(1 for pid in self._known if pid not in alive)

    def known_peers(self) -> List[int]:
        """Currently registered peer ids, ascending (departed excluded).

        This is exactly the population an announce samples from; the fast
        tracker maintains the same list array-side, and the parity is
        asserted by the scenario test suite.
        """
        return sorted(self._known)
