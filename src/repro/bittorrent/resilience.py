"""Client-side swarm resilience: failover, peer exchange, eviction.

The fault layer (:mod:`repro.bittorrent.faults`) made the paper's hidden
assumptions breakable -- one tracker, lossless delivery, graceful exits --
but left the clients defenseless: an announce that finds the tracker down
just queues and backs off, and a crashed peer's stale registration is
handed out until the end of the run.  This module adds the defenses real
BitTorrent deployments grew for exactly these failures, as one composable
:class:`ResiliencePolicy` threaded through ``SwarmConfig(resilience=...)``:

``trackers=N`` (multi-tracker failover)
    The announce list holds ``N`` replicas of the tracker.  Fault outage
    windows target individual replicas (``outage:START+ROUNDS/R``, or
    ``/all``), each peer prefers a replica drawn once at join time from
    the registered ``tracker-select`` stream, and an announce walks the
    list in order from the preferred replica to the first live one.  The
    swarm only loses tracker service when *every* replica is down -- a
    full outage degenerates to the single-tracker behaviour (queue +
    doubling backoff), a partial one costs nothing but a failover.

``pex`` (peer-exchange gossip)
    While every replica is unreachable, each round every peer that pushed
    a transfer gossips a bounded sample of its live neighbor ids to the
    receiving partner, drawn as one pinned batch per round from the
    registered ``pex-gossip`` stream.  A peer arriving mid-blackout also
    samples a handful of longer-lived peers (its "resume cache") instead
    of stalling alone in the retry queue.

``keepalive_timeout=T`` (dead-neighbor eviction)
    A crashed peer that had neighbors is detected after ``T`` rounds
    without a completed transfer; its eviction schedules a *purge* of the
    stale tracker registration, delivered on the next round the tracker
    is reachable -- after which announces stop handing out the ghost and
    scrape populations deflate back to the truth
    (see ``Tracker.stale_count``).

Determinism contract: every random decision flows through the two
registered streams (:data:`repro.sim.streams.TRACKER_SELECT`,
:data:`repro.sim.streams.PEX_GOSSIP`), drawn at pinned points of the one
round protocol both swarm engines run
(:class:`~repro.bittorrent.swarm.SwarmSimulator`); the
:class:`ResilienceRuntime` holds the pid-level bookkeeping and never draws
on its own (the protocol passes the stream in, like
:class:`~repro.bittorrent.faults.FaultRuntime`).  The
default policy is trivial: it draws nothing, takes no branch, and leaves
every pre-resilience run byte-identical -- the existing golden traces
prove it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.bittorrent.faults import FaultSchedule
from repro.bittorrent.specs import parse_tokens

__all__ = [
    "RESILIENCE_PRESET_NAMES",
    "ResiliencePolicy",
    "ResilienceStats",
    "ResilienceRuntime",
    "make_resilience",
    "resolve_resilience",
    "sample_pools",
]


@dataclass(frozen=True)
class ResiliencePolicy:
    """The client-side defenses enabled for one run.

    Attributes
    ----------
    trackers:
        Number of tracker replicas in the announce list (1 = the paper's
        single tracker; no replica preference is drawn).
    pex:
        Whether peers gossip neighbor samples while every replica is
        unreachable.
    pex_sample:
        Upper bound on the neighbor ids one gossip message carries.
    keepalive_timeout:
        Rounds without a completed transfer after which a crashed
        neighbor is declared dead and its stale tracker registration is
        queued for purging (0 disables eviction).
    """

    trackers: int = 1
    pex: bool = False
    pex_sample: int = 8
    keepalive_timeout: int = 0

    def __post_init__(self) -> None:
        if self.trackers < 1:
            raise ValueError("trackers must be >= 1")
        if self.pex_sample < 1:
            raise ValueError("pex_sample must be >= 1")
        if self.keepalive_timeout < 0:
            raise ValueError("keepalive_timeout cannot be negative")

    @property
    def is_trivial(self) -> bool:
        """Whether the policy changes nothing (and so draws nothing)."""
        return (
            self.trackers == 1 and not self.pex and self.keepalive_timeout == 0
        )


@dataclass(frozen=True)
class ResilienceStats:
    """Counters the resilience layer accumulated over one run.

    Bit-identical across engines (every increment happens in the shared
    :class:`ResilienceRuntime` at pinned protocol points); attached to
    ``SwarmResult.resilience`` when the policy is non-trivial, ``None``
    otherwise so pre-resilience result payloads are unchanged.
    """

    replica_announces: Tuple[int, ...]
    failover_announces: int
    pex_introductions: int
    pex_bootstraps: int
    evictions: int
    purges: int


# Named policies reachable from the CLI (`--resilience`) and the
# experiment drivers; make_resilience also parses "knob:value,..." specs.
_RESILIENCE_PRESETS: Dict[str, ResiliencePolicy] = {
    "off": ResiliencePolicy(),
    "failover": ResiliencePolicy(trackers=3),
    "pex": ResiliencePolicy(pex=True),
    "full": ResiliencePolicy(trackers=3, pex=True, keepalive_timeout=5),
}

RESILIENCE_PRESET_NAMES = tuple(sorted(_RESILIENCE_PRESETS))


def _parse_resilience_spec(spec: str) -> ResiliencePolicy:
    """Parse a comma list of resilience knobs.

    Grammar::

        trackers:N        N-replica announce list
        pex               gossip with the default sample bound
        pex:SAMPLE        gossip with samples of at most SAMPLE ids
        keepalive:T       evict crashed neighbors after T silent rounds

    Each knob may appear once.  A malformed or repeated token raises a
    :class:`ValueError` naming the token, its 1-based ordinal and its
    character span, as the fault-spec parser does
    (:func:`repro.bittorrent.specs.parse_tokens`).
    """
    kwargs: Dict[str, object] = {}
    seen: Set[str] = set()

    def parse(token: str) -> None:
        knob, colon, value = token.partition(":")
        knob = knob.strip()
        value = value.strip()
        if knob in seen:
            raise ValueError(f"knob '{knob}' given twice")
        seen.add(knob)
        if knob == "trackers":
            kwargs["trackers"] = int(value)
        elif knob == "pex":
            kwargs["pex"] = True
            if colon:
                kwargs["pex_sample"] = int(value)
        elif knob == "keepalive":
            kwargs["keepalive_timeout"] = int(value)
        else:
            raise ValueError(
                "unknown resilience knob (available: trackers:N, "
                "pex[:SAMPLE], keepalive:T)"
            )

    parse_tokens("resilience", spec, parse)
    return ResiliencePolicy(**kwargs)  # type: ignore[arg-type]


def make_resilience(spec: str) -> ResiliencePolicy:
    """Build a :class:`ResiliencePolicy` from a preset name or a spec string.

    ``spec`` is either one of :data:`RESILIENCE_PRESET_NAMES` or a comma
    list of knobs (see :func:`_parse_resilience_spec`), e.g.
    ``"trackers:3"`` or ``"trackers:2,pex:4,keepalive:5"``.
    """
    if spec in _RESILIENCE_PRESETS:
        return _RESILIENCE_PRESETS[spec]
    if ":" not in spec:
        raise ValueError(
            f"unknown resilience preset '{spec}' "
            f"(available: {', '.join(RESILIENCE_PRESET_NAMES)}; or pass a "
            f"'knob:value,...' spec)"
        )
    return _parse_resilience_spec(spec)


def resolve_resilience(
    resilience: Union["ResiliencePolicy", str, None],
) -> ResiliencePolicy:
    """Normalize a ``resilience=`` argument to a :class:`ResiliencePolicy`.

    Accepts a policy, a preset name / spec string, or ``None`` (the
    trivial no-defense policy).
    """
    if resilience is None:
        return ResiliencePolicy()
    if isinstance(resilience, str):
        return make_resilience(resilience)
    if not isinstance(resilience, ResiliencePolicy):
        raise TypeError(
            "resilience must be a ResiliencePolicy, a preset name / spec "
            "string or None"
        )
    return resilience


def sample_pools(
    sizes: Sequence[int] | np.ndarray,
    sample_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one bounded sample per pool, as a single pinned batch.

    The pools are given by their sizes and the samples come back as
    positions, so no pool is ever built: pool ``i`` is any sequence of
    ``sizes[i]`` elements (a CSR segment, a prefix of a list), and it
    contributes ``min(sample_size, sizes[i])`` positions into itself,
    picked without replacement.  The result holds them pool after pool,
    each pool's in pick order.

    The picks are those of a partial Fisher-Yates that pops each draw
    from the shrinking pool (``pool.pop(draw)``), and the pop bounds of
    *all* pools concatenate into one ``rng.integers(0, bounds)`` batch.
    Empty pools contribute no bounds; an all-empty call draws nothing.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    picks = np.minimum(sizes, sample_size)
    total = int(picks.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    pool = np.repeat(np.arange(sizes.size), picks)
    column = np.arange(total) - (np.cumsum(picks) - picks)[pool]
    # One row per pool, one column per pick, filled with the draws.  The
    # pick in column j pops the draw-th element of what the earlier picks
    # left, so its position is that order statistic of the complement:
    # walk the earlier positions ascending and step past each one at or
    # below the running position.  A short pool's padding columns come
    # after its real ones and so never feed them.
    grid = np.zeros((sizes.size, int(picks.max())), dtype=np.int64)
    grid[pool, column] = rng.integers(0, sizes[pool] - column)
    for j in range(1, grid.shape[1]):
        position = grid[:, j]
        for earlier in np.sort(grid[:, :j], axis=1).T:
            position += earlier <= position
    return grid[pool, column]


class ResilienceRuntime:
    """Mutable per-run resilience bookkeeping of the swarm's round protocol.

    Keyed by 1-based peer id like :class:`~repro.bittorrent.faults.
    FaultRuntime`; the protocol calls the mutating methods at the pinned
    points documented in ``docs/resilience.md`` and passes any random
    stream in, so the runtime itself never draws.  Also
    validates the fault schedule against the policy at construction:
    an outage targeting a replica the announce list does not have is a
    configuration error, not a silently dead event.
    """

    def __init__(self, policy: ResiliencePolicy, schedule: FaultSchedule) -> None:
        self.policy = policy
        self.active = not policy.is_trivial
        if schedule.max_targeted_replica >= policy.trackers:
            raise ValueError(
                f"fault schedule targets tracker replica "
                f"{schedule.max_targeted_replica} but the resilience policy "
                f"has only {policy.trackers} replica(s) "
                f"(announce-list indices are 0-based)"
            )
        self.schedule = schedule
        self._preferred: Dict[int, int] = {}
        # pid -> eviction due round; the due-round buckets drive the scan.
        self._evict_scheduled: Dict[int, int] = {}
        self._evict_due: Dict[int, List[int]] = {}
        self._pending_purges: List[int] = []
        # -- counters (identical across engines by construction) --
        self.replica_announces: List[int] = [0] * policy.trackers
        self.failover_announces = 0
        self.pex_introductions = 0
        self.pex_bootstraps = 0
        self.evictions = 0
        self.purges = 0

    # -- replica selection --------------------------------------------------------

    def assign_preferences(
        self, pids: Sequence[int], rng: np.random.Generator
    ) -> None:
        """Draw each peer's preferred replica (one batch per join wave).

        Consumes one ``rng.integers`` batch iff the announce list has more
        than one replica and ``pids`` is non-empty; a single-tracker
        policy draws nothing.  Rejoining crashed peers keep their original
        preference and must not be re-passed here.
        """
        if self.policy.trackers <= 1 or not pids:
            return
        draws = rng.integers(0, self.policy.trackers, size=len(pids))
        for pid, draw in zip(pids, draws):
            self._preferred[int(pid)] = int(draw)

    def serving_replica(self, pid: int, round_index: int) -> Optional[int]:
        """The replica that serves ``pid``'s announce this round.

        Walks the announce list in order from the preferred replica and
        returns the first live one (``None`` during a full blackout).
        Purely deterministic -- no stream is consumed.
        """
        preferred = self._preferred.get(pid, 0)
        for step in range(self.policy.trackers):
            replica = (preferred + step) % self.policy.trackers
            if not self.schedule.replica_down(round_index, replica):
                return replica
        return None

    def record_announce(self, pid: int, round_index: int) -> None:
        """Account a successful announce to the replica that served it."""
        replica = self.serving_replica(pid, round_index)
        if replica is None:  # pragma: no cover -- callers gate on tracker_up
            return
        self.replica_announces[replica] += 1
        if replica != self._preferred.get(pid, 0):
            self.failover_announces += 1

    # -- dead-neighbor eviction ----------------------------------------------------

    def note_crash(self, pid: int, round_index: int, had_neighbors: bool) -> None:
        """Start the keepalive clock on a freshly crashed peer.

        Only peers that had neighbors are detectable (somebody must miss
        their transfers); with ``keepalive_timeout=0`` nothing is
        scheduled.
        """
        if self.policy.keepalive_timeout <= 0 or not had_neighbors:
            return
        due = round_index + self.policy.keepalive_timeout
        self._evict_scheduled[pid] = due
        self._evict_due.setdefault(due, []).append(pid)

    def cancel_eviction(self, pid: int) -> None:
        """A crashed peer rejoined before its timeout: it is not dead."""
        self._evict_scheduled.pop(pid, None)

    def begin_round(self, round_index: int) -> None:
        """Fire the evictions falling due; call right after fault recovery.

        An evicted pid moves to the purge queue; the purge itself is
        delivered by the engine on the next round the tracker is
        reachable (:meth:`drain_purges`).
        """
        for pid in sorted(self._evict_due.pop(round_index, [])):
            if self._evict_scheduled.get(pid) != round_index:
                continue  # rejoined (or rescheduled) meanwhile
            del self._evict_scheduled[pid]
            self.evictions += 1
            self._pending_purges.append(pid)

    def drain_purges(self) -> List[int]:
        """Pop the stale registrations awaiting a reachable tracker, sorted."""
        purges = sorted(self._pending_purges)
        self._pending_purges = []
        return purges

    def count_purge(self) -> None:
        """One stale registration actually left a tracker."""
        self.purges += 1

    # -- PEX accounting -----------------------------------------------------------

    def count_introduction(self, count: int = 1) -> None:
        """Gossip messages created ``count`` previously unknown edges."""
        self.pex_introductions += count

    def count_bootstrap(self) -> None:
        """One blacked-out arrival found contacts through its resume cache."""
        self.pex_bootstraps += 1

    # -- result -------------------------------------------------------------------

    def stats(self) -> ResilienceStats:
        """Freeze the counters for ``SwarmResult.resilience``."""
        return ResilienceStats(
            replica_announces=tuple(self.replica_announces),
            failover_announces=self.failover_announces,
            pex_introductions=self.pex_introductions,
            pex_bootstraps=self.pex_bootstraps,
            evictions=self.evictions,
            purges=self.purges,
        )
