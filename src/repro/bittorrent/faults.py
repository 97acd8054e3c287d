"""Deterministic fault injection: outages, loss, crashes, partitions.

The paper's stratification analysis assumes an always-reachable tracker,
lossless piece exchange, and peers that depart gracefully.  Its own
setting -- one tracker in front of a flash crowd -- is exactly where those
assumptions break, so this module makes failure a first-class workload
dimension, alongside membership (:mod:`repro.bittorrent.scenarios`) and
client behavior (:mod:`repro.bittorrent.behaviors`).

A :class:`FaultSchedule` is a composition of :class:`FaultEvent`\\ s:

``outage``
    A tracker replica is unreachable for a window of rounds: announces and
    scrapes fail, new arrivals queue their announce and retry with a
    deterministic doubling backoff (:func:`repro.sim.faults.backoff_delay`),
    and completion / depart notifications are delivered on recovery.
    By default an outage hits replica 0 -- the only replica of a
    single-tracker swarm, so existing specs are unchanged -- but under a
    replicated announce list (:mod:`repro.bittorrent.resilience`) an event
    may target one replica (``replica=R``) or all of them (``replica=-1``):
    the swarm only loses the tracker entirely when every replica is down.
``loss``
    Each planned transfer is independently dropped with probability
    ``rate`` during the window (the unchoke decision stands -- loss kills
    the payload, not the relationship).
``crash``
    ``count`` random non-seed peers vanish at round ``start`` *without*
    telling the tracker (their stale entries keep being handed out), and
    optionally rejoin ``rejoin_after`` rounds later with their bitfield
    retained but neighbors, partial pieces and choker state lost.
``partition``
    The contact graph is split into ``groups`` sides for a window: a
    transfer whose endpoints sit on different sides is dropped.

Determinism contract: every random decision flows through the three
registered ``fault-*`` streams (:data:`repro.sim.streams.FAULT_LOSS`,
``FAULT_CRASH``, ``FAULT_PARTITION``), drawn at pinned points of the one
round protocol both swarm engines run
(:class:`~repro.bittorrent.swarm.SwarmSimulator`) -- loss as one batch
over the sorted planned pairs, crash victims as one choice batch over the
sorted alive non-seeds, partition sides as one integer batch over the
not-yet-assigned alive peers.  A trivial schedule (no events) draws
nothing and takes no branch that affects the simulation, so a fault-free
run is bit-identical with or without the fault layer (the existing golden
traces prove it).

:class:`FaultRuntime` holds the mutable per-run bookkeeping (queued
announces, deferred tracker notifications, pending rejoins, partition
sides), keyed by 1-based peer id; the round protocol owns one per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.sim.faults import RoundWindow, next_retry_round

__all__ = [
    "FAULT_KINDS",
    "FAULT_PRESET_NAMES",
    "FaultEvent",
    "FaultSchedule",
    "FaultRuntime",
    "TrackerUnavailableError",
    "make_faults",
    "resolve_faults",
]

FAULT_KINDS = ("outage", "loss", "crash", "partition")


class TrackerUnavailableError(RuntimeError):
    """Raised by tracker-facing calls during a scheduled outage window.

    The swarm engines never raise this themselves (they gate on the
    schedule directly); it exists for *observers* -- the telemetry views
    raise it from ``scrape()`` / ``known_peers()`` so a measurement study
    experiences the outage exactly like a real scraper would.
    """


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure.  Which fields matter depends on ``kind``.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    start:
        First affected round (1-based, like the engines' round loop).
        A ``crash`` fires exactly at ``start``.
    rounds:
        Window length for ``outage`` / ``loss`` / ``partition`` events;
        ``0`` means open-ended (until the run terminates).  Must be 1 for
        ``crash`` (a crash is instantaneous).
    rate:
        Per-transfer drop probability of a ``loss`` event, in ``(0, 1]``.
    count:
        Number of victims of a ``crash`` event (clamped to the alive
        non-seed population at fire time).
    rejoin_after:
        Rounds until crashed peers rejoin (``0`` = never; the bitfield is
        retained across the gap, neighbors and partial pieces are not).
    groups:
        Number of sides a ``partition`` event splits the swarm into.
    replica:
        Which tracker replica an ``outage`` event hits: a 0-based index
        into the announce list, or ``-1`` for every replica at once.  The
        default 0 is the only replica of a single-tracker swarm, so specs
        written before replication keep their meaning.
    """

    kind: str
    start: int = 1
    rounds: int = 1
    rate: float = 0.0
    count: int = 0
    rejoin_after: int = 0
    groups: int = 2
    replica: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind '{self.kind}' "
                f"(available: {', '.join(FAULT_KINDS)})"
            )
        # Window validity (start >= 1, rounds >= 0) is delegated here so
        # every event carries a well-formed window.
        RoundWindow(self.start, self.rounds)
        if self.kind == "loss":
            if not 0.0 < self.rate <= 1.0:
                raise ValueError("loss rate must be in (0, 1]")
        elif self.rate != 0.0:
            raise ValueError(f"rate only applies to loss events, not '{self.kind}'")
        if self.kind == "crash":
            if self.count < 1:
                raise ValueError("crash count must be >= 1")
            if self.rounds != 1:
                raise ValueError("a crash is instantaneous (rounds must be 1)")
            if self.rejoin_after < 0:
                raise ValueError("rejoin_after must be >= 0")
        else:
            if self.count != 0 or self.rejoin_after != 0:
                raise ValueError(
                    f"count/rejoin_after only apply to crash events, "
                    f"not '{self.kind}'"
                )
        if self.kind == "partition":
            if self.groups < 2:
                raise ValueError("partition groups must be >= 2")
        if self.kind == "outage":
            if self.replica < -1:
                raise ValueError(
                    "outage replica must be a 0-based index or -1 for all"
                )
        elif self.replica != 0:
            raise ValueError(
                f"replica only applies to outage events, not '{self.kind}'"
            )

    @property
    def window(self) -> RoundWindow:
        """The event's round window."""
        return RoundWindow(self.start, self.rounds)


@dataclass(frozen=True)
class FaultSchedule:
    """A composition of fault events driving one simulation run.

    Events are normalized to a deterministic ``(kind, start, ...)`` sort so
    equal schedules compare and hash equal regardless of input order.  At
    most one crash event may fire per round, and partition windows must
    not overlap (two simultaneous partitions have no defined semantics).
    """

    events: Tuple[FaultEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        normalized = tuple(
            sorted(
                (
                    event
                    if isinstance(event, FaultEvent)
                    else FaultEvent(**dict(event))  # type: ignore[arg-type]
                    for event in self.events
                ),
                key=lambda e: (
                    e.kind,
                    e.start,
                    e.rounds,
                    e.rate,
                    e.count,
                    e.groups,
                    e.replica,
                ),
            )
        )
        crash_rounds = [e.start for e in normalized if e.kind == "crash"]
        if len(crash_rounds) != len(set(crash_rounds)):
            raise ValueError("at most one crash event per round")
        partitions = [e for e in normalized if e.kind == "partition"]
        for i, left in enumerate(partitions):
            for right in partitions[i + 1 :]:
                if left.window.overlaps(right.window):
                    raise ValueError("partition windows must not overlap")
        object.__setattr__(self, "events", normalized)

    @property
    def is_trivial(self) -> bool:
        """Whether the schedule injects nothing (and so draws nothing)."""
        return not self.events

    def replica_down(self, round_index: int, replica: int) -> bool:
        """Whether an outage covering ``round_index`` hits ``replica``.

        An event with ``replica=-1`` hits every replica; otherwise only
        its own index.
        """
        return any(
            e.kind == "outage"
            and e.replica in (-1, replica)
            and e.window.covers(round_index)
            for e in self.events
        )

    def tracker_down(self, round_index: int) -> bool:
        """Whether replica 0 -- the sole tracker of an unreplicated swarm --
        is inside an outage window at ``round_index``."""
        return self.replica_down(round_index, 0)

    @property
    def max_targeted_replica(self) -> int:
        """Highest replica index named by an outage event (0 if none).

        The resilience layer validates this against the announce-list
        length: targeting replica 2 of a 2-replica set is a config error,
        not a silently dead event.
        """
        return max(
            (e.replica for e in self.events if e.kind == "outage"), default=0
        )

    def loss_rate(self, round_index: int) -> float:
        """Combined drop probability of the loss windows covering the round.

        Overlapping loss events compose independently:
        ``1 - prod(1 - rate_i)``.
        """
        keep = 1.0
        for event in self.events:
            if event.kind == "loss" and event.window.covers(round_index):
                keep *= 1.0 - event.rate
        return 1.0 - keep

    def crash_event(self, round_index: int) -> Optional[FaultEvent]:
        """The crash event firing exactly at ``round_index``, if any."""
        for event in self.events:
            if event.kind == "crash" and event.start == round_index:
                return event
        return None

    def partition_event(self, round_index: int) -> Optional[FaultEvent]:
        """The partition window covering ``round_index``, if any."""
        for event in self.events:
            if event.kind == "partition" and event.window.covers(round_index):
                return event
        return None


class FaultRuntime:
    """Mutable per-run fault bookkeeping of the swarm's round protocol.

    All state is keyed by 1-based peer id.  The protocol
    (:class:`~repro.bittorrent.swarm.SwarmSimulator`) calls the mutating
    methods at the pinned points documented in ``docs/faults.md``; every
    method is deterministic given its inputs.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.active = not schedule.is_trivial
        # pid -> (next retry round, failed attempts so far)
        self._pending_announces: Dict[int, Tuple[int, int]] = {}
        self._pending_completions: List[int] = []
        self._pending_departs: List[int] = []
        self._rejoin_due: Dict[int, List[int]] = {}
        self._partition_groups: Dict[int, int] = {}

    # -- round lifecycle ----------------------------------------------------------

    def begin_round(self, round_index: int) -> None:
        """Reset window-scoped state; call at the top of membership processing."""
        if self._partition_groups and self.schedule.partition_event(round_index) is None:
            self._partition_groups.clear()

    def tracker_up(self, round_index: int, replicas: int = 1) -> bool:
        """Whether any of ``replicas`` tracker replicas is reachable.

        With the default single replica this is the pre-replication
        behaviour: down exactly when an outage window covers the round.
        A replicated announce list only goes dark when every replica is
        inside an outage window at once.
        """
        return any(
            not self.schedule.replica_down(round_index, r)
            for r in range(max(1, replicas))
        )

    def blocks_early_exit(self, round_index: int) -> bool:
        """Whether unresolved fault state must keep the round loop running.

        Queued announces, scheduled rejoins and deferred tracker
        notifications all represent work the run has promised to do;
        exiting early would make termination depend on engine-internal
        completion timing instead of the schedule.
        """
        return bool(
            self._pending_announces
            or self._pending_completions
            or self._pending_departs
            or self._rejoin_due
        )

    # -- deferred tracker notifications -------------------------------------------

    def defer_completion(self, pid: int) -> None:
        """Queue a ``completed`` tracker event until the outage lifts."""
        self._pending_completions.append(pid)

    def defer_depart(self, pid: int) -> None:
        """Queue a ``stopped`` tracker event until the outage lifts."""
        self._pending_departs.append(pid)

    def drain_deferred(self) -> Tuple[List[int], List[int]]:
        """Pop ``(completions, departs)`` queued during the outage, sorted.

        Completions come first: a recovering client delivers its
        ``completed`` event before its ``stopped`` event, so a peer that
        finished and then left mid-outage still counts as a snatch.
        """
        completions = sorted(self._pending_completions)
        departs = sorted(self._pending_departs)
        self._pending_completions = []
        self._pending_departs = []
        return completions, departs

    # -- announce retry/backoff ---------------------------------------------------

    def queue_announce(self, pid: int, round_index: int) -> None:
        """Queue a failed (or outage-suppressed) announce for retry."""
        self._pending_announces[pid] = (next_retry_round(round_index, 0), 0)

    def announces_due(self, round_index: int) -> List[int]:
        """Peers whose queued announce retries this round, sorted by pid."""
        return sorted(
            pid
            for pid, (retry_round, _) in self._pending_announces.items()
            if retry_round <= round_index
        )

    def reschedule_announce(self, pid: int, round_index: int) -> None:
        """Back off a retry that found the tracker still down."""
        _, attempts = self._pending_announces[pid]
        attempts += 1
        self._pending_announces[pid] = (
            next_retry_round(round_index, attempts),
            attempts,
        )

    def clear_announce(self, pid: int) -> None:
        """Drop a queued announce (delivered, or the peer is gone)."""
        self._pending_announces.pop(pid, None)

    # -- crashes and rejoins ------------------------------------------------------

    def select_crash_victims(
        self,
        round_index: int,
        candidates: Sequence[int],
        rng: np.random.Generator,
    ) -> List[int]:
        """Victims of the crash event firing this round (sorted pids).

        Consumes exactly one ``rng.choice`` batch over ``candidates`` when
        a crash fires and candidates exist, nothing otherwise.
        ``candidates`` must be the sorted alive non-seed pids -- both
        engines build that list identically.  Victims with a rejoin delay
        are scheduled automatically.
        """
        event = self.schedule.crash_event(round_index)
        if event is None or not candidates:
            return []
        count = min(event.count, len(candidates))
        indices = rng.choice(len(candidates), size=count, replace=False)
        victims = sorted(int(candidates[int(i)]) for i in indices)
        if event.rejoin_after > 0:
            due = round_index + event.rejoin_after
            self._rejoin_due.setdefault(due, []).extend(victims)
        return victims

    def rejoins_due(self, round_index: int) -> List[int]:
        """Pop the pids rejoining this round, sorted."""
        return sorted(self._rejoin_due.pop(round_index, []))

    # -- partitions ---------------------------------------------------------------

    def partition_active(self, round_index: int) -> bool:
        """Whether a partition window covers this round."""
        return self.schedule.partition_event(round_index) is not None

    def assign_missing_groups(
        self,
        round_index: int,
        pids: Sequence[int],
        rng: np.random.Generator,
    ) -> None:
        """Assign partition sides to peers that do not have one yet.

        Called at the end of membership processing on every round of a
        partition window with the sorted alive pids: the first round
        assigns everybody, later rounds only the round's arrivals and
        rejoiners.  One ``rng.integers`` batch per round with unassigned
        peers.
        """
        event = self.schedule.partition_event(round_index)
        if event is None:
            return
        missing = [pid for pid in pids if pid not in self._partition_groups]
        if not missing:
            return
        sides = rng.integers(0, event.groups, size=len(missing))
        for pid, side in zip(missing, sides):
            self._partition_groups[pid] = int(side)

    # -- transfer filtering -------------------------------------------------------

    def dropped_pairs(
        self,
        round_index: int,
        pairs: Sequence[Tuple[int, int]],
        rng: np.random.Generator,
    ) -> Set[Tuple[int, int]]:
        """The planned ``(sender, receiver)`` pid pairs lost this round.

        Partition drops are deterministic (endpoints on different sides);
        loss draws one ``rng.random(len(pairs))`` batch whenever a loss
        window covers the round and pairs exist -- independent of the
        partition outcome, so stream consumption never depends on which
        transfers the partition already killed.  ``pairs`` must be sorted.
        """
        dropped: Set[Tuple[int, int]] = set()
        if not pairs:
            return dropped
        if self.partition_active(round_index):
            groups = self._partition_groups
            for sender, receiver in pairs:
                if groups.get(sender, -1) != groups.get(receiver, -1):
                    dropped.add((sender, receiver))
        rate = self.schedule.loss_rate(round_index)
        if rate > 0.0:
            draws = rng.random(len(pairs))
            for k in np.nonzero(draws < rate)[0]:
                dropped.add(pairs[k])
        return dropped


# Named schedules reachable from the CLI (`--faults`) and the experiment
# drivers; make_faults also parses ad-hoc "kind:params,..." specs.
_FAULT_PRESETS: Dict[str, FaultSchedule] = {
    "reliable": FaultSchedule(),
    "outage-midrun": FaultSchedule(
        (FaultEvent("outage", start=20, rounds=5),)
    ),
    "lossy": FaultSchedule((FaultEvent("loss", rate=0.05, rounds=0),)),
    "flaky-peers": FaultSchedule(
        (
            FaultEvent("crash", start=10, count=5, rejoin_after=5),
            FaultEvent("loss", rate=0.02, rounds=0),
        )
    ),
    "split-brain": FaultSchedule(
        (FaultEvent("partition", start=10, rounds=5, groups=2),)
    ),
}

FAULT_PRESET_NAMES = tuple(sorted(_FAULT_PRESETS))


def _parse_window(value: str) -> Tuple[int, int]:
    """Parse ``START+ROUNDS`` (``+ROUNDS`` optional, default 1)."""
    start_text, plus, rounds_text = value.partition("+")
    try:
        start = int(start_text)
        rounds = int(rounds_text) if plus else 1
    except ValueError:
        raise ValueError(f"bad fault window '{value}'") from None
    return start, rounds


def _iter_spec_tokens(spec: str):
    """Yield ``(ordinal, token, start_char, end_char)`` per non-empty token.

    Character positions index into the *original* spec string (0-based,
    end exclusive), so an error can point at exactly the slice the user
    typed, commas and surrounding whitespace excluded.
    """
    offset = 0
    ordinal = 0
    for raw in spec.split(","):
        stripped = raw.strip()
        if stripped:
            ordinal += 1
            start = offset + (len(raw) - len(raw.lstrip()))
            yield ordinal, stripped, start, start + len(stripped)
        offset += len(raw) + 1  # the token plus the comma it lost


def _parse_one_fault(token: str) -> FaultEvent:
    """Parse a single ``kind:params`` token (positions added by the caller)."""
    if ":" not in token:
        raise ValueError(
            "expected kind:params, e.g. outage:20+5, loss:0.05, "
            "crash:10@8~4, partition:10+5/2"
        )
    kind, _, value = token.partition(":")
    kind = kind.strip()
    value = value.strip()
    if kind == "outage":
        window_text, slash, replica_text = value.partition("/")
        start, rounds = _parse_window(window_text)
        replica = 0
        if slash:
            replica_text = replica_text.strip()
            if replica_text == "all":
                replica = -1
            else:
                try:
                    replica = int(replica_text)
                except ValueError:
                    raise ValueError(
                        f"bad outage replica '{replica_text}' "
                        f"(expected an integer or 'all')"
                    ) from None
        return FaultEvent("outage", start=start, rounds=rounds, replica=replica)
    if kind == "loss":
        rate_text, at, window_text = value.partition("@")
        try:
            rate = float(rate_text)
        except ValueError:
            raise ValueError(f"bad loss rate '{rate_text}'") from None
        start, rounds = _parse_window(window_text) if at else (1, 0)
        return FaultEvent("loss", start=start, rounds=rounds, rate=rate)
    if kind == "crash":
        count_text, at, rest = value.partition("@")
        if not at:
            raise ValueError("expected crash:COUNT@ROUND[~REJOIN]")
        round_text, tilde, rejoin_text = rest.partition("~")
        try:
            count = int(count_text)
            start = int(round_text)
            rejoin_after = int(rejoin_text) if tilde else 0
        except ValueError:
            raise ValueError(
                f"bad crash parameters '{value}' "
                f"(expected crash:COUNT@ROUND[~REJOIN])"
            ) from None
        return FaultEvent(
            "crash", start=start, count=count, rejoin_after=rejoin_after
        )
    if kind == "partition":
        window_text, slash, groups_text = value.partition("/")
        start, rounds = _parse_window(window_text)
        try:
            groups = int(groups_text) if slash else 2
        except ValueError:
            raise ValueError(
                f"bad partition group count '{groups_text}'"
            ) from None
        return FaultEvent("partition", start=start, rounds=rounds, groups=groups)
    raise ValueError(
        f"unknown fault kind '{kind}' (available: {', '.join(FAULT_KINDS)})"
    )


def _parse_faults_spec(spec: str) -> FaultSchedule:
    """Parse a comma list of fault tokens into a :class:`FaultSchedule`.

    Grammar (all round numbers 1-based)::

        outage:START+ROUNDS          tracker (replica 0) down for the window
        outage:START+ROUNDS/R        replica R of a replicated set down
        outage:START+ROUNDS/all      every replica down
        loss:RATE                    open-ended loss at RATE
        loss:RATE@START+ROUNDS       loss limited to a window
        crash:COUNT@ROUND            COUNT peers crash at ROUND, no rejoin
        crash:COUNT@ROUND~REJOIN     ... rejoining REJOIN rounds later
        partition:START+ROUNDS       2-way partition for the window
        partition:START+ROUNDS/G     G-way partition

    A malformed token raises a :class:`ValueError` naming the token, its
    1-based ordinal and its character span in the spec string, so a typo
    in a long composite spec is locatable without bisecting it.
    """
    events: List[FaultEvent] = []
    for ordinal, token, start_char, end_char in _iter_spec_tokens(spec):
        try:
            events.append(_parse_one_fault(token))
        except ValueError as exc:
            raise ValueError(
                f"fault spec error in token {ordinal} ('{token}', "
                f"chars {start_char}-{end_char}): {exc}"
            ) from None
    return FaultSchedule(tuple(events))


def make_faults(spec: str) -> FaultSchedule:
    """Build a :class:`FaultSchedule` from a preset name or a spec string.

    ``spec`` is either one of :data:`FAULT_PRESET_NAMES` or a comma list
    of fault tokens (see :func:`_parse_faults_spec` for the grammar), e.g.
    ``"outage:20+5"`` or ``"loss:0.05,crash:10@8~4,partition:12+3/2"``.
    Unknown preset and kind names raise with the list of valid names.
    """
    if spec in _FAULT_PRESETS:
        return _FAULT_PRESETS[spec]
    if ":" not in spec:
        raise ValueError(
            f"unknown fault preset '{spec}' "
            f"(available: {', '.join(FAULT_PRESET_NAMES)}; or pass a "
            f"'kind:params,...' spec)"
        )
    return _parse_faults_spec(spec)


def resolve_faults(faults: Union["FaultSchedule", str, None]) -> FaultSchedule:
    """Normalize a ``faults=`` argument to a :class:`FaultSchedule`.

    Accepts a schedule, a preset name / spec string, or ``None`` (the
    trivial no-fault schedule).
    """
    if faults is None:
        return FaultSchedule()
    if isinstance(faults, str):
        return make_faults(faults)
    if not isinstance(faults, FaultSchedule):
        raise TypeError(
            "faults must be a FaultSchedule, a preset name / spec string or None"
        )
    return faults
