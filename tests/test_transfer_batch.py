"""The transfer batch against the tuple-era round protocol it replaced.

Each round's plan used to travel through the round protocol as a list of
``(sender, receiver, kbit)`` tuples plus a set of regular pairs, and the
fault filter, the reciprocal Tit-for-Tat count and the observer's polls
walked them in Python.  That code is kept here verbatim as the oracle.  A
hypothesis property over random duplicate-free directed batches requires
the array code of :class:`~repro.bittorrent.transfers.TransferBatch` to
keep the same transfers in plan order, leave the loss generator in the
same state, count the same reciprocated pairs and report the same
partners.  The last test pins the order of ``tft_reciprocal_rounds`` on
both engines.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bittorrent.faults import FaultEvent, FaultRuntime, FaultSchedule
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator
from repro.bittorrent.telemetry import ObserverConfig, SwarmObserver
from repro.bittorrent.tracker import ScrapeStats
from repro.bittorrent.transfers import TransferBatch, split_keys
from repro.sim import streams
from repro.sim.random_source import RandomSource

Transfer = Tuple[int, int, float]


# -- the tuple-era code, verbatim ------------------------------------------------


class TupleFaultRuntime(FaultRuntime):
    """The fault runtime with its tuple-era partition sides and loss filter."""

    def __init__(self, schedule: FaultSchedule) -> None:
        super().__init__(schedule)
        self._partition_groups: Dict[int, int] = {}

    def begin_round(self, round_index: int) -> None:
        if self._partition_groups and self.schedule.partition_event(round_index) is None:
            self._partition_groups.clear()

    def assign_missing_groups(
        self,
        round_index: int,
        pids: Sequence[int],
        rng: np.random.Generator,
    ) -> None:
        event = self.schedule.partition_event(round_index)
        if event is None:
            return
        missing = [pid for pid in pids if pid not in self._partition_groups]
        if not missing:
            return
        sides = rng.integers(0, event.groups, size=len(missing))
        for pid, side in zip(missing, sides):
            self._partition_groups[pid] = int(side)

    def dropped_pairs(
        self,
        round_index: int,
        pairs: Sequence[Tuple[int, int]],
        rng: np.random.Generator,
    ) -> Set[Tuple[int, int]]:
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


def tuple_filter_faulty_transfers(
    self, transfers: List[Transfer], round_index: int
) -> List[Transfer]:
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


def tuple_record_reciprocal_tft(
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


def tuple_poll_partners(regular_pairs: Set[Tuple[int, int]], pid: int) -> Tuple[int, ...]:
    """The reciprocal loop of the tuple-era ``SwarmObserver._poll``, for one peer."""
    reciprocal: Dict[int, List[int]] = {}
    for a, b in regular_pairs:
        if a < b and (b, a) in regular_pairs:
            reciprocal.setdefault(a, []).append(b)
            reciprocal.setdefault(b, []).append(a)
    return tuple(sorted(reciprocal.get(pid, ())))


# -- the property ------------------------------------------------------------------


def _batch(transfers: List[Transfer], regular: List[bool]) -> TransferBatch:
    return TransferBatch(
        np.array([sender for sender, _, _ in transfers], dtype=np.int64),
        np.array([receiver for _, receiver, _ in transfers], dtype=np.int64),
        np.array([kbit for _, _, kbit in transfers], dtype=np.float64),
        np.array(regular, dtype=bool),
    )


def _rows(batch: TransferBatch) -> List[Transfer]:
    return list(zip(batch.senders.tolist(), batch.receivers.tolist(), batch.kbit.tolist()))


def _protocol(faults: FaultRuntime, seed: int, warmup: int) -> SimpleNamespace:
    """What the protocol's fault filter and TFT count read from their simulator."""
    return SimpleNamespace(
        _faults=faults,
        source=RandomSource(seed),
        config=SimpleNamespace(warmup_rounds=warmup),
    )


class _View:
    """The observer's view of a swarm whose peers ``1..n`` are all present."""

    piece_count = 10
    piece_size_kbit = 256.0
    round_seconds = 10.0

    def __init__(self, n: int) -> None:
        self.source = RandomSource(0)
        self._n = n

    def scrape(self) -> ScrapeStats:
        return ScrapeStats(seeders=0, leechers=self._n, snatches=0)

    def known_peers(self) -> List[int]:
        return list(range(1, self._n + 1))

    def progress(self, peer_id: int) -> float:
        return 0.5


@st.composite
def _rounds(draw):
    """A duplicate-free directed batch in random plan order, and its round's faults."""
    n = draw(st.integers(2, 8))
    ordered = [(s, t) for s in range(1, n + 1) for t in range(1, n + 1) if s != t]
    pairs = draw(st.permutations(ordered))[: draw(st.integers(0, len(ordered)))]
    # Reverse some pairs into the batch as well, so reciprocation is common.
    reversed_too = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    present = set(pairs)
    for (s, t), flip in zip(list(pairs), reversed_too):
        if flip and (t, s) not in present:
            pairs.append((t, s))
            present.add((t, s))
    kbits = draw(st.lists(st.floats(0.0, 1e6), min_size=len(pairs), max_size=len(pairs)))
    regular = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    transfers = [(s, t, kbit) for (s, t), kbit in zip(pairs, kbits)]
    events = []
    groups = draw(st.none() | st.integers(2, 3))
    if groups is not None:
        events.append(
            FaultEvent("partition", start=draw(st.integers(1, 3)), rounds=3, groups=groups)
        )
    rate = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 1.0))
    if rate > 0.0:
        events.append(FaultEvent("loss", rate=rate, start=draw(st.integers(1, 3)), rounds=3))
    # Peers that join later have no side: the sides go to a subset only.
    assigned = draw(st.lists(st.integers(1, n), unique=True))
    return dict(
        n=n,
        transfers=transfers,
        regular=regular,
        schedule=FaultSchedule(tuple(events)),
        assigned=assigned,
        round_index=draw(st.integers(1, 6)),
        warmup=draw(st.integers(0, 5)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(_rounds())
def test_the_batch_code_agrees_with_the_tuple_code(case):
    round_index, seed = case["round_index"], case["seed"]
    transfers, regular = case["transfers"], case["regular"]
    batch = _batch(transfers, regular)
    regular_pairs = {(s, t) for (s, t, _), granted in zip(transfers, regular) if granted}

    old = _protocol(TupleFaultRuntime(case["schedule"]), seed, case["warmup"])
    new = _protocol(FaultRuntime(case["schedule"]), seed, case["warmup"])
    for protocol in (old, new):
        protocol._faults.begin_round(round_index)
        protocol._faults.assign_missing_groups(
            round_index, case["assigned"], np.random.default_rng(seed)
        )
    kept = SwarmSimulator._filter_faulty_transfers(new, batch, round_index)
    assert _rows(kept) == tuple_filter_faulty_transfers(old, transfers, round_index)
    assert (
        new.source.stream(streams.FAULT_LOSS).bit_generator.state
        == old.source.stream(streams.FAULT_LOSS).bit_generator.state
    )

    old_counts: Dict[Tuple[int, int], float] = {}
    new_counts: Dict[int, float] = {}
    for later in (0, 1):
        tuple_record_reciprocal_tft(old, regular_pairs, old_counts, round_index + later)
        SwarmSimulator._record_reciprocal_tft(new, batch, new_counts, round_index + later)
    low, high = split_keys(np.array(list(new_counts), dtype=np.int64))
    assert dict(zip(zip(low.tolist(), high.tolist()), new_counts.values())) == old_counts

    observer = SwarmObserver(ObserverConfig(poll_interval=1))
    observer.begin_run(_View(case["n"]))
    observer.observe_round(1, batch)
    observed = observer.finish(1)
    assert sorted(observed.timelines) == list(range(1, case["n"] + 1))
    for pid, (sample,) in observed.timelines.items():
        assert sample.partners == tuple_poll_partners(regular_pairs, pid)


# -- the order of tft_reciprocal_rounds ---------------------------------------------


def _first_reciprocations(batches: List[Tuple[int, TransferBatch]], warmup: int):
    """Each reciprocated pair's (round, lower pid, its slot), read off the planned batches."""
    first: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    for round_index, batch in batches:
        if round_index <= warmup:
            continue
        slots: Dict[int, int] = {}
        grants: Dict[Tuple[int, int], int] = {}
        for sender, target, granted in zip(
            batch.senders.tolist(), batch.receivers.tolist(), batch.regular.tolist()
        ):
            slot = slots[sender] = slots.get(sender, -1) + 1
            if granted:
                grants[(sender, target)] = slot
        for (sender, target), slot in grants.items():
            if sender < target and (target, sender) in grants:
                first.setdefault((sender, target), (round_index, sender, slot))
    return first


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_tft_pairs_go_in_by_first_round_then_lower_pid_then_its_slot(engine):
    config = SwarmConfig(
        leechers=30, seeds=2, piece_count=120, rounds=14, warmup_rounds=3, announce_size=8
    )
    simulator = SwarmSimulator(config, seed=5, engine=engine, scenario="poisson")
    plan, batches = simulator._plan_round, []

    def recorded_plan(rng):
        batch = plan(rng)
        batches.append((len(batches) + 1, batch))
        return batch

    simulator._plan_round = recorded_plan
    result = simulator.run()
    first = _first_reciprocations(batches, config.warmup_rounds)
    assert len({round_index for round_index, _, _ in first.values()}) > 1
    assert list(result.tft_reciprocal_rounds) == sorted(first, key=first.__getitem__)
