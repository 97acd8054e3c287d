"""Unit tests for the fault primitives: windows, backoff, schedules, specs.

Engine integration (bit-identical faulty runs) lives in
``test_swarm_engine_equivalence.py``; telemetry-under-faults in
``test_telemetry.py``.  This file covers the pure pieces: the round
windows and deterministic backoff of ``repro.sim.faults``, and the
event validation, schedule composition and spec grammar of
``repro.bittorrent.faults``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bittorrent.faults import (
    FAULT_PRESET_NAMES,
    FaultEvent,
    FaultRuntime,
    FaultSchedule,
    make_faults,
    resolve_faults,
)
from repro.bittorrent.transfers import pair_keys
from repro.sim.faults import (
    BACKOFF_CAP,
    RoundWindow,
    backoff_delay,
    next_retry_round,
)


class TestRoundWindow:
    def test_half_open_coverage(self):
        window = RoundWindow(start=3, rounds=2)
        assert [r for r in range(1, 8) if window.covers(r)] == [3, 4]
        assert window.end == 4

    def test_open_ended(self):
        window = RoundWindow(start=5, rounds=0)
        assert not window.covers(4)
        assert window.covers(5) and window.covers(10_000)
        assert window.end is None

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RoundWindow(start=0)
        with pytest.raises(ValueError):
            RoundWindow(start=1, rounds=-1)

    def test_overlap(self):
        assert RoundWindow(3, 2).overlaps(RoundWindow(4, 2))
        assert not RoundWindow(3, 2).overlaps(RoundWindow(5, 2))
        assert RoundWindow(3, 0).overlaps(RoundWindow(100, 1))
        assert not RoundWindow(100, 0).overlaps(RoundWindow(3, 2))


class TestBackoff:
    def test_doubles_then_saturates(self):
        delays = [backoff_delay(a) for a in range(6)]
        assert delays == [1, 2, 4, 8, 8, 8]
        assert backoff_delay(10_000) == BACKOFF_CAP  # no bigint blowup

    def test_next_retry_round(self):
        assert next_retry_round(7, 0) == 8
        assert next_retry_round(7, 2) == 11

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            backoff_delay(-1)
        with pytest.raises(ValueError):
            backoff_delay(0, base=0)
        with pytest.raises(ValueError):
            backoff_delay(0, base=4, cap=2)


class TestFaultEventValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meteor")

    def test_loss_rate_bounds(self):
        FaultEvent("loss", rate=1.0, rounds=0)
        with pytest.raises(ValueError, match="loss rate"):
            FaultEvent("loss", rate=0.0)
        with pytest.raises(ValueError, match="loss rate"):
            FaultEvent("loss", rate=1.5)
        with pytest.raises(ValueError, match="rate only applies"):
            FaultEvent("outage", rate=0.5)

    def test_crash_constraints(self):
        with pytest.raises(ValueError, match="crash count"):
            FaultEvent("crash", start=5)
        with pytest.raises(ValueError, match="instantaneous"):
            FaultEvent("crash", start=5, count=2, rounds=3)
        with pytest.raises(ValueError, match="only apply to crash"):
            FaultEvent("loss", rate=0.1, count=3)

    def test_partition_groups(self):
        with pytest.raises(ValueError, match="groups"):
            FaultEvent("partition", groups=1)


class TestFaultSchedule:
    def test_normalized_order_makes_equal_schedules_equal(self):
        a = FaultSchedule((
            FaultEvent("loss", rate=0.1, rounds=0),
            FaultEvent("outage", start=3, rounds=2),
        ))
        b = FaultSchedule((
            FaultEvent("outage", start=3, rounds=2),
            FaultEvent("loss", rate=0.1, rounds=0),
        ))
        assert a == b and hash(a) == hash(b)

    def test_one_crash_per_round(self):
        with pytest.raises(ValueError, match="one crash event per round"):
            FaultSchedule((
                FaultEvent("crash", start=5, count=1),
                FaultEvent("crash", start=5, count=2),
            ))
        # Different rounds are fine.
        FaultSchedule((
            FaultEvent("crash", start=5, count=1),
            FaultEvent("crash", start=6, count=2),
        ))

    def test_partitions_must_not_overlap(self):
        with pytest.raises(ValueError, match="must not overlap"):
            FaultSchedule((
                FaultEvent("partition", start=3, rounds=4),
                FaultEvent("partition", start=5, rounds=2),
            ))

    def test_overlapping_loss_composes_independently(self):
        schedule = FaultSchedule((
            FaultEvent("loss", rate=0.5, start=1, rounds=0),
            FaultEvent("loss", rate=0.5, start=3, rounds=2),
        ))
        assert schedule.loss_rate(2) == pytest.approx(0.5)
        assert schedule.loss_rate(3) == pytest.approx(0.75)
        assert schedule.loss_rate(5) == pytest.approx(0.5)

    def test_round_queries(self):
        schedule = make_faults("outage:3+2,crash:5@4~2,partition:7+2/3")
        assert [r for r in range(1, 7) if schedule.replica_down(r, 0)] == [3, 4]
        assert schedule.crash_event(4).count == 5
        assert schedule.crash_event(5) is None
        assert schedule.partition_event(8).groups == 3
        assert schedule.partition_event(9) is None
        assert not schedule.is_trivial
        assert FaultSchedule().is_trivial


class TestSpecGrammar:
    def test_presets_resolve(self):
        for name in FAULT_PRESET_NAMES:
            schedule = make_faults(name)
            assert isinstance(schedule, FaultSchedule)
        assert make_faults("reliable").is_trivial

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("outage:20+5", FaultEvent("outage", start=20, rounds=5)),
            ("outage:20", FaultEvent("outage", start=20, rounds=1)),
            ("loss:0.05", FaultEvent("loss", rate=0.05, rounds=0)),
            ("loss:0.05@3+4", FaultEvent("loss", rate=0.05, start=3, rounds=4)),
            ("crash:10@8", FaultEvent("crash", start=8, count=10)),
            (
                "crash:10@8~4",
                FaultEvent("crash", start=8, count=10, rejoin_after=4),
            ),
            ("partition:10+5", FaultEvent("partition", start=10, rounds=5)),
            (
                "partition:10+5/3",
                FaultEvent("partition", start=10, rounds=5, groups=3),
            ),
        ],
    )
    def test_single_token_round_trips(self, spec, expected):
        assert make_faults(spec).events == (expected,)

    def test_comma_composition_and_whitespace(self):
        schedule = make_faults(" outage:3+2 , loss:0.1 ,, crash:2@5 ")
        assert {e.kind for e in schedule.events} == {"outage", "loss", "crash"}

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("chaos", "unknown fault preset"),
            ("meteor:3", "unknown fault kind"),
            ("outage", "unknown fault preset"),
            ("outage:soon", "bad fault window"),
            ("outage:3+many", "bad fault window"),
            ("loss:plenty", "bad loss rate"),
            ("crash:5", "expected crash:COUNT@ROUND"),
            ("crash:5@x", "bad crash parameters"),
            ("partition:3+2/two", "bad partition group"),
        ],
    )
    def test_bad_specs_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            make_faults(spec)

    def test_resolve_faults_normalizes(self):
        assert resolve_faults(None).is_trivial
        assert resolve_faults("reliable").is_trivial
        schedule = FaultSchedule((FaultEvent("outage", start=2),))
        assert resolve_faults(schedule) is schedule
        assert resolve_faults("outage:2") == schedule
        with pytest.raises(TypeError):
            resolve_faults(42)


class TestSpecErrorPositions:
    """Satellite: a parse error names the offending token and its position.

    The message carries the token's 1-based ordinal, its text, and its
    character span in the original spec (0-based, end-exclusive; commas
    and surrounding whitespace excluded) -- a typo in a long composite
    spec is locatable without bisecting it.  One case per malformed
    clause of the grammar.
    """

    @pytest.mark.parametrize(
        "spec, location, cause",
        [
            # Each grammar clause, malformed, as the sole token.
            ("loss:bogus", "token 1 ('loss:bogus', chars 0-10)", "bad loss rate"),
            (
                "outage:3+many",
                "token 1 ('outage:3+many', chars 0-13)",
                "bad fault window",
            ),
            (
                "outage:3+2/x",
                "token 1 ('outage:3+2/x', chars 0-12)",
                "bad outage replica",
            ),
            # Positions shift with the tokens that precede the bad one.
            (
                "outage:3+2, loss:bogus",
                "token 2 ('loss:bogus', chars 12-22)",
                "bad loss rate",
            ),
            (
                "loss:0.1,crash:5",
                "token 2 ('crash:5', chars 9-16)",
                "expected crash:COUNT@ROUND",
            ),
            (
                "loss:0.1, crash:5@x ,outage:9",
                "token 2 ('crash:5@x', chars 10-19)",
                "bad crash parameters",
            ),
            (
                "outage:3,loss:0.5,partition:3+2/two",
                "token 3 ('partition:3+2/two', chars 18-35)",
                "bad partition group",
            ),
            (
                "outage:3,meteor:9",
                "token 2 ('meteor:9', chars 9-17)",
                "unknown fault kind",
            ),
            # Empty tokens are skipped by both the ordinal and the span.
            (
                "outage:3,,  oops:1",
                "token 2 ('oops:1', chars 12-18)",
                "unknown fault kind",
            ),
        ],
    )
    def test_errors_locate_the_offending_token(self, spec, location, cause):
        with pytest.raises(ValueError) as err:
            make_faults(spec)
        message = str(err.value)
        assert location in message
        assert cause in message


class TestWindowEdgeCases:
    """Satellite: zero-length (open-ended) and overlapping fault windows."""

    def test_open_ended_outage_spec(self):
        """``+0`` parses as an open-ended window: the outage never lifts."""
        schedule = make_faults("outage:5+0")
        assert not schedule.replica_down(4, 0)
        assert schedule.replica_down(5, 0)
        assert schedule.replica_down(1_000_000, 0)
        assert schedule.events[0].window.end is None

    def test_overlapping_outage_windows_union(self):
        """Unlike partitions, outage windows may overlap; coverage unions."""
        schedule = make_faults("outage:3+4,outage:5+4")
        assert [r for r in range(1, 11) if schedule.replica_down(r, 0)] == [
            3, 4, 5, 6, 7, 8,
        ]

    def test_overlapping_windows_on_distinct_replicas(self):
        """Replica-targeted overlap only blacks out the overlap itself."""
        runtime = FaultRuntime(make_faults("outage:3+4/0,outage:5+4/1"))
        down_both = [
            r for r in range(1, 11) if not runtime.tracker_up(r, replicas=2)
        ]
        assert down_both == [5, 6]  # only where the two windows intersect
        # A single-replica reading sees the replica-0 window alone.
        assert [r for r in range(1, 11) if not runtime.tracker_up(r)] == [
            3, 4, 5, 6,
        ]

    def test_open_ended_and_windowed_loss_compose(self):
        schedule = make_faults("loss:0.5,loss:0.5@3+2")
        assert schedule.loss_rate(2) == pytest.approx(0.5)
        assert schedule.loss_rate(3) == pytest.approx(0.75)
        assert schedule.loss_rate(1_000) == pytest.approx(0.5)


class TestFaultRuntime:
    def test_deferred_notifications_drain_once(self):
        runtime = FaultRuntime(make_faults("outage:2+2"))
        runtime.defer_completion(3)
        runtime.defer_depart(3)
        runtime.defer_completion(1)
        assert runtime.drain_deferred() == ([1, 3], [3])
        assert runtime.drain_deferred() == ([], [])

    def test_announce_backoff_schedule(self):
        runtime = FaultRuntime(make_faults("outage:1+10"))
        runtime.queue_announce(7, 1)
        assert runtime.announces_due(2) == [7]
        runtime.reschedule_announce(7, 2)  # first failure: retry in 2
        assert runtime.announces_due(3) == []
        assert runtime.announces_due(4) == [7]
        runtime.clear_announce(7)
        assert runtime.announces_due(12) == []

    def test_crash_victims_deterministic_and_clamped(self):
        runtime = FaultRuntime(make_faults("crash:3@5"))
        candidates = [2, 4, 6, 8, 10]
        picked_a = runtime.select_crash_victims(
            5, candidates, np.random.default_rng(0)
        )
        picked_b = runtime.select_crash_victims(
            5, candidates, np.random.default_rng(0)
        )
        assert picked_a == picked_b
        assert len(picked_a) == 3
        assert picked_a == sorted(picked_a)
        assert set(picked_a) <= set(candidates)
        # Off-round: nothing fires, nothing is drawn.
        assert runtime.select_crash_victims(
            6, candidates, np.random.default_rng(0)
        ) == []
        # More victims requested than candidates: clamp, don't raise.
        big = FaultRuntime(make_faults("crash:99@5"))
        assert big.select_crash_victims(
            5, [1, 2], np.random.default_rng(0)
        ) == [1, 2]

    def test_partition_groups_cleared_after_window(self):
        runtime = FaultRuntime(make_faults("partition:2+2/2"))
        runtime.begin_round(2)
        runtime.assign_missing_groups(2, [1, 2, 3, 4], np.random.default_rng(1))
        assert runtime.partition_active(2)
        groups = runtime._partition_groups  # indexed by pid, -1 where unassigned
        sides = {pid: side for pid, side in enumerate(groups.tolist()) if side >= 0}
        assert set(sides) == {1, 2, 3, 4}
        assert set(sides.values()) <= {0, 1}
        # Window over: begin_round clears the assignment.
        runtime.begin_round(4)
        assert not (runtime._partition_groups >= 0).any()

    def test_backoff_exhaustion_saturates_at_the_cap(self):
        """Endless outage: retry gaps double, then pin at BACKOFF_CAP."""
        runtime = FaultRuntime(make_faults("outage:1+0"))
        runtime.queue_announce(7, 1)
        due, gaps = 2, []
        for _ in range(8):
            runtime.reschedule_announce(7, due)
            next_due, _ = runtime._pending_announces[7]
            gaps.append(next_due - due)
            due = next_due
        assert gaps == [2, 4, 8, 8, 8, 8, 8, 8]
        assert max(gaps) == BACKOFF_CAP
        # The announce is still queued: exhaustion degrades, never drops.
        assert runtime.announces_due(due) == [7]
        assert runtime.blocks_early_exit(due)

    def test_blocks_early_exit_under_open_ended_outage(self):
        """A retry that can never succeed must still pin the round loop."""
        runtime = FaultRuntime(make_faults("outage:3+0"))
        assert not runtime.blocks_early_exit(1)
        runtime.queue_announce(9, 3)
        for round_index in (4, 50, 10_000):
            assert not runtime.tracker_up(round_index)
            assert runtime.blocks_early_exit(round_index)
        runtime.clear_announce(9)  # the peer departed: nothing pending
        assert not runtime.blocks_early_exit(10_001)

    def test_dropped_pairs_loss_draw_independent_of_partition(self):
        # Identical rngs: the loss batch must be the same whether or not
        # a partition already dropped some pairs.
        pairs = pair_keys(np.array([1, 1, 2, 3]), np.array([2, 3, 3, 4]))
        loss_only = FaultRuntime(make_faults("loss:0.5"))
        both = FaultRuntime(make_faults("loss:0.5,partition:1+2/2"))
        both.begin_round(1)
        both.assign_missing_groups(1, [1, 2, 3, 4], np.random.default_rng(7))
        lost_plain = loss_only.dropped_pairs(
            1, pairs, np.random.default_rng(11)
        )
        lost_both = both.dropped_pairs(1, pairs, np.random.default_rng(11))
        assert set(lost_plain.tolist()) <= set(lost_both.tolist())  # partition only ever adds drops
