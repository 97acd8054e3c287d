"""Tests for the metric recorder and result tables."""

from __future__ import annotations

import pytest

from repro.sim.recorder import MetricRecorder, TimeSeries
from repro.sim.results import ResultTable, aggregate


class TestTimeSeries:
    def test_append_and_arrays(self):
        series = TimeSeries("disorder")
        series.append(0.0, 1.0)
        series.append(1.0, 0.5)
        times, values = series.as_arrays()
        assert times.tolist() == [0.0, 1.0]
        assert values.tolist() == [1.0, 0.5]

    def test_rejects_out_of_order_times(self):
        series = TimeSeries("x")
        series.append(2.0, 1.0)
        with pytest.raises(ValueError):
            series.append(1.0, 1.0)

    def test_value_at(self):
        series = TimeSeries("x")
        series.append(0.0, 10.0)
        series.append(5.0, 20.0)
        assert series.value_at(3.0) == 10.0
        assert series.value_at(5.0) == 20.0
        with pytest.raises(ValueError):
            series.value_at(-1.0)

    def test_first_time_below(self):
        series = TimeSeries("x")
        for t, v in [(0, 1.0), (1, 0.6), (2, 0.1), (3, 0.05)]:
            series.append(t, v)
        assert series.first_time_below(0.5) == 2
        assert series.first_time_below(0.001) is None

    def test_tail_mean(self):
        series = TimeSeries("x")
        for t in range(10):
            series.append(t, float(t))
        assert series.tail_mean(0.2) == pytest.approx(8.5)

    def test_statistics_on_empty_series_raise(self):
        series = TimeSeries("x")
        with pytest.raises(ValueError):
            series.last()
        with pytest.raises(ValueError):
            series.max()
        with pytest.raises(ValueError):
            series.min()
        with pytest.raises(ValueError):
            series.value_at(0.0)
        with pytest.raises(ValueError):
            series.tail_mean()

    def test_min_and_windowed_mean(self):
        series = TimeSeries("x")
        for t, v in [(0, 4.0), (1, 1.0), (2, 3.0), (3, 2.0)]:
            series.append(t, v)
        assert series.min() == 1.0
        assert series.mean() == pytest.approx(2.5)
        assert series.mean(after=1.0) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            series.mean(after=3.0)

    def test_length_and_iteration(self):
        series = TimeSeries("x")
        series.append(0.0, 1.0)
        series.append(2.0, 3.0)
        assert len(series) == 2
        assert list(series) == [(0.0, 1.0), (2.0, 3.0)]

    def test_equal_times_allowed(self):
        # Non-decreasing, not strictly increasing: co-scheduled samples
        # (a scrape and a poll in the same round) share a timestamp.
        series = TimeSeries("x")
        series.append(1.0, 1.0)
        series.append(1.0, 2.0)
        assert series.value_at(1.0) == 2.0

    def test_tail_mean_rejects_bad_fraction(self):
        series = TimeSeries("x")
        series.append(0.0, 1.0)
        with pytest.raises(ValueError):
            series.tail_mean(0.0)
        with pytest.raises(ValueError):
            series.tail_mean(1.5)


class TestMetricRecorder:
    def test_record_and_lookup(self):
        recorder = MetricRecorder()
        recorder.record("a", 0.0, 1.0)
        recorder.record("a", 1.0, 2.0)
        assert recorder["a"].last() == 2.0
        assert "a" in recorder
        with pytest.raises(KeyError):
            recorder["missing"]

    def test_record_many(self):
        recorder = MetricRecorder()
        recorder.record_many(0.0, {"a": 1.0, "b": 2.0})
        assert recorder.names() == ["a", "b"]

    def test_merge_with_prefix(self):
        first = MetricRecorder()
        first.record("a", 0.0, 1.0)
        second = MetricRecorder()
        second.merge(first, prefix="run0/")
        assert second.names() == ["run0/a"]

    def test_summary(self):
        recorder = MetricRecorder()
        for t, v in enumerate([1.0, 3.0, 2.0]):
            recorder.record("m", float(t), v)
        summary = recorder.summary()["m"]
        assert summary["count"] == 3
        assert summary["max"] == 3.0
        assert summary["last"] == 2.0

    def test_summary_skips_empty_series(self):
        recorder = MetricRecorder()
        recorder.series("created-but-never-sampled")
        recorder.record("m", 0.0, 1.0)
        assert set(recorder.summary()) == {"m"}
        assert recorder.names() == ["created-but-never-sampled", "m"]

    def test_merge_preserves_time_order_check(self):
        first = MetricRecorder()
        first.record("a", 5.0, 1.0)
        second = MetricRecorder()
        second.record("a", 9.0, 2.0)
        # Merging without a prefix appends onto the existing series, so
        # the out-of-order guard still applies.
        with pytest.raises(ValueError):
            second.merge(first)
        first.record("a", 10.0, 3.0)
        third = MetricRecorder()
        third.record("a", 1.0, 0.0)
        third.merge(first, prefix="obs/")
        assert third["obs/a"].last() == 3.0
        assert third["a"].last() == 0.0

    def test_observer_recorder_round_trip(self):
        # The telemetry layer streams its campaign into a recorder; make
        # sure the streaming paths it relies on behave over that shape.
        from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator
        from repro.bittorrent.telemetry import ObserverConfig

        config = SwarmConfig(
            leechers=8, seeds=1, piece_count=16, rounds=6, start_completion=0.3
        )
        result = SwarmSimulator(
            config, seed=2, observer=ObserverConfig(poll_interval=2)
        ).run()
        recorder = result.observed.to_recorder()
        seeders = recorder["scrape/seeders"]
        assert len(seeders) == len(result.observed.scrapes)
        assert seeders.min() >= 0.0
        assert recorder["poll/peers_polled"].max() <= config.leechers + config.seeds
        merged = MetricRecorder()
        merged.merge(recorder, prefix="obs/")
        assert "obs/scrape/snatches" in merged
        assert merged.summary()["obs/scrape/snatches"]["last"] == float(
            result.observed.reported_downloads()
        )


class TestResultTable:
    def test_add_row_and_render(self):
        table = ResultTable("demo", ["a", "b"])
        table.add_row(a=1, b=2.5)
        text = table.to_text()
        assert "demo" in text
        assert "2.5" in text

    def test_unknown_column_rejected(self):
        table = ResultTable("demo", ["a"])
        with pytest.raises(KeyError):
            table.add_row(z=1)

    def test_column_and_sort(self):
        table = ResultTable("demo", ["a"])
        table.add_row(a=3)
        table.add_row(a=1)
        table.sort_by("a")
        assert table.column("a") == [1, 3]

    def test_aggregate(self):
        stats = aggregate([1.0, 2.0, 3.0], ["mean", "min", "max", "median", "count"])
        assert stats["mean"] == 2.0
        assert stats["count"] == 3

    def test_aggregate_rejects_empty_and_unknown(self):
        with pytest.raises(ValueError):
            aggregate([])
        with pytest.raises(KeyError):
            aggregate([1.0], ["mode"])
