"""Tests for the figure drivers and the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro import experiments
from repro import cli
from repro.cli import build_parser, main
from repro.sim.parallel import SweepTaskError


class TestFigureDrivers:
    def test_figure1_series_structure(self):
        series = experiments.figure1_convergence(((60, 10),), max_base_units=30)
        data = series["n=60,d=10"]
        assert data["disorder"][0] > data["disorder"][-1]
        assert not np.isnan(data["time_to_converge"][0])

    def test_figure2_small_disorder_after_removal(self):
        series = experiments.figure2_peer_removal((1, 50), n=150, max_base_units=8)
        for data in series.values():
            assert float(data["max_disorder"][0]) < 0.1

    def test_figure3_churn_ordering(self):
        series = experiments.figure3_churn((0.0, 0.05), n=150, max_base_units=12)
        assert series["no churn"]["tail_disorder"][0] < series["churn=50/1000"]["tail_disorder"][0]

    def test_figure4_figure5_table(self):
        table = experiments.figure4_figure5_clusters(b0=2, n=9)
        records = table.to_records()
        assert records[0]["connected"] is False
        assert records[1]["connected"] is True

    def test_figure6_phase_transition_table(self):
        table = experiments.figure6_phase_transition(
            sigmas=[0.0, 0.3], n=3000, repetitions=1
        )
        rows = table.to_records()
        assert rows[1]["mean_cluster_size"] > 3 * rows[0]["mean_cluster_size"]

    def test_table1_columns(self):
        table = experiments.table1_clustering((2, 3), n=4000, repetitions=1)
        assert table.column("constant_cluster_size") == [3.0, 4.0]

    def test_figure7_error_grows_with_p(self):
        table = experiments.figure7_approximation_error((0.1, 0.8))
        rows = [r for r in table.to_records() if r["pair"] == "2-3"]
        assert rows[1]["error"] > rows[0]["error"]

    def test_figure8_three_regimes(self):
        stats = experiments.figure8_neighbor_distributions(n=1500, p=1.0 / 60)
        peers = sorted(stats)
        good, central, bad = peers
        assert stats[good]["asymmetry"] > 0.1
        assert abs(stats[central]["mean_offset"]) < 30
        assert stats[bad]["unmatched_probability"] > 0.02

    @pytest.mark.slow
    def test_figure9_validation_table(self):
        table = experiments.figure9_validation(n=300, p=0.08, samples=50)
        rows = table.to_records()
        assert {row["choice"] for row in rows} == {1, 2}
        assert all(row["total_variation"] < 0.35 for row in rows)

    def test_figure10_table(self):
        table = experiments.figure10_bandwidth_cdf(points=10)
        percentages = table.column("percentage_of_hosts")
        assert percentages == sorted(percentages)

    def test_figure11_observations(self):
        result = experiments.figure11_efficiency(n=300)
        obs = result["observations"]
        assert obs["best_peer_efficiency"] < 1.0
        assert obs["max_efficiency"] > 1.0

    def test_swarm_experiment_metrics(self):
        metrics = experiments.swarm_stratification_experiment(
            leechers=25, rounds=60, piece_count=400, seed=4
        )
        assert metrics["completed"] <= 25
        assert -1.0 <= metrics["stratification_index"] <= 1.0
        assert metrics["arrivals"] == 0.0 and metrics["departures"] == 0.0
        assert metrics["final_swarm_size"] == 27.0  # 25 leechers + 2 seeds

    def test_swarm_experiment_with_scenario(self):
        metrics = experiments.swarm_stratification_experiment(
            leechers=15, rounds=25, piece_count=60, seed=4, scenario="poisson"
        )
        assert metrics["arrivals"] > 0
        assert metrics["completed"] > 0

    def test_scenario_timeline_is_prefix_consistent(self):
        """Later checkpoints extend earlier ones exactly (same seed)."""
        series = experiments.scenario_stratification_timeline(
            leechers=12,
            piece_count=40,
            seed=6,
            scenario="seed-linger",
            checkpoints=(4, 8),
        )
        (label, data), = series.items()
        assert label == "scenario=seed-linger"
        assert data["rounds"].tolist() == [4.0, 8.0]
        # Membership only ever grows along a prefix re-run.
        assert data["arrivals"][1] >= data["arrivals"][0]
        assert data["departures"][1] >= data["departures"][0]
        short = experiments.scenario_stratification_timeline(
            leechers=12,
            piece_count=40,
            seed=6,
            scenario="seed-linger",
            checkpoints=(4,),
        )["scenario=seed-linger"]
        assert short["stratification_index"][0] == data["stratification_index"][0]
        assert short["swarm_size"][0] == data["swarm_size"][0]

    def test_scenario_timeline_rejects_empty_checkpoints(self):
        with pytest.raises(ValueError):
            experiments.scenario_stratification_timeline(checkpoints=())

    def test_swarm_experiment_with_behavior_mix(self):
        metrics = experiments.swarm_stratification_experiment(
            leechers=15, rounds=25, piece_count=60, seed=4,
            behavior_mix="never_upload:0.2",
        )
        assert metrics["completed"] > 0
        plain = experiments.swarm_stratification_experiment(
            leechers=15, rounds=25, piece_count=60, seed=4
        )
        assert metrics != plain

    def test_fault_sweep_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="repetitions"):
            experiments.fault_sweep_experiment(repetitions=0)
        with pytest.raises(ValueError, match="outage_start"):
            experiments.fault_sweep_experiment(outage_start=0)
        with pytest.raises(ValueError, match="at least one"):
            experiments.fault_sweep_experiment(outages=())
        with pytest.raises(ValueError, match="negative"):
            experiments.fault_sweep_experiment(outages=(-1, 2))

    def test_fault_sweep_outage_changes_dynamics(self):
        table = experiments.fault_sweep_experiment(
            leechers=12, rounds=24, piece_count=60, seed=3,
            outages=(0, 8), outage_start=2, engine="fast",
        )["curves"]
        assert list(table["outage_rounds"]) == [0.0, 8.0]
        # Arrival counts are pure scenario draws, untouched by the outage;
        # the outage bites through *who* the queued arrivals meet, which
        # shows up in the trading structure.
        assert table["arrivals"][0] == table["arrivals"][1]
        assert (
            table["stratification_index"][0]
            != table["stratification_index"][1]
        )

    def test_behavior_sweep_curves(self):
        series = experiments.behavior_sweep_experiment(
            leechers=14,
            rounds=30,
            piece_count=60,
            seed=5,
            fractions=(0.0, 0.4),
        )
        curves = series["curves"]
        assert curves["fractions"].tolist() == [0.0, 0.4]
        assert curves["stratification_index"].shape == (2,)
        assert curves["standard_stratification_index"].shape == (2,)
        # The obedient baseline has only standard peers...
        assert curves["standard_peers"][0] == 14.0
        # ...and the adversarial point has some free-riders.
        assert curves["free_rider_peers"][1] > 0
        import numpy as np

        assert np.isnan(curves["free_rider_peers"][0])

    def test_behavior_sweep_engines_agree(self):
        kwargs = dict(
            leechers=12, rounds=20, piece_count=40, seed=9, fractions=(0.3,)
        )
        reference = experiments.behavior_sweep_experiment(
            engine="reference", **kwargs
        )["curves"]
        fast = experiments.behavior_sweep_experiment(engine="fast", **kwargs)[
            "curves"
        ]
        assert sorted(reference) == sorted(fast)
        for key in reference:
            assert reference[key].tolist() == fast[key].tolist()

    def test_behavior_sweep_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            experiments.behavior_sweep_experiment(fractions=())
        with pytest.raises(ValueError):
            experiments.behavior_sweep_experiment(fractions=(0.2, 1.5))
        with pytest.raises(ValueError):
            experiments.behavior_sweep_experiment(repetitions=0)


class TestCLI:
    def test_parser_lists_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["list"])
        assert args.experiment == "list"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "figure11" in out

    def test_run_single_experiment(self, capsys):
        assert main(["figure7"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out

    def test_run_table_experiment(self, capsys):
        assert main(["figure4-5"]) == 0
        out = capsys.readouterr().out
        assert "Figures 4-5" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])


class TestCLIScenarioFlag:
    def test_parser_accepts_scenario(self):
        parser = build_parser()
        args = parser.parse_args(["swarm", "--scenario", "flashcrowd"])
        assert args.scenario == "flashcrowd"
        assert parser.parse_args(["swarm"]).scenario is None

    def test_parser_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["swarm", "--scenario", "tsunami"])

    def test_scenario_threaded_to_swarm_experiment(self, capsys, monkeypatch):
        seen = {}
        original = experiments.swarm_stratification_experiment

        def spy(*, seed=0, engine="reference", scenario=None):
            seen.update(seed=seed, engine=engine, scenario=scenario)
            return original(
                leechers=12, rounds=10, piece_count=30,
                seed=seed, engine=engine, scenario=scenario,
            )

        monkeypatch.setitem(cli._EXPERIMENTS, "swarm", spy)
        assert main(["swarm", "--scenario", "poisson", "--engine", "fast"]) == 0
        assert seen["scenario"] == "poisson"
        assert seen["engine"] == "fast"
        assert "arrivals" in capsys.readouterr().out

    def test_scenario_timeline_runs_from_cli(self, capsys):
        assert main(["scenario-timeline"]) == 0
        out = capsys.readouterr().out
        assert "scenario=poisson" in out
        assert "stratification_index" in out


class TestCLIBehaviorFlag:
    def test_parser_accepts_behavior_mix(self):
        parser = build_parser()
        args = parser.parse_args(["swarm", "--behavior-mix", "freeriders"])
        assert args.behavior_mix == "freeriders"
        assert parser.parse_args(["swarm"]).behavior_mix is None

    def test_unknown_behavior_mix_rejected_with_names(self, capsys):
        with pytest.raises(SystemExit):
            main(["swarm", "--behavior-mix", "anarchy"])
        err = capsys.readouterr().err
        assert "anarchy" in err
        assert "freeriders" in err and "bitthief" in err

    def test_bad_mix_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["swarm", "--behavior-mix", "free_rider:lots"])

    def test_behavior_mix_threaded_to_swarm_experiment(self, capsys, monkeypatch):
        seen = {}
        original = experiments.swarm_stratification_experiment

        def spy(*, seed=0, engine="reference", scenario=None,
                behavior_mix=None):
            seen.update(behavior_mix=behavior_mix)
            return original(
                leechers=12, rounds=10, piece_count=30,
                seed=seed, engine=engine, scenario=scenario,
                behavior_mix=behavior_mix,
            )

        monkeypatch.setitem(cli._EXPERIMENTS, "swarm", spy)
        assert main(["swarm", "--behavior-mix", "free_rider:0.25"]) == 0
        assert seen == {"behavior_mix": "free_rider:0.25"}
        assert "stratification_index" in capsys.readouterr().out

    def test_behavior_sweep_runs_from_cli(self, capsys, monkeypatch):
        def small(*, seed=0, engine="reference", workers=1, cache=None):
            return experiments.behavior_sweep_experiment(
                leechers=10, rounds=12, piece_count=30,
                fractions=(0.0, 0.3),
                seed=seed, engine=engine, workers=workers, cache=cache,
            )

        monkeypatch.setitem(cli._EXPERIMENTS, "behavior-sweep", small)
        assert main(["behavior-sweep", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "curves" in out
        assert "stratification_index" in out


class TestCLIFaultsFlag:
    def test_parser_accepts_faults(self):
        parser = build_parser()
        args = parser.parse_args(["swarm", "--faults", "split-brain"])
        assert args.faults == "split-brain"
        assert parser.parse_args(["swarm"]).faults is None

    def test_unknown_faults_preset_rejected_with_names(self, capsys):
        with pytest.raises(SystemExit):
            main(["swarm", "--faults", "chaos"])
        err = capsys.readouterr().err
        assert "chaos" in err
        assert "split-brain" in err and "lossy" in err

    def test_bad_faults_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["swarm", "--faults", "loss:plenty"])

    def test_faults_threaded_to_swarm_experiment(self, capsys, monkeypatch):
        seen = {}
        original = experiments.swarm_stratification_experiment

        def spy(*, seed=0, engine="reference", scenario=None, faults=None):
            seen.update(faults=faults)
            return original(
                leechers=12, rounds=10, piece_count=30,
                seed=seed, engine=engine, scenario=scenario, faults=faults,
            )

        monkeypatch.setitem(cli._EXPERIMENTS, "swarm", spy)
        assert main(["swarm", "--faults", "outage:3+2"]) == 0
        assert seen == {"faults": "outage:3+2"}
        assert "stratification_index" in capsys.readouterr().out

    def test_fault_sweep_runs_from_cli(self, capsys, monkeypatch):
        def small(*, seed=0, engine="reference", scenario="poisson",
                  workers=1, cache=None):
            return experiments.fault_sweep_experiment(
                leechers=10, rounds=16, piece_count=40, seed=seed,
                engine=engine, scenario=scenario, outages=(0, 4),
                outage_start=3, workers=workers, cache=cache,
            )

        monkeypatch.setitem(cli._EXPERIMENTS, "fault-sweep", small)
        assert main(["fault-sweep", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "outage_rounds" in out
        assert "stratification_index" in out


class TestCLIObserveFlags:
    def test_parser_accepts_observe_and_scrape_interval(self):
        parser = build_parser()
        args = parser.parse_args(["swarm", "--observe", "--scrape-interval", "3"])
        assert args.observe is True
        assert args.scrape_interval == 3
        defaults = parser.parse_args(["swarm"])
        assert defaults.observe is False
        assert defaults.scrape_interval is None

    def test_invalid_scrape_interval_rejected(self):
        with pytest.raises(SystemExit):
            main(["swarm", "--scrape-interval", "0"])
        with pytest.raises(SystemExit):
            main(["telemetry", "--scrape-interval", "-2"])

    def test_observe_threaded_to_swarm_experiment(self, capsys, monkeypatch):
        seen = {}
        original = experiments.swarm_stratification_experiment

        def spy(*, seed=0, engine="reference", scenario=None,
                observe=False, scrape_interval=1):
            seen.update(observe=observe, scrape_interval=scrape_interval)
            return original(
                leechers=12, rounds=10, piece_count=30,
                seed=seed, engine=engine, scenario=scenario,
                observe=observe, scrape_interval=scrape_interval,
            )

        monkeypatch.setitem(cli._EXPERIMENTS, "swarm", spy)
        assert main(["swarm", "--observe", "--scrape-interval", "2"]) == 0
        assert seen == {"observe": True, "scrape_interval": 2}
        out = capsys.readouterr().out
        assert "reported_downloads" in out
        assert "observed_stratification_index" in out

    def test_observe_flag_not_forced_when_absent(self, monkeypatch):
        seen = {}

        def spy(*, seed=0, engine="reference", scenario=None,
                observe=False, scrape_interval=1):
            seen.update(observe=observe, scrape_interval=scrape_interval)
            return {"completed": 0.0}

        monkeypatch.setitem(cli._EXPERIMENTS, "swarm", spy)
        assert main(["swarm"]) == 0
        assert seen == {"observe": False, "scrape_interval": 1}

    def test_telemetry_runs_from_cli(self, capsys, monkeypatch):
        def small(*, seed=0, engine="reference", scenario="poisson",
                  scrape_interval=2, workers=1, cache=None):
            return experiments.telemetry_experiment(
                leechers=10, rounds=10, piece_count=30,
                seed=seed, engine=engine, scenario=scenario,
                scrape_interval=scrape_interval, poll_budget=5,
                workers=workers, cache=cache,
            )

        monkeypatch.setitem(cli._EXPERIMENTS, "telemetry", small)
        assert main(["telemetry", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "== ground_truth" in out
        assert "== observed" in out
        assert "== threshold_sensitivity" in out
        assert "== scrape_series" in out
        assert "confirmed_downloads" in out


class TestCLIEngineFlag:
    def test_parser_accepts_engine(self):
        parser = build_parser()
        args = parser.parse_args(["figure1", "--engine", "fast"])
        assert args.engine == "fast"
        assert parser.parse_args(["figure1"]).engine == "reference"

    def test_parser_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "--engine", "warp"])

    def test_engine_fast_reaches_fast_swarm_engine(self, capsys, monkeypatch):
        import repro.bittorrent.fast.swarm as fast_swarm

        calls = []
        original = fast_swarm.FastSwarmSimulator.run

        def spy(self):
            calls.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(fast_swarm.FastSwarmSimulator, "run", spy)
        assert main(["swarm", "--engine", "fast"]) == 0
        assert calls == ["FastSwarmSimulator"]
        assert "stratification_index" in capsys.readouterr().out

    def test_engine_fast_reaches_fast_convergence_engine(self, monkeypatch):
        from repro.core.fast import dynamics as fast_dynamics

        class Reached(Exception):
            pass

        def boom(self, **kwargs):
            raise Reached

        monkeypatch.setattr(fast_dynamics.FastConvergenceSimulator, "run", boom)
        # Sweep-driven experiments wrap task failures in SweepTaskError
        # (naming the failed point); the sentinel survives as the cause.
        with pytest.raises(SweepTaskError) as info:
            main(["figure1", "--engine", "fast"])
        assert isinstance(info.value.__cause__, Reached)
        # The churn command threads the flag too (its loop drives the fast
        # simulator's hooks, not run).
        monkeypatch.setattr(fast_dynamics.FastConvergenceSimulator, "refresh", boom)
        with pytest.raises(SweepTaskError) as info:
            main(["figure3", "--engine", "fast"])
        assert isinstance(info.value.__cause__, Reached)



class TestCLIRefusedOptions:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["figure7", "--engine", "fast"], "--engine"),
            (["figure4-5", "--faults", "outage:3+2", "--no-cache"], "--faults"),
            (["figure10", "--seed", "3"], "--seed"),
            # Set to its default value, an option is still set.
            (["figure4-5", "--seed", "0"], "--seed"),
        ],
    )
    def test_an_option_the_experiment_does_not_take_is_a_usage_error(
        self, capsys, argv, option
    ):
        # The driver has no such parameter: the option must not be dropped
        # without a word.
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[0]} takes no {option}" in err

    def test_all_passes_each_option_to_the_drivers_that_take_it(self, monkeypatch):
        seen = {}

        def engine_aware(*, seed=7, engine="x", workers=9):
            seen["engine_aware"] = (seed, engine, workers)
            return {}

        def plain():
            seen["plain"] = ()
            return {}

        monkeypatch.setattr(cli, "_EXPERIMENTS", {"a": engine_aware, "b": plain})
        assert main(["all", "--engine", "fast", "--faults", "outage:3+2", "--no-cache"]) == 0
        assert seen == {"engine_aware": (0, "fast", 1), "plain": ()}
        # Omitted, --seed, --engine and --workers keep their old values.
        assert main(["all", "--no-cache"]) == 0
        assert seen["engine_aware"] == (0, "reference", 1)
