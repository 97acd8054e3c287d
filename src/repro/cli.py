"""Command-line interface: ``repro-p2p <experiment>``.

Runs one of the paper's experiments and prints the resulting table or
series summary.  ``repro-p2p list`` shows the available experiment names.
An experiment option its driver does not take (``figure7 --engine fast``)
is a usage error; ``all`` passes each option to the drivers that take it.
"""

from __future__ import annotations

import argparse
import cProfile
import inspect
import pstats
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import experiments
from repro.bittorrent.behaviors import (
    BEHAVIOR_MIX_NAMES,
    BEHAVIOR_NAMES,
    make_behavior_mix,
)
from repro.bittorrent.faults import FAULT_PRESET_NAMES, make_faults
from repro.bittorrent.resilience import RESILIENCE_PRESET_NAMES, make_resilience
from repro.bittorrent.scenarios import SCENARIO_NAMES
from repro.core.exceptions import ENGINES
from repro.sim.parallel import ResultCache, source_fingerprint
from repro.sim.results import ResultTable

__all__ = ["main", "build_parser"]

# Default location of the on-disk result cache.  A module-level constant so
# embedders (and the test suite) can redirect it before ``build_parser``.
DEFAULT_CACHE_DIR = Path(".repro-cache")


def _print_series(series: Dict[str, Dict[str, np.ndarray]]) -> None:
    for label, data in series.items():
        print(f"== {label}")
        for key, values in data.items():
            array = np.asarray(values)
            if array.size == 0:
                print(f"   {key}: (no samples)")
            elif array.size == 1:
                print(f"   {key}: {float(array[0]):.6g}")
            else:
                print(
                    f"   {key}: {array.size} samples "
                    f"[first={array[0]:.4g}, last={array[-1]:.4g}, max={array.max():.4g}]"
                )


def _print_result(result: object) -> None:
    if isinstance(result, ResultTable):
        print(result.to_text())
    elif isinstance(result, dict):
        # Either a series dict or a flat metrics dict.
        if result and all(isinstance(v, dict) for v in result.values()):
            _print_series(result)  # type: ignore[arg-type]
        else:
            for key, value in result.items():
                if isinstance(value, (int, float, np.floating)):
                    print(f"{key}: {float(value):.6g}")
                elif isinstance(value, np.ndarray):
                    print(f"{key}: array of {value.size} values")
                else:
                    print(f"{key}: {value}")
    else:
        print(result)


_EXPERIMENTS: Dict[str, Callable[[], object]] = {
    "figure1": experiments.figure1_convergence,
    "figure2": experiments.figure2_peer_removal,
    "figure3": experiments.figure3_churn,
    "figure4-5": experiments.figure4_figure5_clusters,
    "figure6": experiments.figure6_phase_transition,
    "table1": experiments.table1_clustering,
    "figure7": experiments.figure7_approximation_error,
    "figure8": experiments.figure8_neighbor_distributions,
    "figure9": experiments.figure9_validation,
    "figure10": experiments.figure10_bandwidth_cdf,
    "figure11": experiments.figure11_efficiency,
    "swarm": experiments.swarm_stratification_experiment,
    "scenario-timeline": experiments.scenario_stratification_timeline,
    "telemetry": experiments.telemetry_experiment,
    "behavior-sweep": experiments.behavior_sweep_experiment,
    "fault-sweep": experiments.fault_sweep_experiment,
    "resilience-sweep": experiments.resilience_sweep_experiment,
}


class _Given(argparse.Action):
    """Stores an experiment option and notes its dest in ``args.given``.

    The notes tell an option set on the command line apart from one left
    at its default, even when the two values are equal.
    """

    def __call__(
        self,
        parser: argparse.ArgumentParser,
        namespace: argparse.Namespace,
        values: Union[str, Sequence[Any], None],
        option_string: Optional[str] = None,
    ) -> None:
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        if self.dest not in namespace.given:
            namespace.given = (*namespace.given, self.dest)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-p2p",
        description=(
            "Reproduce the experiments of 'Stratification in P2P Networks: "
            "Application to BitTorrent' (Gai et al., ICDCS 2007)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["list", "all"],
        help="experiment to run ('list' to enumerate, 'all' to run everything)",
    )
    # The experiment options: each sets the driver parameter named by its
    # dest, and _Given notes it in args.given.
    parser.set_defaults(given=())
    parser.add_argument(
        "--seed", action=_Given, type=int, default=0, help="base random seed (where applicable)"
    )
    parser.add_argument(
        "--engine",
        action=_Given,
        choices=sorted(ENGINES),
        default="reference",
        help=(
            "simulation backend for the engine-aware experiments "
            "(figure1/2/3, swarm, scenario-timeline, telemetry and the "
            "behavior, fault and resilience sweeps): 'reference' "
            "is the validated oracle, 'fast' the bit-identical vectorized "
            "engine"
        ),
    )
    parser.add_argument(
        "--scenario",
        action=_Given,
        choices=sorted(SCENARIO_NAMES),
        default=None,
        help=(
            "membership dynamics for the swarm experiments (swarm, "
            "scenario-timeline): 'static' is the paper's fixed "
            "post-flash-crowd population, 'poisson' adds continuous "
            "arrivals with leave-on-completion, 'flashcrowd' a joining "
            "burst, 'seed-linger' arrivals whose completers seed a while; "
            "scenarios are bit-identical across engines"
        ),
    )
    parser.add_argument(
        "--behavior-mix",
        action=_Given,
        default=None,
        metavar="MIX",
        help=(
            "client behavior mix for the swarm experiment: a preset "
            f"({', '.join(BEHAVIOR_MIX_NAMES)}) or a spec like "
            "'free_rider:0.2,never_upload:0.1,seeds:super_seed,groups:4' "
            f"over the behaviors {', '.join(BEHAVIOR_NAMES)}; behaviors "
            "stay bit-identical across engines"
        ),
    )
    parser.add_argument(
        "--faults",
        action=_Given,
        default=None,
        metavar="SCHEDULE",
        help=(
            "fault schedule for the swarm experiment: a preset "
            f"({', '.join(FAULT_PRESET_NAMES)}) or a spec like "
            "'outage:20+5,loss:0.02,crash:5@10~3,partition:10+5/2'; fault "
            "runs stay bit-identical across engines"
        ),
    )
    parser.add_argument(
        "--resilience",
        action=_Given,
        default=None,
        metavar="POLICY",
        help=(
            "client-side resilience policy for the swarm experiment: a "
            f"preset ({', '.join(RESILIENCE_PRESET_NAMES)}) or a spec like "
            "'trackers:3,pex:8,keepalive:5' arming multi-tracker failover, "
            "PEX gossip and dead-neighbor eviction; resilient runs stay "
            "bit-identical across engines"
        ),
    )
    parser.add_argument(
        "--observe",
        action=_Given,
        nargs=0,
        const=True,
        default=False,
        help=(
            "attach the scrape-and-poll measurement layer to the swarm "
            "experiment (adds reported/confirmed downloads and the observed "
            "stratification index; the simulated swarm stays bit-identical)"
        ),
    )
    parser.add_argument(
        "--scrape-interval",
        action=_Given,
        type=int,
        default=None,
        metavar="ROUNDS",
        help=(
            "rounds between tracker scrapes / peer polls for the observed "
            "experiments (swarm --observe, telemetry); default 1 for swarm, "
            "2 for telemetry"
        ),
    )
    parser.add_argument(
        "--workers",
        action=_Given,
        type=int,
        default=1,
        help=(
            "process-pool width for the sweep-style experiments "
            "(figure1/2/3/6, table1, swarm, scenario-timeline and the "
            "sweeps); results are bit-identical for any value, 1 runs inline"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        help=(
            "directory of the on-disk result cache (content-addressed by "
            "config + seed + engine + version); re-running an experiment "
            "replays its cached points instantly"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (every point is recomputed)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run the selected experiment under cProfile and print the top 25 "
            "cumulative hot spots (forces --workers 1 and disables the cache "
            "so the measured work stays in this process)"
        ),
    )
    return parser


def _build_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    """The CLI's result cache, or ``None`` when caching is off.

    Unlike the bare library key (config + seed + engine + version), the
    CLI folds a fingerprint of the installed sources into every entry, so
    editing a simulator can never silently replay pre-edit results.
    """
    if args.no_cache or getattr(args, "profile", False):
        return None
    return ResultCache(args.cache_dir, extra_key=source_fingerprint())


def _runner_kwargs(
    runner: Callable[..., object],
    args: argparse.Namespace,
    cache: Optional[ResultCache] = None,
) -> Dict[str, object]:
    """Thread the CLI options the experiment driver takes.

    ``--seed``, ``--engine`` and ``--workers`` reach every driver that
    takes them; the other options only when the command line set them.
    """
    parameters = inspect.signature(runner).parameters
    kwargs: Dict[str, object] = {
        dest: getattr(args, dest)
        for dest in ("seed", "engine", "workers", *args.given)
        if dest in parameters
    }
    if "workers" in kwargs and args.profile:
        kwargs["workers"] = 1
    if "cache" in parameters and cache is not None:
        kwargs["cache"] = cache
    return kwargs


def _refused_options(runner: Callable[..., object], args: argparse.Namespace) -> List[str]:
    """The options set on the command line that ``runner`` does not take."""
    parameters = inspect.signature(runner).parameters
    return [
        "--" + dest.replace("_", "-") for dest in args.given if dest not in parameters
    ]


def _profiled(call: Callable[[], object]) -> object:
    """Run ``call`` under cProfile; print the top 25 cumulative hot spots."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(25)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.scrape_interval is not None and args.scrape_interval < 1:
        parser.error("--scrape-interval must be >= 1")
    if args.behavior_mix is not None:
        try:
            make_behavior_mix(args.behavior_mix)
        except ValueError as exc:
            parser.error(f"--behavior-mix: {exc}")
    if args.faults is not None:
        try:
            make_faults(args.faults)
        except ValueError as exc:
            parser.error(f"--faults: {exc}")
    if args.resilience is not None:
        try:
            make_resilience(args.resilience)
        except ValueError as exc:
            parser.error(f"--resilience: {exc}")

    if args.experiment == "list":
        for name in sorted(_EXPERIMENTS):
            print(name)
        return 0

    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.experiment != "all":
        refused = _refused_options(_EXPERIMENTS[args.experiment], args)
        if refused:
            parser.error(f"{args.experiment} takes no {', '.join(refused)}")
    cache = _build_cache(args)
    for name in names:
        print(f"### {name}")
        runner = _EXPERIMENTS[name]
        kwargs = _runner_kwargs(runner, args, cache)
        if args.profile:
            result = _profiled(lambda: runner(**kwargs))
        else:
            result = runner(**kwargs)
        _print_result(result)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
