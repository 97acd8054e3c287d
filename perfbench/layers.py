"""The layers the traced run times, and the per-layer metrics built from them.

Each :class:`~perfbench.tracer.Layer` is reported under the module and
name that define it (without the ``repro.`` prefix) and patched where its
callers look it up.  Every layer yields ``<name>.calls``, ``<name>.s``
(inclusive seconds) and ``<name>.self_s``; :func:`layer_metrics` adds the
ratios measured where the work happens.  README.md maps each layer to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

from typing import Any, Dict, List

from perfbench.tracer import Layer, LayerStats

__all__ = ["LAYERS", "DERIVED_METRICS", "layer_metrics", "per_layer_names"]

_FAST = "repro.bittorrent.fast.swarm"
_REFERENCE = "repro.bittorrent.swarm"


def _count_empty_masks(stats: LayerStats, args: tuple, kwargs: dict, result: Any) -> None:
    if not result.any():
        stats.count("empty")


def _count_dropped_pairs(stats: LayerStats, args: tuple, kwargs: dict, result: Any) -> None:
    stats.count("offered", len(args[2]))
    stats.count("dropped", len(result))


def _layer(name: str, *sites: str, on_call=None) -> Layer:
    """``sites`` are ``module:attribute.path`` strings."""
    return Layer(name, tuple(tuple(site.split(":")) for site in sites), on_call)


LAYERS: List[Layer] = [
    # Fast swarm engine.
    _layer("bittorrent.fast.swarm.FastSwarmSimulator.run", f"{_FAST}:FastSwarmSimulator.run"),
    _layer(
        "bittorrent.fast.bitfields.BitfieldMatrix.wanted_bytes",
        "repro.bittorrent.fast.bitfields:BitfieldMatrix.wanted_bytes",
        on_call=_count_empty_masks,
    ),
    _layer(
        "bittorrent.fast.bitfields.BitfieldMatrix.indices",
        "repro.bittorrent.fast.bitfields:BitfieldMatrix.indices",
    ),
    _layer(
        "bittorrent.fast.bitfields.BitfieldMatrix.edge_interest",
        "repro.bittorrent.fast.bitfields:BitfieldMatrix.edge_interest",
    ),
    _layer(
        "bittorrent.fast.bitfields.BitfieldMatrix.to_bitfield",
        "repro.bittorrent.fast.bitfields:BitfieldMatrix.to_bitfield",
    ),
    _layer("bittorrent.fast.choking.batched_regular_slots", f"{_FAST}:batched_regular_slots"),
    _layer(
        "bittorrent.fast.choking.FastChokerState.leecher_unchoke",
        "repro.bittorrent.fast.choking:FastChokerState.leecher_unchoke",
    ),
    _layer(
        "bittorrent.fast.choking.FastChokerState.seed_unchoke",
        "repro.bittorrent.fast.choking:FastChokerState.seed_unchoke",
    ),
    # Only the engine's re-freeze; the construction-time CSR build looks the
    # function up in the tracker module and stays untraced.
    _layer("bittorrent.fast.tracker.neighbor_sets_to_csr", f"{_FAST}:neighbor_sets_to_csr"),
    _layer(
        "bittorrent.fast.tracker.FastTracker.announce",
        "repro.bittorrent.fast.tracker:FastTracker.announce",
    ),
    # Shared by both engines.
    _layer(
        "bittorrent.faults.FaultRuntime.dropped_pairs",
        "repro.bittorrent.faults:FaultRuntime.dropped_pairs",
        on_call=_count_dropped_pairs,
    ),
    _layer("bittorrent.resilience.sample_pools", f"{_FAST}:sample_pools", f"{_REFERENCE}:sample_pools"),
    _layer(
        "bittorrent.behaviors.filter_contacts",
        f"{_FAST}:filter_contacts",
        f"{_REFERENCE}:filter_contacts",
    ),
    _layer(
        "bittorrent.telemetry.SwarmObserver.observe_round",
        "repro.bittorrent.telemetry:SwarmObserver.observe_round",
    ),
    # Reference swarm engine.
    _layer("bittorrent.swarm.SwarmSimulator.run", f"{_REFERENCE}:SwarmSimulator.run"),
    _layer(
        "bittorrent.piece_selection.RarestFirstSelector.select",
        "repro.bittorrent.piece_selection:RarestFirstSelector.select",
    ),
    _layer(
        "bittorrent.choking.TitForTatChoker.select_unchoked",
        "repro.bittorrent.choking:TitForTatChoker.select_unchoked",
    ),
    _layer(
        "bittorrent.choking.SeedChoker.select_unchoked",
        "repro.bittorrent.choking:SeedChoker.select_unchoked",
    ),
    _layer(
        "bittorrent.pieces.Bitfield.is_interested_in",
        "repro.bittorrent.pieces:Bitfield.is_interested_in",
    ),
    _layer("bittorrent.tracker.Tracker.announce", "repro.bittorrent.tracker:Tracker.announce"),
    # Matching: graph sampling, the stable table, Algorithm 1's dynamics.
    _layer("graphs.erdos_renyi.erdos_renyi_graph", "repro.core.acceptance:erdos_renyi_graph"),
    _layer(
        "core.acceptance.AcceptanceGraph.erdos_renyi",
        "repro.core.acceptance:AcceptanceGraph.erdos_renyi",
    ),
    _layer("core.fast.arrays.PeerArrays.build", "repro.core.fast.arrays:PeerArrays.build"),
    _layer("core.fast.engine.fast_stable_table", "repro.core.fast.dynamics:fast_stable_table"),
    _layer(
        "core.fast.dynamics.FastConvergenceSimulator.run",
        "repro.core.fast.dynamics:FastConvergenceSimulator.run",
    ),
    _layer(
        "core.fast.dynamics.FastBestMateInitiative.take_initiative",
        "repro.core.fast.dynamics:FastBestMateInitiative.take_initiative",
    ),
    _layer("core.fast.engine.FastMatching.disorder", "repro.core.fast.engine:FastMatching.disorder"),
    _layer(
        "core.fast.engine.FastMatching.to_matching",
        "repro.core.fast.engine:FastMatching.to_matching",
    ),
]

# Ratios and counts beside the per-layer spans, with their units.
DERIVED_METRICS: Dict[str, str] = {
    "bittorrent.fast.bitfields.BitfieldMatrix.wanted_bytes.empty_frac": "1",
    "bittorrent.faults.dropped_frac": "1",
    "swarm.pieces_acquired": "count",
    "swarm.pieces_per_acquire": "count",
    "matching.active_frac": "1",
    "matching.edges": "count",
    "trace_overhead_frac": "1",
}

_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def per_layer_names() -> Dict[str, str]:
    """Every per-layer metric name with its unit."""
    names = {
        f"{layer.name}.{field}": unit for layer in LAYERS for field, unit in _UNITS.items()
    }
    names.update(DERIVED_METRICS)
    return names


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(stats: Dict[str, LayerStats], counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (no overhead term).

    ``counts`` holds the result-side metrics the workload measured
    (``swarm.pieces_acquired`` or ``matching.*``); absent ones read 0.
    """
    metrics: Dict[str, float] = {}
    for name, layer in stats.items():
        metrics[f"{name}.calls"] = layer.calls
        metrics[f"{name}.s"] = layer.s
        metrics[f"{name}.self_s"] = layer.self_s
    wanted = stats["bittorrent.fast.bitfields.BitfieldMatrix.wanted_bytes"]
    dropped = stats["bittorrent.faults.FaultRuntime.dropped_pairs"].counters
    # indices() runs once per piece acquisition and once per bitfield the
    # engine materializes for its result.
    acquires = (
        stats["bittorrent.fast.bitfields.BitfieldMatrix.indices"].calls
        - stats["bittorrent.fast.bitfields.BitfieldMatrix.to_bitfield"].calls
    )
    pieces = counts.get("swarm.pieces_acquired", 0)
    metrics.update(
        {
            "bittorrent.fast.bitfields.BitfieldMatrix.wanted_bytes.empty_frac": _ratio(
                wanted.counters.get("empty", 0), wanted.calls
            ),
            "bittorrent.faults.dropped_frac": _ratio(
                dropped.get("dropped", 0), dropped.get("offered", 0)
            ),
            "swarm.pieces_acquired": pieces,
            "swarm.pieces_per_acquire": _ratio(pieces, acquires),
            "matching.active_frac": counts.get("matching.active_frac", 0.0),
            "matching.edges": counts.get("matching.edges", 0),
        }
    )
    return metrics
