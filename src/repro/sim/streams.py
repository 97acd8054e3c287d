"""Central registry of named random streams (the determinism contract).

Every stochastic component draws its randomness from a *named* child
stream of a :class:`~repro.sim.random_source.RandomSource`.  The names are
the contract that keeps ``engine="fast"`` and ``engine="reference"``
bit-identical under a shared seed: every stream must see the same draws,
in the same order, whichever engine runs.  Both simulators get this by
construction: one protocol draws every stream for both engines -- the
swarm's round protocol (:class:`repro.bittorrent.swarm.SwarmSimulator`)
and the matching dynamics' initiative protocol
(:class:`repro.core.dynamics.ConvergenceSimulator`, which the churn
driver reuses) -- and the engines differ only in how they store their
state.  No fast backend fetches a stream; it is handed generators.

This module is the single place where stream names are declared.  Code
must consume streams through the constants below (``streams.BANDWIDTH``,
never the bare literal ``"bandwidth"``); the determinism linter
(:mod:`repro.devtools.lint`, rule RPD002) rejects string-literal stream
names that are not declared here.

Adding a new stochastic feature therefore means:

1. declare its stream here (constant + :class:`StreamSpec` entry);
2. consume it via ``source.stream(streams.YOUR_STREAM)`` in the shared
   protocol, and hand the generator to any engine backend that draws
   from it;
3. run ``repro-p2p-lint src`` -- an undeclared stream is a lint failure,
   not a 60-second equivalence-test failure.

See ``docs/determinism.md`` for the full discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping

__all__ = [
    "StreamSpec",
    "REGISTRY",
    "GRAPH",
    "CHURN",
    "SCORES",
    "INITIATIVES",
    "BANDWIDTH",
    "BOOTSTRAP",
    "TRACKER",
    "SCENARIO",
    "BEHAVIOR",
    "ROUNDS",
    "POPULATION",
    "TELEMETRY_POLL",
    "FAULT_LOSS",
    "FAULT_CRASH",
    "FAULT_PARTITION",
    "TRACKER_SELECT",
    "PEX_GOSSIP",
    "DYNAMIC_PREFIXES",
    "registered_names",
    "is_registered",
    "spec",
    "constant_map",
]


@dataclass(frozen=True)
class StreamSpec:
    """Declaration of one named random stream.

    Attributes
    ----------
    name:
        The stream name passed to :meth:`RandomSource.stream`.
    domain:
        Which subsystem owns the stream (``"core"`` for the matching
        dynamics, ``"bittorrent"`` for the swarm simulator).
    description:
        What the stream's draws decide.
    """

    name: str
    domain: str
    description: str


# -- core (matching dynamics) ---------------------------------------------------

#: Acceptance-graph generation (Erdős–Rényi edges, fresh churn neighborhoods).
GRAPH = "graph"
#: Churn event scheduling: whether an event fires, join-vs-leave, victim draw.
CHURN = "churn"
#: Fresh peer scores drawn when churn introduces a new peer.
SCORES = "scores"
#: Initiative process: initiating peer draw and random-strategy targets.
INITIATIVES = "initiatives"

# -- bittorrent (swarm simulator) -----------------------------------------------

#: Upload-capacity sampling for leechers (initial population and arrivals).
BANDWIDTH = "bandwidth"
#: Bootstrap piece endowments of freshly arrived leechers.
BOOTSTRAP = "bootstrap"
#: Tracker announces: the random peer subsets returned to each peer.
TRACKER = "tracker"
#: Dynamic-membership scenarios: per-round arrival counts.
SCENARIO = "scenario"
#: Behavior assignment and behavior-driven edge filtering (free-riders,
#: locality bias, NAT limitation -- see :mod:`repro.bittorrent.behaviors`).
BEHAVIOR = "behavior"
#: Per-round swarm randomness: optimistic-unchoke draws and tie-breaks.
ROUNDS = "rounds"
#: Slot-strategy population sampling (Section 6 slot-count arguments).
POPULATION = "population"
#: Observer peer-poll sampling (which peers a measurer contacts).
TELEMETRY_POLL = "telemetry-poll"
#: Per-round message/transfer loss draws of the fault layer
#: (:mod:`repro.bittorrent.faults`).
FAULT_LOSS = "fault-loss"
#: Crash-victim selection of scheduled peer-crash fault events.
FAULT_CRASH = "fault-crash"
#: Partition-group assignment during network-partition fault windows.
FAULT_PARTITION = "fault-partition"
#: Preferred-replica assignment over a replicated tracker set
#: (:mod:`repro.bittorrent.resilience`, multi-tracker failover).
TRACKER_SELECT = "tracker-select"
#: Peer-exchange gossip sampling while a peer's tracker is unreachable
#: (:mod:`repro.bittorrent.resilience`).
PEX_GOSSIP = "pex-gossip"


REGISTRY: Mapping[str, StreamSpec] = {
    spec_.name: spec_
    for spec_ in (
        StreamSpec(
            GRAPH,
            "core",
            "acceptance-graph edges; consumed by shared drivers before the "
            "engine split, so both engines see identical graphs",
        ),
        StreamSpec(
            CHURN,
            "core",
            "churn event timing and join/leave/victim draws in the shared "
            "churn driver",
        ),
        StreamSpec(
            SCORES,
            "core",
            "fresh peer scores under churn (shared driver)",
        ),
        StreamSpec(
            INITIATIVES,
            "core",
            "initiating-peer and proposal-target draws of the convergence "
            "dynamics; drawn by the shared initiative protocol",
        ),
        StreamSpec(
            BANDWIDTH,
            "bittorrent",
            "leecher upload capacities, for the initial population and for "
            "scenario arrivals; drawn by the shared round protocol",
        ),
        StreamSpec(
            BOOTSTRAP,
            "bittorrent",
            "bootstrap piece endowments of new leechers; drawn by the shared "
            "round protocol",
        ),
        StreamSpec(
            TRACKER,
            "bittorrent",
            "tracker announce subsets (the swarm's acceptance graph); drawn "
            "by the shared round protocol (the fast engine's construction-"
            "time CSR build receives the generator from it)",
        ),
        StreamSpec(
            SCENARIO,
            "bittorrent",
            "per-round arrival counts of dynamic-membership scenarios; drawn "
            "by the shared round protocol",
        ),
        StreamSpec(
            BEHAVIOR,
            "bittorrent",
            "per-peer behavior assignment (one batch per population /"
            " arrival batch) and locality-biased contact filtering; drawn by "
            "the shared round protocol",
        ),
        StreamSpec(
            ROUNDS,
            "bittorrent",
            "per-round swarm draws: optimistic unchokes and piece tie-breaks; "
            "drawn by the shared round protocol, which hands the generator to "
            "the engine's plan and apply passes",
        ),
        StreamSpec(
            POPULATION,
            "bittorrent",
            "slot-budget population sampling in the Section 6 strategy "
            "analysis (no fast counterpart)",
        ),
        StreamSpec(
            TELEMETRY_POLL,
            "bittorrent",
            "observer poll sampling; engine-agnostic by construction, so it "
            "is consumed outside both engine trees",
        ),
        StreamSpec(
            FAULT_LOSS,
            "bittorrent",
            "per-round Bernoulli loss draws over the planned transfer pairs "
            "(one batch per faulty round, sorted pid-pair order); drawn by the "
            "shared round protocol",
        ),
        StreamSpec(
            FAULT_CRASH,
            "bittorrent",
            "crash-victim selection: one choice batch per scheduled crash "
            "event, over the sorted alive non-seed peers; drawn by the shared "
            "round protocol",
        ),
        StreamSpec(
            FAULT_PARTITION,
            "bittorrent",
            "partition-group assignment: one integer batch per round of a "
            "partition window, over the peers not yet assigned a side; drawn "
            "by the shared round protocol",
        ),
        StreamSpec(
            TRACKER_SELECT,
            "bittorrent",
            "preferred tracker replica per peer: one integer batch per "
            "population / arrival wave when the announce list has more than "
            "one replica (a single-tracker policy draws nothing); drawn by "
            "the shared round protocol",
        ),
        StreamSpec(
            PEX_GOSSIP,
            "bittorrent",
            "peer-exchange neighbor sampling: one bounded-draw batch per "
            "round of a total outage (and per announce queued with PEX on; "
            "a policy without PEX draws nothing); drawn by the shared round "
            "protocol",
        ),
    )
}


#: Parameterized stream families: names built as ``f"{prefix}{params}"``
#: (one fresh stream per Monte-Carlo sample / sweep point).  Declared by
#: prefix because the full set is unbounded.
DYNAMIC_PREFIXES: Mapping[str, str] = {
    "graph-": "per-sample Monte-Carlo acceptance-graph streams "
    "(analytical validation, efficiency observations)",
    "slots-": "per-(sigma, repetition) slot-sampling streams "
    "(stratification phase transition)",
}


def registered_names() -> FrozenSet[str]:
    """All declared (non-dynamic) stream names."""
    return frozenset(REGISTRY)


def is_registered(name: str) -> bool:
    """Whether ``name`` is declared, exactly or via a dynamic prefix."""
    if name in REGISTRY:
        return True
    return any(name.startswith(prefix) for prefix in DYNAMIC_PREFIXES)


def spec(name: str) -> StreamSpec:
    """The :class:`StreamSpec` for ``name`` (KeyError if undeclared)."""
    return REGISTRY[name]


def constant_map() -> Dict[str, str]:
    """Map from module-level constant name to stream name.

    The determinism linter uses this to resolve ``streams.BANDWIDTH`` /
    ``from repro.sim.streams import BANDWIDTH`` references back to the
    stream they denote when collecting per-tree consumption sets.
    """
    out: Dict[str, str] = {}
    module_globals = globals()
    for const, value in module_globals.items():
        if const.isupper() and isinstance(value, str) and value in REGISTRY:
            out[const] = value
    return out
