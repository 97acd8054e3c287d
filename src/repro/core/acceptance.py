"""Acceptance graphs.

A pair (p, q) belongs to the acceptance graph when both peers are willing
(and able) to collaborate; acceptability is symmetric (Section 2).  This
module wraps the generic :class:`repro.graphs.base.UndirectedGraph` with
peer-population awareness: it validates that edges only reference known
peers, and it supports the dynamic add/remove operations needed by the
churn experiments.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

import numpy as np

from repro.core.exceptions import ModelError, UnknownPeerError
from repro.core.peer import PeerPopulation
from repro.graphs.base import UndirectedGraph
from repro.graphs.erdos_renyi import erdos_renyi_graph

__all__ = ["AcceptanceGraph"]


class AcceptanceGraph:
    """The symmetric compatibility relation between peers."""

    def __init__(self, population: PeerPopulation, graph: Optional[UndirectedGraph] = None) -> None:
        self.population = population
        if graph is None:
            graph = UndirectedGraph(population.ids())
        self._validate(population, graph)
        self.graph = graph

    @staticmethod
    def _validate(population: PeerPopulation, graph: UndirectedGraph) -> None:
        unknown = [v for v in graph.vertices() if v not in population]
        if unknown:
            raise ModelError(
                f"acceptance graph references unknown peers: {unknown[:5]}"
            )
        for peer in population:
            if not graph.has_vertex(peer.peer_id):
                graph.add_vertex(peer.peer_id)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def complete(cls, population: PeerPopulation) -> "AcceptanceGraph":
        """Everybody accepts everybody (Section 4's toy model)."""
        ids = population.ids()
        graph = UndirectedGraph(ids)
        for i, u in enumerate(ids):
            for v in ids[i + 1:]:
                graph.add_edge(u, v)
        return cls(population, graph)

    @classmethod
    def erdos_renyi(
        cls,
        population: PeerPopulation,
        *,
        expected_degree: Optional[float] = None,
        probability: Optional[float] = None,
        rng: np.random.Generator,
    ) -> "AcceptanceGraph":
        """Erdős–Rényi acceptance graph over the population's peer ids.

        Exactly one of ``expected_degree`` (the paper's ``d``) or
        ``probability`` must be given.
        """
        if (expected_degree is None) == (probability is None):
            raise ModelError("specify exactly one of expected_degree / probability")
        ids = population.ids()
        n = len(ids)
        if probability is None:
            if n < 2:
                base = UndirectedGraph(ids)
                return cls(population, base)
            probability = expected_degree / (n - 1)
            if not 0.0 <= probability <= 1.0:
                raise ModelError(
                    f"expected degree {expected_degree} infeasible for n={n}"
                )
        elif not 0.0 <= probability <= 1.0:
            raise ModelError(f"edge probability {probability} outside [0, 1]")
        # Contiguous ids (the paper's peers 1..n) are sampled in place; any
        # other ids are sampled on positions 0..n-1 and then renamed.
        contiguous = n > 0 and ids[-1] - ids[0] == n - 1
        graph = erdos_renyi_graph(n, float(probability), rng, first_id=ids[0] if contiguous else 0)
        if not contiguous:
            graph.relabel(dict(enumerate(ids)))
        return cls(population, graph)

    # -- queries --------------------------------------------------------------

    def accepts(self, p: int, q: int) -> bool:
        """Whether peers p and q accept each other."""
        return self.graph.has_edge(p, q)

    def acceptable_peers(self, peer_id: int) -> Set[int]:
        """The set of peers acceptable to ``peer_id``."""
        if peer_id not in self.population:
            raise UnknownPeerError(f"peer {peer_id} not in population")
        return set(self.graph.neighbors(peer_id))

    def degree(self, peer_id: int) -> int:
        """Number of acceptable peers of ``peer_id``."""
        return len(self.acceptable_peers(peer_id))

    def peer_ids(self) -> List[int]:
        """All peer ids, sorted."""
        return self.population.ids()

    # -- mutation (churn support) ---------------------------------------------

    def declare_acceptable(self, p: int, q: int) -> None:
        """Add the symmetric acceptability edge (p, q)."""
        if p not in self.population or q not in self.population:
            raise UnknownPeerError(f"cannot link unknown peers ({p}, {q})")
        if p == q:
            raise ModelError("a peer cannot accept itself")
        self.graph.add_edge(p, q)

    def declare_unacceptable(self, p: int, q: int) -> None:
        """Remove the acceptability edge (p, q) if present."""
        if self.graph.has_edge(p, q):
            self.graph.remove_edge(p, q)

    def add_peer(self, peer, acceptable: Iterable[int] = ()) -> None:
        """Add a new peer to the population and link it to ``acceptable``."""
        self.population.add(peer)
        self.graph.add_vertex(peer.peer_id)
        for other in acceptable:
            self.declare_acceptable(peer.peer_id, other)

    def remove_peer(self, peer_id: int):
        """Remove a peer from both the population and the graph."""
        peer = self.population.remove(peer_id)
        if self.graph.has_vertex(peer_id):
            self.graph.remove_vertex(peer_id)
        return peer

    def copy(self) -> "AcceptanceGraph":
        """Independent copy sharing no mutable state."""
        return AcceptanceGraph(self.population.copy(), self.graph.copy())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"AcceptanceGraph(n={len(self.population)}, edges={self.graph.edge_count})"
        )
