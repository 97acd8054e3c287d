"""Compact undirected graph over integer vertex ids.

The acceptance graphs and collaboration graphs in the paper are simple
undirected graphs whose vertices are peer identifiers.  We keep a dedicated
lightweight structure (adjacency sets in a dict) rather than pulling in
``networkx`` for the hot paths: the convergence simulations touch edges
millions of times and benefit from direct set operations, and the structure
doubles as the configuration (matching) representation in
:mod:`repro.core.matching`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

__all__ = ["UndirectedGraph"]


class UndirectedGraph:
    """A simple undirected graph (no loops, no parallel edges).

    Vertices are arbitrary hashable ids (in practice integer peer ids).
    """

    def __init__(self, vertices: Optional[Iterable[int]] = None) -> None:
        self._adjacency: Dict[int, Set[int]] = {}
        if vertices is not None:
            for vertex in vertices:
                self.add_vertex(vertex)

    @classmethod
    def from_neighbor_lists(
        cls, vertices: Iterable[int], neighbor_lists: Iterable[Iterable[int]]
    ) -> "UndirectedGraph":
        """Build a graph in one pass from each vertex's neighbors.

        ``neighbor_lists`` yields the neighbors of each vertex of ``vertices``,
        in the same order, and each neighbor set is filled in the order given.
        Only the number of lists is checked: they must already be symmetric
        and free of loops and repeats.  This is the bulk path for samplers
        that hold the whole edge set at once; :meth:`add_edge` is the checked
        one.
        """
        graph = cls()
        graph._adjacency = dict(zip(vertices, map(set, neighbor_lists), strict=True))
        return graph

    # -- vertices -----------------------------------------------------------

    def add_vertex(self, vertex: int) -> None:
        """Add a vertex (no effect if already present)."""
        self._adjacency.setdefault(vertex, set())

    def remove_vertex(self, vertex: int) -> None:
        """Remove a vertex and all its incident edges."""
        if vertex not in self._adjacency:
            raise KeyError(f"vertex {vertex} not in graph")
        for neighbor in list(self._adjacency[vertex]):
            self._adjacency[neighbor].discard(vertex)
        del self._adjacency[vertex]

    def has_vertex(self, vertex: int) -> bool:
        """Whether the vertex is present."""
        return vertex in self._adjacency

    def vertices(self) -> List[int]:
        """List of vertices (sorted for determinism)."""
        return sorted(self._adjacency)

    @property
    def vertex_count(self) -> int:
        """Number of vertices."""
        return len(self._adjacency)

    # -- edges --------------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge (u, v); vertices are created as needed."""
        if u == v:
            raise ValueError(f"self-loops are not allowed (vertex {u})")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the undirected edge (u, v)."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) not in graph")
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge (u, v) exists."""
        return u in self._adjacency and v in self._adjacency[u]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges once each, as (min, max) pairs."""
        for u in sorted(self._adjacency):
            for v in sorted(self._adjacency[u]):
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2

    # -- neighborhoods ------------------------------------------------------

    def neighbors(self, vertex: int) -> Set[int]:
        """The neighbor set of a vertex (a copy-safe frozen view is not
        needed; callers must not mutate the returned set)."""
        if vertex not in self._adjacency:
            raise KeyError(f"vertex {vertex} not in graph")
        return self._adjacency[vertex]

    def degree(self, vertex: int) -> int:
        """Number of neighbors of a vertex."""
        return len(self.neighbors(vertex))

    def degrees(self) -> Dict[int, int]:
        """Mapping vertex -> degree."""
        return {vertex: len(neighbors) for vertex, neighbors in self._adjacency.items()}

    # -- utilities ----------------------------------------------------------

    def copy(self) -> "UndirectedGraph":
        """Deep copy of the graph."""
        clone = UndirectedGraph()
        clone._adjacency = {vertex: set(neighbors) for vertex, neighbors in self._adjacency.items()}
        return clone

    def relabel(self, mapping: Mapping[int, int]) -> None:
        """Rename every vertex ``v`` to ``mapping[v]``, in place.

        The new labels must be distinct.  Vertices keep their order, and each
        neighbor set is refilled in ascending order of the old ids, so the
        result does not depend on set iteration order.  The old sets are
        released one by one, so the graph is never held twice.
        """
        old = self._adjacency
        if len({mapping[vertex] for vertex in old}) != len(old):
            raise ValueError("relabelling must give distinct vertices distinct labels")
        new: Dict[int, Set[int]] = {}
        for vertex in list(old):
            new[mapping[vertex]] = set(map(mapping.__getitem__, sorted(old.pop(vertex))))
        self._adjacency = new

    def subgraph(self, vertices: Iterable[int]) -> "UndirectedGraph":
        """The induced subgraph on the given vertices."""
        keep = set(vertices)
        sub = UndirectedGraph(keep & set(self._adjacency))
        for u in sub.vertices():
            for v in self._adjacency[u]:
                if v in keep and u < v:
                    sub.add_edge(u, v)
        return sub

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._adjacency

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self._adjacency == other._adjacency

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"UndirectedGraph(|V|={self.vertex_count}, |E|={self.edge_count})"
