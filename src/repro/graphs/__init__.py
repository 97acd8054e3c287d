"""Acceptance-graph substrate.

The paper's model restricts collaborations to pairs present in an
*acceptance graph*.  This subpackage provides:

* :mod:`repro.graphs.base` -- a compact undirected-graph data structure
  (adjacency sets over integer peer ids).
* :mod:`repro.graphs.erdos_renyi` -- the loopless symmetric Erdős–Rényi
  generator used throughout Sections 3 and 5.
* :mod:`repro.graphs.complete` -- complete acceptance graphs (Section 4's
  "toy model"); their clusters are analysed in
  :mod:`repro.stratification.clustering`.
"""

from repro.graphs.base import UndirectedGraph
from repro.graphs.complete import complete_graph
from repro.graphs.erdos_renyi import erdos_renyi_graph, expected_degree_to_probability

__all__ = [
    "UndirectedGraph",
    "complete_graph",
    "erdos_renyi_graph",
    "expected_degree_to_probability",
]
