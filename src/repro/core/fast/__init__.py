"""Vectorized, array-backed matching engine.

Architecture overview
---------------------

The reference implementation in :mod:`repro.core.matching` /
:mod:`repro.core.dynamics` stores the acceptance graph as adjacency sets
and the configuration as ``Dict[int, Set[int]]``.  That representation is
ideal for correctness (every operation validates its invariants) but every
initiative walks Python dictionaries edge by edge, which caps practical
swarm sizes at a few thousand peers.

This subpackage re-expresses the model's state as flat integer arrays so
that each initiative becomes one compiled call over a single neighborhood
slice and a few mate-table rows.  The Section 3 process itself is not
repeated here: it is written once, in
:class:`repro.core.dynamics.ConvergenceSimulator`.

* :mod:`repro.core.fast.arrays` -- :class:`PeerArrays`, an immutable
  CSR-style snapshot of the acceptance graph.  Peers are densely indexed
  ``0..n-1`` in peer-id order; ``indptr``/``adj`` hold each neighborhood
  twice, once sorted by global rank (preference order, used by the
  best-mate and decremental scans) and once sorted by peer id (used by the
  random strategy so that it consumes the random stream exactly like the
  reference implementation).  Global-ranking comparisons are precomputed
  into ``rank`` / ``adj_rank`` arrays, so preference tests are integer
  comparisons with no hashing.  A build reads every neighbor set in one
  pass and orders all rows with two sorts.

* :mod:`repro.core.fast.engine` -- :class:`FastMatching`, the mutable
  configuration: a fixed-width ``(n, b_max)`` mate table plus per-peer
  degree counts and an *acceptance threshold* array ``thr`` where peer
  ``i`` accepts candidate ``c`` iff ``rank[c] < thr[i]``, all three
  written in place.  An initiative (the best-blocking-mate scan over the
  rank-sorted neighborhood, the blocking test, the worst-mate drops and
  the match) is one kernel call.  The module also hosts the array
  version of Algorithm 1 (:func:`fast_stable_table`), the whole-array
  conversions to and from peer-id pairs and the fully vectorized
  disorder metric.

* :mod:`repro.core.fast.kernel` -- the C kernel: Algorithm 1's greedy
  pass, one call over the rank-sorted CSR, and one initiative, one call
  on a struct of pointers into the CSR and the configuration.  It is
  compiled once per process, on first use, through the loader the fast
  swarm shares (:mod:`repro.sim.native`), so the fast engine needs a C
  compiler; :class:`~repro.sim.native.KernelBuildError` names it when
  there is none.  ``engine="reference"`` needs none.

* :mod:`repro.core.fast.dynamics` -- the three strategies on arrays (each
  picks a target, or lets the kernel scan for the best blocking mate) and
  :class:`FastConvergenceSimulator`, the array backend of
  :class:`repro.core.dynamics.ConvergenceSimulator`.  It inherits the
  initiative protocol (which draws every stream and picks the initiating
  peers) and overrides only the hooks that load, change, compare and
  return the configuration, so the two engines produce *bit-identical*
  disorder trajectories and final configurations -- the reference engine
  stays the correctness oracle (see ``tests/test_engine_equivalence.py``).

Choosing a backend
------------------

Everything here is reachable through the ``engine="fast"`` switch on the
public entry points (:class:`repro.core.dynamics.ConvergenceSimulator`,
which builds a :class:`FastConvergenceSimulator` for it,
:func:`repro.core.dynamics.simulate_convergence`,
:func:`repro.core.dynamics.simulate_peer_removal`,
:func:`repro.core.churn.simulate_churn`, the stratification pipelines).
Algorithm 1 alone has one entry point,
:func:`repro.core.stable.stable_configuration`, with no engine switch;
:func:`fast_stable_table` exists for the array backend's own use, which
needs the stable table on arrays.  Use ``"fast"`` for large systems
(n >= a few thousand) or long horizons; use ``"reference"`` (the default)
when single-step introspection, custom
:class:`~repro.core.initiatives.InitiativeStrategy` subclasses,
maximum-transparency debugging or a host without a C compiler matter
more than throughput.  Under churn the fast backend still rebuilds its
arrays and stable table on every event.
"""

from repro.core.fast.arrays import PeerArrays
from repro.core.fast.engine import FastMatching, fast_stable_table
from repro.core.fast.dynamics import FastConvergenceSimulator

__all__ = [
    "PeerArrays",
    "FastMatching",
    "fast_stable_table",
    "FastConvergenceSimulator",
]
