"""Vectorized convergence dynamics (the ``engine="fast"`` backend).

:class:`FastConvergenceSimulator` is the array backend of
:class:`repro.core.dynamics.ConvergenceSimulator`: it inherits the Section
3 initiative process (the stream draws, the initiating-peer choice, the
disorder sampling and the churn hooks' call order) and overrides only the
hooks that store and change the configuration.  The fast strategies below
scan candidates and consume the generator they are handed in the
reference strategies' order, so a shared
:class:`~repro.sim.random_source.RandomSource` seed yields bit-identical
disorder trajectories and final configurations on both engines.  That
contract is what lets the reference engine act as the correctness oracle
in ``tests/test_engine_equivalence.py``.

Each set-up (and each churn ``refresh``) builds a :class:`PeerArrays`
snapshot on whole arrays and its stable table in one call of the compiled
Algorithm 1, :func:`~repro.core.fast.engine.fast_stable_table`, so the
first fast simulator of a process compiles that kernel.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.acceptance import AcceptanceGraph
from repro.core.dynamics import ConvergenceSimulator
from repro.core.exceptions import ModelError
from repro.core.fast.arrays import PeerArrays
from repro.core.fast.engine import FastMatching, fast_stable_table
from repro.core.initiatives import (
    BestMateInitiative,
    DecrementalInitiative,
    InitiativeStrategy,
    RandomInitiative,
)
from repro.core.matching import Matching
from repro.core.ranking import GlobalRanking
from repro.sim.random_source import RandomSource

__all__ = [
    "FastInitiativeStrategy",
    "FastBestMateInitiative",
    "FastDecrementalInitiative",
    "FastRandomInitiative",
    "make_fast_strategy",
    "FastConvergenceSimulator",
]


class FastInitiativeStrategy:
    """How an initiating peer index scans its neighborhood (array engine)."""

    name: str = "abstract"

    def propose(
        self, matching: FastMatching, peer: int, rng: np.random.Generator
    ) -> int:
        """Dense index of the proposal target, or ``-1`` for nobody."""
        raise NotImplementedError

    def take_initiative(
        self, matching: FastMatching, peer: int, rng: np.random.Generator
    ) -> bool:
        """Run one initiative of ``peer``; return whether it was active."""
        target = self.propose(matching, peer, rng)
        if target < 0:
            return False
        return matching.apply_initiative(peer, target)


class FastBestMateInitiative(FastInitiativeStrategy):
    """Propose to the best available blocking mate."""

    name = "best-mate"

    def propose(
        self, matching: FastMatching, peer: int, rng: np.random.Generator
    ) -> int:
        del rng
        return matching.best_blocking_mate(peer)


class FastDecrementalInitiative(FastInitiativeStrategy):
    """Circular scan of the rank-sorted neighborhood, resuming where it stopped.

    The cursor is keyed by *peer id* (not dense index) so that it survives
    the array rebuilds of the churn pipeline, exactly like the reference
    strategy's per-peer dictionary.
    """

    name = "decremental"

    def __init__(self) -> None:
        self._cursor: Dict[int, int] = {}

    def propose(
        self, matching: FastMatching, peer: int, rng: np.random.Generator
    ) -> int:
        del rng
        arrays = matching.arrays
        start, end = arrays.indptr[peer], arrays.indptr[peer + 1]
        count = int(end - start)
        if count == 0:
            return -1
        peer_id = int(arrays.ids[peer])
        position = self._cursor.get(peer_id, 0) % count
        self._cursor[peer_id] = (position + 1) % count
        return int(arrays.adj[start + position])

    def reset(self) -> None:
        """Forget all scan positions."""
        self._cursor.clear()


class FastRandomInitiative(FastInitiativeStrategy):
    """Propose to one uniformly random acceptable peer.

    ``rng.choice`` is applied to the id-sorted neighborhood, the same
    candidate order (and hence the same stream consumption) as the
    reference :class:`~repro.core.initiatives.RandomInitiative`.
    """

    name = "random"

    def propose(
        self, matching: FastMatching, peer: int, rng: np.random.Generator
    ) -> int:
        arrays = matching.arrays
        start, end = arrays.indptr[peer], arrays.indptr[peer + 1]
        if start == end:
            return -1
        candidate_ids = arrays.adj_ids[start:end]
        target_id = int(rng.choice(candidate_ids))
        position = int(np.searchsorted(candidate_ids, target_id))
        return int(arrays.adj_by_id[start + position])


_FAST_STRATEGIES = {
    "best-mate": FastBestMateInitiative,
    "decremental": FastDecrementalInitiative,
    "random": FastRandomInitiative,
}

# Exact reference classes with a fast twin.  Subclasses are deliberately
# NOT matched: a subclass overriding propose() would be silently replaced
# by the stock behavior, producing wrong results with no error.
_REFERENCE_TWINS = {
    BestMateInitiative: "best-mate",
    DecrementalInitiative: "decremental",
    RandomInitiative: "random",
}


def make_fast_strategy(
    strategy: Union[str, InitiativeStrategy, FastInitiativeStrategy],
) -> FastInitiativeStrategy:
    """Resolve a strategy name (or a stock reference strategy) to its fast twin.

    Accepts a strategy name, a :class:`FastInitiativeStrategy`, or an
    instance of one of the three stock reference classes (matched by exact
    type; any scan-cursor state starts fresh).  Custom
    :class:`InitiativeStrategy` subclasses cannot be vectorized
    automatically; use ``engine="reference"`` for those.
    """
    if isinstance(strategy, FastInitiativeStrategy):
        return strategy
    if isinstance(strategy, str):
        name = strategy
    else:
        name = _REFERENCE_TWINS.get(type(strategy))
    if name not in _FAST_STRATEGIES:
        raise ModelError(
            f"the fast engine has no equivalent of strategy {strategy!r}; "
            f"available: {sorted(_FAST_STRATEGIES)} (or use engine='reference')"
        )
    return _FAST_STRATEGIES[name]()


class FastConvergenceSimulator(ConvergenceSimulator):
    """The array backend of :class:`~repro.core.dynamics.ConvergenceSimulator`.

    Takes the simulator's arguments (``engine`` may be left out); normally
    reached through ``ConvergenceSimulator(..., engine="fast")``.  It
    inherits the initiative protocol (``run``) and overrides the backend
    hooks on a :class:`PeerArrays` snapshot, its stable table and a
    :class:`FastMatching`.  ``run`` returns the final configuration
    converted back to a reference ``Matching``.
    """

    engine = "fast"
    strategy: FastInitiativeStrategy
    matching: FastMatching

    def __init__(
        self,
        acceptance: AcceptanceGraph,
        strategy: Union[str, InitiativeStrategy, FastInitiativeStrategy] = "best-mate",
        source: Optional[RandomSource] = None,
        *,
        engine: Optional[str] = None,
    ) -> None:
        super().__init__(acceptance, make_fast_strategy(strategy), source, engine=engine)

    def _solve(self) -> None:
        self.ranking = GlobalRanking.from_population(self.acceptance.population)
        self.arrays = PeerArrays.build(self.acceptance, self.ranking)
        self.stable_table = fast_stable_table(self.arrays)
        self._stable_sorted = self.stable_table.sorted_rank_table()

    @property
    def stable(self) -> Matching:
        """The stable table converted to a reference ``Matching``."""
        return self.stable_table.to_matching(self.acceptance)

    def load(self, initial: Optional[Union[Matching, FastMatching]] = None) -> None:
        self.matching = FastMatching(self.arrays)
        if initial is not None:
            self.matching.load_pairs(initial.pairs())

    def bind_initiative(self) -> Callable[[int, np.random.Generator], bool]:
        # Dense index i is the i-th sorted peer id, so the protocol's draw
        # picks the same peer as on the reference engine.
        return partial(self.strategy.take_initiative, self.matching)

    def disorder(self) -> float:
        return self.matching.disorder(self._stable_sorted)

    def converged(self) -> bool:
        return bool((self.matching.sorted_rank_table() == self._stable_sorted).all())

    def final_matching(self) -> Matching:
        return self.matching.to_matching(self.acceptance)

    # The CSR snapshot is immutable: a leave or a join keeps the surviving
    # pairs, and refresh rebuilds the arrays and reloads them.

    def leave(self, peer_id: int) -> None:
        self._survivors: List[Tuple[int, int]] = [
            pair for pair in self.matching.pairs() if peer_id not in pair
        ]

    def join(self, peer_id: int) -> None:
        del peer_id  # a fresh peer joins unmatched
        self._survivors = self.matching.pairs()

    def refresh(self) -> None:
        self._solve()
        self.load()
        self.matching.load_pairs(self._survivors)
