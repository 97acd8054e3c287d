"""Vectorized swarm engine (``engine="fast"`` for the BitTorrent layer).

* :mod:`repro.bittorrent.fast.bitfields` -- packed-bit bitfield matrix for
  the whole swarm (interest tests as byte-wise boolean algebra).
* :mod:`repro.bittorrent.fast.choking` -- batched Tit-for-Tat rechoke
  (one lexsort over the received-volume edge array) plus the optimistic
  rotation state as arrays.
* :mod:`repro.bittorrent.fast.tracker` -- array-backed tracker announces.
* :mod:`repro.bittorrent.fast.kernel` -- the rechoke of a run of leechers
  and the per-transfer apply loop as one C kernel, compiled once per
  process and drawing from numpy's own bit generator.
* :mod:`repro.bittorrent.fast.swarm` -- :class:`FastSwarmSimulator`, the
  array state backend behind ``SwarmSimulator(config, engine="fast")``.

The engine keeps the contract of :mod:`repro.core.fast`: bit-identical
results under a shared seed, with the reference implementation as the
correctness oracle (``tests/test_swarm_engine_equivalence.py``).  Unlike
the matching engines, the two swarm engines run one round protocol,
:class:`repro.bittorrent.swarm.SwarmSimulator`, which draws every random
stream; this package holds only the swarm's state and its hot path.
"""

from repro.bittorrent.fast.bitfields import BitfieldMatrix
from repro.bittorrent.fast.choking import FastChokerState, batched_regular_slots
from repro.bittorrent.fast.swarm import FastSwarmSimulator
from repro.bittorrent.fast.tracker import FastTracker, build_neighbor_csr

__all__ = [
    "BitfieldMatrix",
    "FastChokerState",
    "batched_regular_slots",
    "FastSwarmSimulator",
    "FastTracker",
    "build_neighbor_csr",
]
