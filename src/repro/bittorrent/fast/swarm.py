"""The array state backend of the swarm simulator (``engine="fast"``).

:class:`FastSwarmSimulator` is a state backend under the one round
protocol, :class:`repro.bittorrent.swarm.SwarmSimulator`.  The protocol
draws every named random stream and runs every membership, fault,
resilience, gossip and telemetry step; this module only stores the swarm
as flat arrays and runs the per-round hot path on them:

* every bitfield lives in one packed-bit ``uint8`` matrix
  (:class:`~repro.bittorrent.fast.bitfields.BitfieldMatrix`), so interest
  tests are byte-wise ``AND``/``NOT`` over tracker edges instead of Python
  set differences;
* piece availability is one integer vector maintained incrementally;
* the Tit-for-Tat slots of all peers are ranked in a single
  :func:`numpy.lexsort` over the received-volume edge array
  (:func:`~repro.bittorrent.fast.choking.batched_regular_slots`);
* tracker announces are array-backed
  (:class:`~repro.bittorrent.fast.tracker.FastTracker`);
* the rest of the rechoke -- each leecher's regular slots, optimistic
  rotation with its per-peer age, and spare-slot fill, with their
  shuffles -- is one call per run of consecutive leechers into the
  compiled C kernel (:func:`~repro.bittorrent.fast.kernel.leecher_unchoke`);
  the few seeds between runs keep the reference seed policy, and every
  sender's share comes from one vectorized budget rule;
* the transfer loop -- wanted masks, credit, piece picks and their
  bounded draws, bitfield and availability updates -- is one call per
  round into the same kernel
  (:func:`~repro.bittorrent.fast.kernel.apply_transfers`).

Both compiled functions draw from the rounds generator's own bit
generator, exactly as numpy's ``shuffle`` and ``integers`` do.

Dynamic membership breaks the fixed-width assumption the arrays were born
with, so the adjacency is two-tier: the *live adjacency* is a list of
Python neighbor sets the protocol's connect, depart, crash and gossip
steps mutate, and the *CSR edge arrays* the vectorized passes run over
are a frozen snapshot of it, re-frozen (``_rebuild_csr``) before the
first plan after a change.  Peer rows grow geometrically
(:meth:`BitfieldMatrix.add_peers`) and are tombstoned via an ``alive``
mask on departure -- ids are never reused, so a row index stays valid for
the whole run.

The backend is *bit-identical* to the reference one: its plan and apply
passes consume the rounds generator the protocol hands them draw for draw
(same shuffles, same bounded-integer draws, in the same order), and the
float accounting applies the same IEEE operations in the same sequence.
``tests/test_swarm_engine_equivalence.py`` enforces the contract.  The
speedup (>= 5x at 5k leechers, gated by
``benchmarks/bench_swarm_speedup.py``) comes from two replacements of
per-peer and per-piece Python set algebra: vectorized passes and the
compiled rechoke in the plan, and the compiled loop over packed
bitfields in the apply pass.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.bittorrent.fast import kernel
from repro.bittorrent.fast.bitfields import BitfieldMatrix
from repro.bittorrent.fast.choking import FastChokerState, batched_regular_slots
from repro.bittorrent.fast.tracker import (
    FastTracker,
    build_neighbor_csr,
    neighbor_sets_to_csr,
)
from repro.bittorrent.piece_selection import make_selector
from repro.bittorrent.swarm import SwarmPeer, SwarmResult, SwarmSimulator, Transfer

# Not called here: the round protocol in repro.bittorrent.swarm is their
# only caller.  perfbench/layers.py traces both as globals of this module
# as well, so they stay importable from it.
from repro.bittorrent.behaviors import filter_contacts  # noqa: F401
from repro.bittorrent.resilience import sample_pools  # noqa: F401

__all__ = ["FastSwarmSimulator"]


class FastSwarmSimulator(SwarmSimulator):
    """Array-backed state backend; see the module docstring.

    Takes the arguments of :class:`SwarmSimulator` (``engine`` may be
    left out); normally reached through
    ``SwarmSimulator(config, engine="fast")``.  Peer ``pid`` lives in
    dense row ``pid - 1``.
    """

    engine = "fast"
    tracker_type = FastTracker
    tracker: FastTracker

    def run(self) -> SwarmResult:
        """Run the round protocol over the array state.

        Defined here rather than inherited, so a fast run has an entry
        point of its own (``perfbench`` times it as a layer) that a
        reference run never enters.
        """
        return super().run()

    # -- state -------------------------------------------------------------------

    def _init_state(self) -> None:
        config = self.config
        make_selector(config.piece_selection)  # validate the policy name
        kernel.load()  # compiled once per process, before any state exists
        self.n_total = 0
        self.bitfields = BitfieldMatrix(0, config.piece_count)
        self.counts = np.zeros(config.piece_count, dtype=np.int64)
        self.alive = np.zeros(0, dtype=bool)
        self.is_seed = np.zeros(0, dtype=bool)
        self.can_download = np.zeros(0, dtype=bool)
        self.unchokes = np.zeros(0, dtype=bool)
        self.uploads = np.zeros(0, dtype=np.float64)
        self.upload_factor = np.zeros(0, dtype=np.float64)
        self.reveal_limit = np.zeros(0, dtype=np.int64)  # -1: no limit
        self.downloaded = np.zeros(0, dtype=np.float64)
        self.uploaded = np.zeros(0, dtype=np.float64)
        self.completed_round: List[Optional[int]] = []
        self.arrival_round: List[int] = []
        # The *live* adjacency over dense indices; the CSR arrays are its
        # frozen snapshot for the vectorized passes.
        self.neighbor_sets: List[Set[int]] = []
        self._adjacency_dirty = False
        self.chokers = FastChokerState(
            regular_slots=config.regular_slots,
            optimistic_slots=config.optimistic_slots,
            optimistic_period=config.optimistic_period,
            seed_slots=config.seed_slots,
        )
        # partial[receiver][sender] = kilobits short of the next whole piece
        # (peer ids) -- the mirror of SwarmPeer.partial_kbit.
        self.partial: Dict[int, Dict[int, float]] = {}
        self._last_received: Dict[int, Dict[int, float]] = {}

    def _add_peers(
        self, uploads: List[float], pieces: List[Optional[np.ndarray]], arrival_round: int
    ) -> None:
        count = len(uploads)
        base = self.bitfields.add_peers(count)
        profiles = self._profiles[base:]
        self.alive = np.concatenate([self.alive, np.ones(count, dtype=bool)])
        self.is_seed = np.concatenate(
            [self.is_seed, np.array([held is None for held in pieces], dtype=bool)]
        )
        self.can_download = np.concatenate(
            [self.can_download, np.array([p.downloads for p in profiles], dtype=bool)]
        )
        self.unchokes = np.concatenate(
            [self.unchokes, np.array([p.unchokes for p in profiles], dtype=bool)]
        )
        self.uploads = np.concatenate([self.uploads, np.array(uploads, dtype=np.float64)])
        self.upload_factor = np.concatenate(
            [self.upload_factor, np.array([p.upload_factor for p in profiles], dtype=np.float64)]
        )
        limits = [-1 if p.reveal_limit is None else p.reveal_limit for p in profiles]
        self.reveal_limit = np.concatenate([self.reveal_limit, np.array(limits, dtype=np.int64)])
        self.downloaded = np.concatenate([self.downloaded, np.zeros(count)])
        self.uploaded = np.concatenate([self.uploaded, np.zeros(count)])
        self.completed_round.extend([None] * count)
        self.arrival_round.extend([arrival_round] * count)
        self.neighbor_sets.extend(set() for _ in range(count))
        self.chokers.add_rows(count)
        for i, held in enumerate(pieces, start=base):
            if held is None:
                self.bitfields.set_complete(i)
            else:
                self.bitfields.fill(i, held)
        self.counts += np.unpackbits(
            self.bitfields.packed[base : base + count], axis=1, count=self.config.piece_count
        ).sum(axis=0, dtype=np.int64)
        self.n_total = base + count
        self._adjacency_dirty = True

    def _announce_population(self, count: int, rng: np.random.Generator) -> None:
        """Announce the initial peers and freeze the first CSR in one pass."""
        self.indptr, self.adj, self.neighbor_sets = build_neighbor_csr(
            count,
            self.tracker,
            rng,
            contact_filter=self._filter_contacts if self._behaviors_active else None,
        )
        self._freeze_edges()
        self._adjacency_dirty = False

    def _connect(self, pid: int, contacts: Iterable[int]) -> int:
        i = pid - 1
        mine = self.neighbor_sets[i]
        added = 0
        for contact in contacts:
            j = contact - 1
            if j == i or j in mine or not self.alive[j]:
                continue  # a crashed peer's stale tracker entry, or no news
            mine.add(j)
            self.neighbor_sets[j].add(i)
            added += 1
        if added:
            self._adjacency_dirty = True
        return added

    def _detach(self, pid: int) -> None:
        """Tombstone ``pid``'s row: unlink its edges, drop credit and choker state."""
        i = pid - 1
        self.alive[i] = False
        self.counts -= self.bitfields.unpack_row(i)
        for j in self.neighbor_sets[i]:
            self.neighbor_sets[j].discard(i)
        self.neighbor_sets[i] = set()
        self.partial.pop(pid, None)
        self.chokers.drop(i)
        self._adjacency_dirty = True

    def _depart_peer(self, pid: int) -> SwarmPeer:
        snapshot = self._snapshot(pid)
        self._detach(pid)
        return snapshot

    def _crash_peer(self, pid: int) -> SwarmPeer:
        # The snapshot is taken after the scrub, so it matches the
        # reference backend's crashed peer field for field.
        self._detach(pid)
        self._last_received.pop(pid, None)
        return self._snapshot(pid)

    def _rejoin_peer(self, snapshot: SwarmPeer) -> None:
        i = snapshot.peer_id - 1
        self.alive[i] = True
        self.counts += self.bitfields.unpack_row(i)
        self._adjacency_dirty = True

    def _live_ids(self) -> List[int]:
        ids: List[int] = (np.flatnonzero(self.alive) + 1).tolist()
        return ids

    def _sorted_neighbors(self, pid: int) -> List[int]:
        return sorted(j + 1 for j in self.neighbor_sets[pid - 1])

    def _pieces_held(self, pid: int) -> Optional[int]:
        i = pid - 1
        return int(self.bitfields.have_count[i]) if self.alive[i] else None

    def _incomplete_count(self) -> int:
        live = self.alive & ~self.is_seed & self.can_download
        have = self.bitfields.have_count[: self.n_total]
        return int((have[live] < self.config.piece_count).sum())

    def _snapshot(self, pid: int) -> SwarmPeer:
        i = pid - 1
        return SwarmPeer(
            peer_id=pid,
            upload_kbps=float(self.uploads[i]),
            is_seed=bool(self.is_seed[i]),
            bitfield=self.bitfields.to_bitfield(i),
            neighbors={j + 1 for j in self.neighbor_sets[i]},
            downloaded_kbit=float(self.downloaded[i]),
            uploaded_kbit=float(self.uploaded[i]),
            partial_kbit=dict(self.partial.get(pid, {})),
            received_last_round=dict(self._last_received.get(pid, {})),
            completed_round=self.completed_round[i],
            arrival_round=self.arrival_round[i],
            behavior=self._profiles[i].name,
            locality_group=self._groups[i],
        )

    # -- edge arrays ---------------------------------------------------------------

    def _freeze_edges(self) -> None:
        """Derive the per-edge arrays from the current (indptr, adj) CSR."""
        n = self.n_total
        self.edge_peer = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.indptr)
        )
        self.adj_pid = self.adj + 1
        # Globally sorted (owner, partner) key: CSR segments are peer-ordered
        # and id-sorted inside, so one searchsorted resolves any edge slot.
        self._key_mult = n
        self.edge_key = self.edge_peer * n + self.adj
        # An unchoke target must be a non-seed that actually downloads
        # (partial seeds never request); frozen with the CSR since the
        # download flag only changes when membership does.
        self.adj_target = ~self.is_seed[self.adj]
        if self._behaviors_active:
            self.adj_target &= self.can_download[self.adj]
        self.recv_edge = np.zeros(self.adj.shape[0], dtype=np.float64)

    def _rebuild_csr(self) -> None:
        """Re-freeze the live adjacency after a membership or gossip change.

        Departed peers have empty segments (their sets were scrubbed), new
        arrivals bring their announce edges in; last round's received
        volumes are re-projected onto the new edge layout so the coming
        rechoke sees exactly what the reference chokers see.
        """
        self.indptr, self.adj = neighbor_sets_to_csr(self.neighbor_sets)
        self._freeze_edges()
        self._project_received()
        self._adjacency_dirty = False

    # -- the round -----------------------------------------------------------------

    def _interest_pass(self) -> np.ndarray:
        """Directed per-edge interest: is the partner an unchoke target?

        Edge (p -> q) is set when q is a non-seed that misses a piece p
        holds -- the reference's ``is_interested_in`` test, vectorized.
        Completed sources (seeds included) short-circuit to "q incomplete",
        so late rounds cost almost nothing.
        """
        piece_count = self.config.piece_count
        have = self.bitfields.have_count
        candidate = self.adj_target & (have[self.adj] < piece_count)
        interested = np.zeros(self.adj.shape[0], dtype=bool)
        src_complete = have[self.edge_peer] == piece_count
        interested[candidate & src_complete] = True
        rest = np.flatnonzero(candidate & ~src_complete)
        if rest.size:
            interested[rest] = self.bitfields.edge_interest(
                self.edge_peer[rest], self.adj[rest]
            )
        return interested

    def _plan_round(
        self, rng: np.random.Generator
    ) -> Tuple[List[Transfer], Set[Tuple[int, int]]]:
        if self._adjacency_dirty:
            self._rebuild_csr()
        config = self.config
        interested = self._interest_pass()
        regular_owner, regular_partner = batched_regular_slots(
            self.edge_peer,
            self.adj_pid,
            self.recv_edge,
            interested,
            config.regular_slots,
        )
        active_edges = np.flatnonzero(interested)
        if active_edges.size == 0:
            return [], set()
        # The owners with at least one interested edge, ascending (CSR
        # order), each with its segment of interested partner ids.
        # Never-upload owners are dropped before any draw, exactly where
        # the reference skips them, so the rounds stream stays aligned.
        edge_owner = self.edge_peer[active_edges]
        partners = self.adj_pid[active_edges]
        lo = np.flatnonzero(np.r_[True, edge_owner[1:] != edge_owner[:-1]])
        hi = np.r_[lo[1:], edge_owner.size]
        owners = edge_owner[lo]
        keep = self.unchokes[owners]
        if not keep.any():
            return [], set()
        owners, lo, hi = owners[keep], lo[keep], hi[keep]
        # Seeds cut the owners into runs of leechers: one kernel call per
        # run and the seed policy in between consume the rounds stream in
        # ascending row order, as the reference sweep does.
        parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        begin = 0
        for cut in [*np.flatnonzero(self.is_seed[owners]).tolist(), owners.size]:
            if begin < cut:
                parts.append(
                    self.chokers.leecher_unchoke(
                        rng,
                        owners[begin:cut],
                        lo[begin:cut],
                        hi[begin:cut],
                        partners,
                        regular_owner,
                        regular_partner,
                    )
                )
            if cut < owners.size:
                unchoked = self.chokers.seed_unchoke(
                    partners[lo[cut] : hi[cut]].tolist(), rng
                )
                parts.append(
                    (
                        np.full(len(unchoked), owners[cut]),
                        np.array(unchoked, dtype=np.int64),
                        np.zeros(len(unchoked), dtype=bool),
                    )
                )
            begin = cut + 1
        rows, targets, regular = (np.concatenate(column) for column in zip(*parts))
        # One budget rule for every sender, element-wise in float64: the
        # factor multiplies only where it is not 1.0, so standard peers keep
        # the exact float sequence of the behavior-free code path.
        budget = self.uploads[rows] * config.round_seconds
        factor = self.upload_factor[rows]
        budget = np.where(factor != 1.0, budget * factor, budget)
        shares = budget / np.bincount(rows, minlength=self.n_total)[rows]
        senders = rows + 1
        transfers = list(zip(senders.tolist(), targets.tolist(), shares.tolist()))
        # Inserted in plan order, as the reference inserts them: the set's
        # iteration order becomes the order of tft_reciprocal_rounds.
        regular_pairs = set(zip(senders[regular].tolist(), targets[regular].tolist()))
        return transfers, regular_pairs

    def _apply_round(
        self,
        transfers: List[Transfer],
        collaboration: Dict[Tuple[int, int], float],
        rng: np.random.Generator,
        round_index: int,
    ) -> List[int]:
        """Run the round's transfers through the C kernel, then the dictionaries.

        The kernel owns the per-transfer loop over the array state.  From
        its per-transfer flags and credits, the dictionaries are updated
        here in transfer order, because their insertion order is part of
        the result.  Each (sender, receiver) pair occurs at most once per
        round, so every credit can be gathered before the call.
        """
        received_now: Dict[int, Dict[int, float]] = {}
        newly_completed: List[int] = []
        if transfers:
            partial = self.partial
            no_credit: Dict[int, float] = {}
            credit = np.array(
                [
                    partial.get(receiver, no_credit).get(sender, 0.0)
                    for sender, receiver, _ in transfers
                ]
            )
            senders, receivers, volumes = zip(*transfers)
            applied, completed = kernel.apply_transfers(
                rng,
                self.config.piece_selection,
                self.config.piece_size_kbit,
                self.bitfields,
                self.counts,
                self.uploaded,
                self.downloaded,
                self.reveal_limit,
                np.array(senders, dtype=np.int64) - 1,
                np.array(receivers, dtype=np.int64) - 1,
                np.array(volumes, dtype=np.float64),
                credit,
            )
            credits = credit.tolist()
            for t in np.flatnonzero(applied).tolist():
                sender, receiver, volume_kbit = transfers[t]
                by_sender = received_now.setdefault(receiver, {})
                by_sender[sender] = by_sender.get(sender, 0.0) + volume_kbit
                key = (sender, receiver) if sender < receiver else (receiver, sender)
                collaboration[key] = collaboration.get(key, 0.0) + volume_kbit
                partial.setdefault(receiver, {})[sender] = credits[t]
            completed_round = self.completed_round
            for t in np.flatnonzero(completed).tolist():
                receiver = transfers[t][1]
                if completed_round[receiver - 1] is None:
                    completed_round[receiver - 1] = round_index
                    newly_completed.append(receiver)

        self._last_received = received_now
        self._project_received()
        return newly_completed

    def _project_received(self) -> None:
        """Scatter ``_last_received`` onto the current edge array.

        Under churn the edge layout may have just been re-frozen, so every
        (receiver, sender) pair is resolved against the live edge keys and
        pairs whose edge disappeared (a departed partner) are dropped --
        the reference chokers never look those up either.
        """
        self.recv_edge.fill(0.0)
        if not self._last_received or self.edge_key.size == 0:
            return
        receivers: List[int] = []
        senders: List[int] = []
        volumes: List[float] = []
        for receiver_pid, by_sender in self._last_received.items():
            for sender_pid, volume in by_sender.items():
                receivers.append(receiver_pid - 1)
                senders.append(sender_pid - 1)
                volumes.append(volume)
        keys = (
            np.asarray(receivers, dtype=np.int64) * self._key_mult
            + np.asarray(senders, dtype=np.int64)
        )
        positions = np.searchsorted(self.edge_key, keys)
        in_range = positions < self.edge_key.size
        positions = np.where(in_range, positions, 0)
        valid = in_range & (self.edge_key[positions] == keys)
        self.recv_edge[positions[valid]] = np.asarray(volumes, dtype=np.float64)[valid]
