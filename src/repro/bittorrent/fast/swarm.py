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
* the plan leaves as the arrays it was computed in, one
  :class:`~repro.bittorrent.transfers.TransferBatch`, and the apply pass
  hands the batch's columns to the kernel as they are;
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
first plan after a change.  A freeze reads the sets in one pass and
orders every row with one sort of packed ``(row, id)`` keys
(:func:`~repro.bittorrent.fast.tracker.neighbor_sets_to_csr`).  Nothing
changes the adjacency between that plan and the round's gossip, so the
snapshot is still current when the protocol asks for every sorted
neighbor row at once (``_neighbor_csr``): the gossip pools are segments
of it.  Peer rows grow geometrically
(:meth:`BitfieldMatrix.add_peers`) and are tombstoned via an ``alive``
mask on departure -- ids are never reused, so a row index stays valid for
the whole run.

The per-pair state lives in arrays keyed by peer rows, not by CSR edge,
so a re-freeze leaves it untouched.  A pair of rows packs into one int64
key (:func:`~repro.bittorrent.transfers.pair_keys`, the one packing of
pairs that the round protocol's pid pairs use too), which bounds a swarm
to :data:`MAX_PEERS` peers, the most whose every pid still packs
(``_add_peers`` fails fast past it).  Three sorted tables hold it:
partial credit keyed by (receiver, sender), the collaboration volume
keyed by (min, max), and last round's receipts keyed by (receiver,
sender), rebuilt from each round's applied transfers.  Each entry keeps
the serial number of the pair's first applied transfer, so sorting a row
by it gives back the insertion order of the reference engine's
dictionaries.  The receipts are projected onto the edge layout once per
round, at the start of the plan after any re-freeze.  A crash drops the
crashed receiver's credit and receipts; a departed receiver's entries
are never read again.  :meth:`FastSwarmSimulator._snapshots` builds
:class:`SwarmPeer`\\ s from all of it in one pass.

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

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bittorrent.fast import kernel
from repro.bittorrent.fast.bitfields import BitfieldMatrix
from repro.bittorrent.fast.choking import FastChokerState, batched_regular_slots
from repro.bittorrent.fast.tracker import (
    FastTracker,
    build_neighbor_csr,
    neighbor_sets_to_csr,
)
from repro.bittorrent.pieces import Bitfield
from repro.bittorrent.swarm import SwarmPeer, SwarmResult, SwarmSimulator
from repro.bittorrent.transfers import PID_SHIFT, TransferBatch, find_keys, pair_keys, split_keys
from repro.core.exceptions import ModelError

# Not called here: the round protocol in repro.bittorrent.swarm is their
# only caller.  perfbench/layers.py traces both as globals of this module
# as well, so they stay importable from it.
from repro.bittorrent.behaviors import filter_contacts  # noqa: F401
from repro.bittorrent.resilience import sample_pools  # noqa: F401

__all__ = ["FastSwarmSimulator", "MAX_PEERS"]

#: Most peers a fast swarm holds: every pid, as the first of a pair,
#: packs into a non-negative int64 key.
MAX_PEERS = (1 << (63 - PID_SHIFT)) - 1


class _PairTable:
    """Floats on ordered row pairs: sorted pair keys, values and serials.

    ``serial`` numbers each pair's first applied transfer, so a row's
    pairs sorted by it come in the insertion order of the dictionary the
    reference engine keeps.
    """

    def __init__(self, key: np.ndarray, value: np.ndarray, serial: np.ndarray) -> None:
        """A table of the distinct pair keys ``key``, sorted here."""
        order = np.argsort(key)
        self.key, self.value, self.serial = key[order], value[order], serial[order]

    @classmethod
    def empty(cls) -> "_PairTable":
        """A table without pairs."""
        no_pairs = np.empty(0, dtype=np.int64)
        return cls(no_pairs, np.empty(0, dtype=np.float64), no_pairs)

    def insert(self, keys: np.ndarray, values: np.ndarray, serials: np.ndarray) -> None:
        """Add distinct keys that are not in the table yet."""
        order = np.argsort(keys)
        at = self.key.searchsorted(keys[order])
        self.key = np.insert(self.key, at, keys[order])
        self.value = np.insert(self.value, at, values[order])
        self.serial = np.insert(self.serial, at, serials[order])

    def drop_row(self, row: int) -> None:
        """Remove every pair whose first row is ``row``."""
        lo, hi = self.key.searchsorted(pair_keys(np.array([row, row + 1]), 0)).tolist()
        self.key, self.value, self.serial = (
            np.concatenate((column[:lo], column[hi:]))
            for column in (self.key, self.value, self.serial)
        )

    def dicts(self, rows: np.ndarray) -> List[Dict[int, float]]:
        """Each of the ascending ``rows``' pairs as ``{other pid: value}``, in serial order.

        One sort by (row, serial) covers the window of the table that the
        rows span, and leaves each row's range where the key order put it.
        """
        lo = self.key.searchsorted(pair_keys(rows, 0))
        hi = self.key.searchsorted(pair_keys(rows + 1, 0))
        begin, end = int(lo[0]), int(hi[-1])
        if begin == end:
            return [{} for _ in range(rows.size)]
        owner, _ = split_keys(self.key[begin:end])
        order = begin + np.lexsort((self.serial[begin:end], owner))
        _, other = split_keys(self.key[order])
        others: List[int] = (other + 1).tolist()
        values: List[float] = self.value[order].tolist()
        return [
            dict(zip(others[start:stop], values[start:stop]))
            for start, stop in zip((lo - begin).tolist(), (hi - begin).tolist())
        ]


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
        # Per-pair state on rows (see the module docstring): each
        # receiver's credit from each sender, the kilobits moved per
        # (min, max) pair, and last round's receipts.
        self._credit = _PairTable.empty()
        self._collaboration = _PairTable.empty()
        self._received = _PairTable.empty()
        self._applied_transfers = 0  # the serial of the next applied transfer

    def _add_peers(
        self, uploads: List[float], pieces: List[Optional[np.ndarray]], arrival_round: int
    ) -> None:
        count = len(uploads)
        if self.n_total + count > MAX_PEERS:
            raise ModelError(
                f"the fast swarm engine holds at most {MAX_PEERS} peers "
                f"(its pair keys pack two peer ids into one int64); "
                f"{self.n_total + count} requested"
            )
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
        """Tombstone ``pid``'s row: unlink its edges and drop its choker state.

        The pair tables keep the row's entries either way.  As a sender,
        its credit at each receiver outlives it, as in the reference
        engine's receiver dicts, and a rejoined sender resumes it.  As a
        receiver, a departed row is never read again, and a crash drops
        its entries itself.
        """
        i = pid - 1
        self.alive[i] = False
        self.counts -= self.bitfields.unpack_row(i)
        for j in self.neighbor_sets[i]:
            self.neighbor_sets[j].discard(i)
        self.neighbor_sets[i] = set()
        self.chokers.drop(i)
        self._adjacency_dirty = True

    def _depart_peer(self, pid: int) -> SwarmPeer:
        (snapshot,) = self._snapshots([pid])
        self._detach(pid)
        return snapshot

    def _crash_peer(self, pid: int) -> SwarmPeer:
        # The crashed receiver loses its credit and receipts; the
        # snapshot is taken after the scrub, so it matches the reference
        # backend's crashed peer field for field.
        self._detach(pid)
        self._credit.drop_row(pid - 1)
        self._received.drop_row(pid - 1)
        (snapshot,) = self._snapshots([pid])
        return snapshot

    def _rejoin_peer(self, snapshot: SwarmPeer) -> None:
        i = snapshot.peer_id - 1
        self.alive[i] = True
        self.counts += self.bitfields.unpack_row(i)
        self._adjacency_dirty = True

    def _live_ids(self) -> List[int]:
        ids: List[int] = (np.flatnonzero(self.alive) + 1).tolist()
        return ids

    def _has_neighbors(self, pid: int) -> bool:
        return bool(self.neighbor_sets[pid - 1])

    def _neighbor_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._adjacency_dirty:
            self._rebuild_csr()
        return self.indptr, self.adj_pid

    def _pieces_held(self, pid: int) -> Optional[int]:
        i = pid - 1
        return int(self.bitfields.have_count[i]) if self.alive[i] else None

    def _incomplete_count(self) -> int:
        live = self.alive & ~self.is_seed & self.can_download
        have = self.bitfields.have_count[: self.n_total]
        return int((have[live] < self.config.piece_count).sum())

    def _snapshots(self, pids: Sequence[int]) -> List[SwarmPeer]:
        """The peers ``pids`` (ascending) as :class:`SwarmPeer`\\ s, in one pass.

        One sort of each pair table's window feeds plain list slices per
        peer.  Bitfields go row by row: a complete row is
        :meth:`Bitfield.complete`, and only the rest unpack their bits.
        """
        if not pids:
            return []
        rows = np.asarray(pids, dtype=np.int64) - 1
        piece_count = self.config.piece_count
        complete = (self.bitfields.have_count[rows] == piece_count).tolist()
        neighbor_sets, profiles, groups = self.neighbor_sets, self._profiles, self._groups
        completed_round, arrival_round = self.completed_round, self.arrival_round
        return [
            SwarmPeer(
                peer_id=i + 1,
                upload_kbps=upload,
                is_seed=seed,
                bitfield=(
                    Bitfield.complete(piece_count) if full else self.bitfields.to_bitfield(i)
                ),
                neighbors={j + 1 for j in neighbor_sets[i]},
                downloaded_kbit=down,
                uploaded_kbit=up,
                partial_kbit=credit,
                received_last_round=received,
                completed_round=completed_round[i],
                arrival_round=arrival_round[i],
                behavior=profiles[i].name,
                locality_group=groups[i],
            )
            for i, upload, seed, full, down, up, credit, received in zip(
                rows.tolist(),
                self.uploads[rows].tolist(),
                self.is_seed[rows].tolist(),
                complete,
                self.downloaded[rows].tolist(),
                self.uploaded[rows].tolist(),
                self._credit.dicts(rows),
                self._received.dicts(rows),
            )
        ]

    def _collaboration_volume(self) -> Dict[Tuple[int, int], float]:
        table = self._collaboration
        order = np.argsort(table.serial)
        low, high = split_keys(table.key[order])
        pairs = zip((low + 1).tolist(), (high + 1).tolist())
        return dict(zip(pairs, table.value[order].tolist()))

    # -- edge arrays ---------------------------------------------------------------

    def _freeze_edges(self) -> None:
        """Derive the per-edge arrays from the current (indptr, adj) CSR."""
        n = self.n_total
        self.edge_peer = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.indptr)
        )
        self.adj_pid = self.adj + 1
        # Globally sorted (owner, partner) pair key: CSR segments are
        # peer-ordered and id-sorted inside, so one searchsorted resolves
        # any edge slot.
        self.edge_key = pair_keys(self.edge_peer, self.adj)
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
        arrivals bring their announce edges in.
        """
        self.indptr, self.adj = neighbor_sets_to_csr(self.neighbor_sets)
        self._freeze_edges()
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

    def _plan_round(self, rng: np.random.Generator) -> TransferBatch:
        if self._adjacency_dirty:
            self._rebuild_csr()
        self._project_received()
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
            return TransferBatch.empty()
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
            return TransferBatch.empty()
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
        return TransferBatch(rows + 1, targets, shares, regular)

    def _apply_round(
        self, transfers: TransferBatch, rng: np.random.Generator, round_index: int
    ) -> List[int]:
        """Run the round's transfers through the C kernel, then the pair tables.

        Each (sender, receiver) pair occurs at most once per round, so one
        gather reads every credit before the call.  After it, the applied
        transfers scatter their credit and volume into the tables and
        become the round's receipts; a pair seen for the first time takes
        its transfer's serial.  At most two applied transfers share a
        (min, max) pair, one per direction, so two scatters, the earlier
        transfer's first, add the volumes in the reference's order.
        """
        if not len(transfers):
            self._received = _PairTable.empty()
            return []
        sender = transfers.senders - 1
        receiver = transfers.receivers - 1
        volume = transfers.kbit
        credit_key = pair_keys(receiver, sender)
        table = self._credit
        at = find_keys(table.key, credit_key)
        known = at >= 0
        credit = np.zeros(volume.size)
        credit[known] = table.value[at[known]]
        applied, completed = kernel.apply_transfers(
            rng,
            self.config.piece_size_kbit,
            self.bitfields,
            self.counts,
            self.uploaded,
            self.downloaded,
            self.reveal_limit,
            sender,
            receiver,
            volume,
            credit,
        )
        done = np.flatnonzero(applied)
        serial = self._applied_transfers + np.arange(done.size, dtype=np.int64)
        self._applied_transfers += int(done.size)
        at = at[done]
        known = at >= 0
        table.value[at[known]] = credit[done[known]]
        fresh = done[~known]
        table.insert(credit_key[fresh], credit[fresh], serial[~known])

        self._received = _PairTable(credit_key[done], 0.0 + volume[done], serial)
        sender, receiver, volume = sender[done], receiver[done], volume[done]
        pair = pair_keys(np.minimum(sender, receiver), np.maximum(sender, receiver))
        _, first = np.unique(pair, return_index=True)
        table = self._collaboration
        fresh = first[find_keys(table.key, pair[first]) < 0]
        table.insert(pair[fresh], np.zeros(fresh.size), serial[fresh])
        at = table.key.searchsorted(pair)
        later = np.ones(pair.size, dtype=bool)
        later[first] = False
        table.value[at[first]] += volume[first]
        table.value[at[later]] += volume[later]

        newly_completed: List[int] = []
        completed_round = self.completed_round
        for pid in transfers.receivers[completed.view(np.bool_)].tolist():
            if completed_round[pid - 1] is None:
                completed_round[pid - 1] = round_index
                newly_completed.append(pid)
        return newly_completed

    def _project_received(self) -> None:
        """Scatter last round's receipts onto the current edge array.

        Runs once per round, at the start of the plan and after any
        re-freeze, so the rechoke sees exactly what the reference chokers
        see.  Every (receiver, sender) pair is resolved against the live
        edge keys, and pairs whose edge disappeared (a departed or crashed
        partner) are dropped -- the reference chokers never look those up
        either.
        """
        self.recv_edge.fill(0.0)
        received = self._received
        at = find_keys(self.edge_key, received.key)
        hit = at >= 0
        self.recv_edge[at[hit]] = received.value[hit]
