"""Packed-bit bitfields for a whole swarm.

One ``uint8`` matrix holds every peer's bitfield: row ``i`` is peer ``i``'s
bitfield with piece ``p`` stored at byte ``p // 8``, bit ``7 - p % 8`` (the
big-endian convention of :func:`numpy.packbits`, and incidentally the wire
order of BitTorrent's actual BITFIELD message).  Interest tests -- "does
``p`` have a piece that ``q`` misses?" -- become byte-wise ``AND``/``NOT``
over rows, which is what lets the fast swarm engine check interest on every
tracker edge in a few vectorized passes instead of building Python sets.

Padding bits of the last byte are never set, so ``row_s & ~row_r`` is free
of padding artefacts (``row_s`` masks them off).

Dynamic swarms grow the matrix: :meth:`BitfieldMatrix.add_peers` appends
zeroed rows for scenario arrivals, doubling the backing capacity
geometrically so a flash crowd costs O(n) amortized rather than one
reallocation per joiner.  Rows of departed peers are tombstoned by the
swarm engine (its ``alive`` mask) rather than freed -- peer ids are never
reused, so a row index stays valid for the whole run.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.bittorrent.pieces import Bitfield

__all__ = ["BitfieldMatrix", "unpack_bitfields"]

#: Rows one pass of :func:`unpack_bitfields` unpacks at a time.
_UNPACK_ROWS = 1024


class BitfieldMatrix:
    """The bitfields of ``n_peers`` peers over ``piece_count`` pieces.

    Attributes
    ----------
    packed:
        ``(capacity, ceil(piece_count / 8))`` uint8 matrix of packed bits;
        only the first ``n_peers`` rows are live (``capacity >= n_peers``
        after growth).
    have_count:
        ``(capacity,)`` number of pieces each peer holds (kept
        incrementally, so completion tests are O(1)).
    """

    def __init__(self, n_peers: int, piece_count: int) -> None:
        if n_peers < 0:
            raise ValueError("n_peers cannot be negative")
        if piece_count <= 0:
            raise ValueError("piece_count must be positive")
        self.n_peers = n_peers
        self.piece_count = piece_count
        self.n_bytes = (piece_count + 7) // 8
        self.packed = np.zeros((n_peers, self.n_bytes), dtype=np.uint8)
        self.have_count = np.zeros(n_peers, dtype=np.int64)

    # -- growth ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Allocated rows (>= :attr:`n_peers`)."""
        return self.packed.shape[0]

    def add_peers(self, count: int) -> int:
        """Append ``count`` empty rows; returns the first new row index.

        Grows the backing arrays geometrically (at least doubling), so a
        burst of arrivals is amortized O(rows touched).
        """
        if count < 0:
            raise ValueError("count cannot be negative")
        first = self.n_peers
        needed = self.n_peers + count
        if needed > self.capacity:
            new_capacity = max(needed, 2 * self.capacity)
            packed = np.zeros((new_capacity, self.n_bytes), dtype=np.uint8)
            packed[: self.n_peers] = self.packed[: self.n_peers]
            self.packed = packed
            have = np.zeros(new_capacity, dtype=np.int64)
            have[: self.n_peers] = self.have_count[: self.n_peers]
            self.have_count = have
        self.n_peers = needed
        return first

    # -- mutation ----------------------------------------------------------------

    def add(self, peer: int, piece: int) -> None:
        """Mark ``piece`` as held by ``peer`` (must not already be held)."""
        self.packed[peer, piece >> 3] |= np.uint8(0x80 >> (piece & 7))
        self.have_count[peer] += 1

    def fill(self, peer: int, pieces: Iterable[int]) -> None:
        """Bulk-set the given pieces for ``peer`` (fresh rows only)."""
        idx = np.asarray(list(pieces), dtype=np.int64)
        if idx.size == 0:
            return
        np.bitwise_or.at(
            self.packed[peer], idx >> 3, (0x80 >> (idx & 7)).astype(np.uint8)
        )
        self.have_count[peer] = int(
            np.unpackbits(self.packed[peer], count=self.piece_count).sum()
        )

    def set_complete(self, peer: int) -> None:
        """Give ``peer`` every piece (a seed)."""
        self.packed[peer] = 0xFF
        tail = self.piece_count & 7
        if tail:
            self.packed[peer, -1] = np.uint8((0xFF << (8 - tail)) & 0xFF)
        self.have_count[peer] = self.piece_count

    # -- queries -----------------------------------------------------------------

    def is_complete(self, peer: int) -> bool:
        """Whether ``peer`` holds every piece."""
        return int(self.have_count[peer]) == self.piece_count

    def wanted_bytes(self, sender: int, receiver: int) -> np.ndarray:
        """Packed mask of pieces ``sender`` has and ``receiver`` misses."""
        return self.packed[sender] & ~self.packed[receiver]

    def indices(self, packed_row: np.ndarray) -> np.ndarray:
        """Ascending piece indices set in a packed row."""
        # .nonzero()[0] on the already-1D unpacked row skips the ravel and
        # dispatch layers of np.flatnonzero -- this runs once per transfer.
        return np.unpackbits(packed_row, count=self.piece_count).nonzero()[0]

    def availability(self) -> np.ndarray:
        """Replication level of every piece across all allocated rows.

        Counts every row below :attr:`n_peers` -- including rows the swarm
        engine has tombstoned for departed peers (their bits are never
        cleared; liveness is the engine's concern, tracked by its ``alive``
        mask and compensated incrementally via :meth:`unpack_row`).  Only
        unused growth capacity is excluded.
        """
        return (
            np.unpackbits(self.packed[: self.n_peers], axis=1, count=self.piece_count)
            .sum(axis=0)
            .astype(np.int64)
        )

    def unpack_row(self, peer: int) -> np.ndarray:
        """One peer's bitfield as a 0/1 int64 vector of length piece_count.

        The swarm engine subtracts this from its availability counts when
        the peer departs.
        """
        return np.unpackbits(self.packed[peer], count=self.piece_count).astype(np.int64)

    def edge_interest(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        out: Optional[np.ndarray] = None,
        chunk: int = 1 << 18,
    ) -> np.ndarray:
        """Per-pair interest: does ``src[k]`` have a piece ``dst[k]`` misses?

        Vectorized over pairs, chunked to bound the temporary byte matrix.
        """
        if out is None:
            out = np.zeros(src.shape[0], dtype=bool)
        for lo in range(0, src.shape[0], chunk):
            hi = min(lo + chunk, src.shape[0])
            diff = self.packed[src[lo:hi]] & ~self.packed[dst[lo:hi]]
            out[lo:hi] = diff.any(axis=1)
        return out

    # -- conversions -------------------------------------------------------------

    def to_bitfield(self, peer: int) -> Bitfield:
        """Materialize one row as a reference :class:`Bitfield`."""
        return Bitfield.from_indices(
            self.piece_count, self.indices(self.packed[peer]).tolist()
        )


def unpack_bitfields(packed: np.ndarray, have: np.ndarray, piece_count: int) -> List[Bitfield]:
    """Packed rows as reference :class:`Bitfield`\\ s, ``have`` holding each row's popcount.

    A complete row is :meth:`Bitfield.complete`.  The others unpack
    together, a bounded number of rows per pass, and each takes its
    slice of one list of held pieces.
    """
    complete = Bitfield.complete
    partial_rows = np.flatnonzero(have < piece_count)
    partial: List[Bitfield] = []
    for lo in range(0, partial_rows.size, _UNPACK_ROWS):
        rows = partial_rows[lo : lo + _UNPACK_ROWS]
        _, pieces = np.unpackbits(packed[rows], axis=1, count=piece_count).nonzero()
        held: List[int] = pieces.tolist()
        ends: List[int] = np.cumsum(have[rows]).tolist()
        partial.extend(
            Bitfield.from_indices(piece_count, held[start:end])
            for start, end in zip([0, *ends], ends)
        )
    bitfields = iter(partial)
    return [
        complete(piece_count) if full else next(bitfields)
        for full in (have == piece_count).tolist()
    ]
