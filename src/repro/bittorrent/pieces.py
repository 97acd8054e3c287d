"""Torrent content model: pieces and bitfields.

The swarm simulator works at piece granularity, like BitTorrent itself: a
torrent is a sequence of equally-sized pieces, every peer tracks which
pieces it holds in a bitfield, and transfers move whole pieces (fractional
progress within a round is accumulated by the swarm simulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Set


__all__ = ["Torrent", "Bitfield"]


@dataclass(frozen=True)
class Torrent:
    """Static description of the shared content.

    Attributes
    ----------
    piece_count:
        Number of pieces.
    piece_size_kbit:
        Size of one piece in kilobits, so that upload capacities in kbps
        divide evenly (``piece_size_kbit / upload_kbps`` is seconds).
    """

    piece_count: int
    piece_size_kbit: float = 256.0

    def __post_init__(self) -> None:
        if self.piece_count <= 0:
            raise ValueError("a torrent needs at least one piece")
        if self.piece_size_kbit <= 0:
            raise ValueError("piece size must be positive")

    @property
    def total_size_kbit(self) -> float:
        """Total content size in kilobits."""
        return self.piece_count * self.piece_size_kbit

    def pieces(self) -> range:
        """Iterator over piece indices."""
        return range(self.piece_count)


class Bitfield:
    """The set of pieces a peer holds."""

    def __init__(self, piece_count: int, have: Optional[Iterable[int]] = None) -> None:
        if piece_count <= 0:
            raise ValueError("piece_count must be positive")
        self._piece_count = piece_count
        self._have: Set[int] = set()
        if have is not None:
            for piece in have:
                self.add(piece)

    @classmethod
    def complete(cls, piece_count: int) -> "Bitfield":
        """A bitfield holding every piece (a seed)."""
        return cls(piece_count, range(piece_count))

    @classmethod
    def from_indices(cls, piece_count: int, have: Iterable[int]) -> "Bitfield":
        """Build a bitfield from trusted indices with one bulk bounds check.

        Unlike the element-wise constructor this validates the range once,
        which is what lets the fast engine materialize 100k bitfields
        without a per-piece Python call.
        """
        bitfield = cls(piece_count)
        held = set(have)
        if held and not (0 <= min(held) and max(held) < piece_count):
            raise IndexError(f"piece indices outside 0..{piece_count - 1}")
        bitfield._have = held
        return bitfield

    @classmethod
    def empty(cls, piece_count: int) -> "Bitfield":
        """A bitfield holding nothing (a fresh leecher)."""
        return cls(piece_count)

    @property
    def piece_count(self) -> int:
        """Total number of pieces in the torrent."""
        return self._piece_count

    def add(self, piece: int) -> None:
        """Mark a piece as held."""
        if not 0 <= piece < self._piece_count:
            raise IndexError(f"piece {piece} outside 0..{self._piece_count - 1}")
        self._have.add(piece)

    def has(self, piece: int) -> bool:
        """Whether the piece is held."""
        return piece in self._have

    def held(self) -> Set[int]:
        """The set of held piece indices (do not mutate)."""
        return self._have

    def missing(self) -> Set[int]:
        """The set of missing piece indices."""
        return set(range(self._piece_count)) - self._have

    def count(self) -> int:
        """Number of held pieces."""
        return len(self._have)

    def is_complete(self) -> bool:
        """Whether all pieces are held."""
        return len(self._have) == self._piece_count

    def completion(self) -> float:
        """Fraction of pieces held."""
        return len(self._have) / self._piece_count

    def interesting_pieces(self, other: "Bitfield") -> Set[int]:
        """Pieces held by ``other`` that this bitfield is missing."""
        return other._have - self._have

    def is_interested_in(self, other: "Bitfield") -> bool:
        """BitTorrent 'interested': the other peer has something we miss."""
        return bool(other._have - self._have)

    def __len__(self) -> int:
        return len(self._have)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._have))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Bitfield({len(self._have)}/{self._piece_count})"
