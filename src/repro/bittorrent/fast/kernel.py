"""The fast swarm's rechoke and transfer loop, compiled into one C kernel.

:func:`leecher_unchoke` makes the unchoke decisions of a run of
consecutive leechers in one call, owner by owner in row order: the
regular Tit-for-Tat slots as ranked by
:func:`~repro.bittorrent.fast.choking.batched_regular_slots`, the
optimistic rotation with its per-peer age, and the spare-slot fill, as
:class:`~repro.bittorrent.choking.TitForTatChoker` decides them.  Each
owner's shuffles depend on its own rotation state, and they share one
random stream in row order, so this stays a loop, just not a Python one.

:func:`apply_transfers` runs a round's planned transfers in plan order,
each one as the reference backend does: the complete-receiver skip and
the wanted-mask test, upload/download accounting, the conversion of
credit into pieces rarest first, and the bitfield, availability and
``have_count`` updates.  Transfers within a round are
sequentially dependent -- a piece from one sender changes what the
receiver wants from the next, and moves the availability that
rarest-first sorts by -- so this loop stays a loop too.

The C source is the :data:`SOURCE` constant of this module, so
:func:`repro.sim.parallel.source_fingerprint` (which hashes ``*.py``)
sees every kernel change and a wheel ships the kernel with the package.
:func:`load` compiles it once per process through
:func:`repro.sim.native.build`, the loader the fast matching engine's
kernel (:mod:`repro.core.fast.kernel`) shares.  Without a working
compiler the fast engine cannot run:
:class:`~repro.sim.native.KernelBuildError` names the engine, the command
and its stderr.  ``engine="reference"`` needs no compiler and is
bit-identical.

Bit-identity with the reference backend rests on two rules
(``docs/determinism.md``):

* **Draws.**  The kernel draws on the rounds generator's own ``bitgen_t``
  exactly as numpy does.  A bounded draw is numpy's
  ``random_bounded_uint64`` below 2**32 (Lemire 2019,
  https://arxiv.org/abs/1805.10941): a bound of 1 draws nothing, any
  other bound runs Lemire's rejection method on ``next_uint32``, which
  spends a buffered 32-bit half first; it equals
  ``Generator.integers(0, bound)``.  A shuffle is numpy's untyped
  ``Generator.shuffle(list)``: Fisher-Yates from the last element down,
  each index drawn by ``random_interval`` (masked rejection on
  ``next_uint32``); a list of length 0 or 1 draws nothing.  Both leave
  the generator in numpy's state, and :func:`bounded_draws` and
  :func:`shuffled` expose them alone so tests can hold them to that.
  Every call holds ``rng.bit_generator.lock``, as numpy does, because
  :mod:`ctypes` releases the GIL.
* **Floats.**  The kernel performs the reference's IEEE additions and
  subtractions in the reference's order -- ``credit = partial + volume``,
  then subtract a piece while the credit covers one -- and is compiled
  with ``-ffp-contract=off`` (nothing is fused into an FMA) and never
  with ``-ffast-math``.  The rechoke does no float arithmetic.
"""

from __future__ import annotations

import ctypes
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.bittorrent.fast.bitfields import BitfieldMatrix
from repro.sim import native

__all__ = [
    "SOURCE",
    "load",
    "leecher_unchoke",
    "apply_transfers",
    "bounded_draws",
    "shuffled",
]

SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* numpy's bitgen_t (numpy/random/bitgen.h, part of numpy's C API). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;

/* Generator.integers(0, bound) for 1 <= bound <= 2**32: numpy's
   random_bounded_uint64 with off = 0 and rng = bound - 1. */
static int64_t bounded(bitgen_t *bitgen, int64_t bound)
{
    uint32_t rng, rng_excl, leftover, threshold;
    uint64_t m;

    if (bound == 1)
        return 0;
    if (bound == 0x100000000LL)
        return bitgen->next_uint32(bitgen->state);
    rng = (uint32_t)(bound - 1);
    rng_excl = rng + 1;
    m = (uint64_t)bitgen->next_uint32(bitgen->state) * rng_excl;
    leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bitgen->next_uint32(bitgen->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

void bounded_draws(bitgen_t *bitgen, int64_t n, const int64_t *bounds, int64_t *out)
{
    for (int64_t k = 0; k < n; k++)
        out[k] = bounded(bitgen, bounds[k]);
}

/* numpy's random_interval for 1 <= max < 2**32: the smallest all-ones
   mask >= max, then next_uint32() & mask until the value is <= max. */
static int64_t interval(bitgen_t *bitgen, uint32_t max)
{
    uint32_t mask = max, value;

    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    while ((value = bitgen->next_uint32(bitgen->state) & mask) > max)
        ;
    return value;
}

/* Generator.shuffle(list) on x[0:n], n < 2**32: numpy's untyped
   Fisher-Yates; lengths 0 and 1 draw nothing. */
static void shuffle(bitgen_t *bitgen, int64_t *x, int64_t n)
{
    for (int64_t i = n - 1; i > 0; i--) {
        int64_t j = interval(bitgen, (uint32_t)i), held = x[i];
        x[i] = x[j];
        x[j] = held;
    }
}

void shuffle_values(bitgen_t *bitgen, int64_t n, int64_t *x)
{
    shuffle(bitgen, x, n);
}

/* Is q one of x[0:n]? */
static int has(const int64_t *x, int64_t n, int64_t q)
{
    for (int64_t k = 0; k < n; k++)
        if (x[k] == q)
            return 1;
    return 0;
}

/* out = the entries of x[0:n] that are not in skip[0:n_skip], in order;
   returns how many. */
static int64_t without(const int64_t *x, int64_t n, const int64_t *skip, int64_t n_skip,
                       int64_t *out)
{
    int64_t size = 0;

    for (int64_t k = 0; k < n; k++)
        if (!has(skip, n_skip, x[k]))
            out[size++] = x[k];
    return size;
}

/* The rechoke of a run of leechers, owner by owner: owner o (row owner[o])
   is interested in partner[lo[o]:hi[o]] (ascending ids), and its regular
   slots are the regular_partner entries whose regular_owner is its row
   (rows ascending, best first).  Its optimistic peers are the row of
   `optimistic` (ids, -1 where empty) with their age in age[row].  Writes
   each unchoke as (owner row, target id, regular flag) -- regular, then
   optimistic, then spare -- and returns how many, or -1 before an owner
   whose unchokes could overflow `capacity`.  scratch holds twice the
   widest segment. */
int64_t leecher_unchoke(
    bitgen_t *bitgen, int64_t regular_slots, int64_t optimistic_slots, int64_t period,
    int64_t n_owners, const int64_t *owner, const int64_t *lo, const int64_t *hi,
    const int64_t *partner, int64_t n_regular, const int64_t *regular_owner,
    const int64_t *regular_partner, int64_t *optimistic, int64_t *age,
    int64_t capacity, int64_t *out_owner, int64_t *out_target, uint8_t *out_regular,
    int64_t *scratch)
{
    int64_t r = 0, count = 0;

    for (int64_t o = 0; o < n_owners; o++) {
        int64_t i = owner[o], first, n_reg, n_rem, n_cur = 0, n_pool, grown, k;
        int64_t *remaining = scratch, *pool = scratch + (hi[o] - lo[o]);
        int64_t *current = optimistic + i * optimistic_slots;

        while (r < n_regular && regular_owner[r] < i)
            r++;
        for (first = r; r < n_regular && regular_owner[r] == i; r++)
            ;
        n_reg = r - first;
        n_rem = without(partner + lo[o], hi[o] - lo[o], regular_partner + first, n_reg,
                        remaining);
        /* current and the spare pool are disjoint parts of remaining */
        if (count + n_reg + n_rem > capacity)
            return -1;
        for (k = first; k < r; k++, count++) {
            out_owner[count] = i;
            out_target[count] = regular_partner[k];
            out_regular[count] = 1;
        }

        /* choking.rotate_optimistic; zero slots leave the state alone */
        if (optimistic_slots > 0 && n_rem == 0) {
            for (k = 0; k < optimistic_slots; k++)
                current[k] = -1;        /* an empty pool clears; the age stays */
        } else if (optimistic_slots > 0) {
            grown = age[i] + 1;
            for (k = 0; k < optimistic_slots; k++)
                if (current[k] >= 0 && has(remaining, n_rem, current[k]))
                    current[n_cur++] = current[k];
            if (n_cur < optimistic_slots || grown >= period) {
                n_pool = without(remaining, n_rem, current, n_cur, pool);
                shuffle(bitgen, pool, n_pool);
                if (grown >= period)
                    n_cur = grown = 0;
                for (k = 0; k < n_pool && n_cur < optimistic_slots; k++)
                    current[n_cur++] = pool[k];
            }
            for (k = n_cur; k < optimistic_slots; k++)
                current[k] = -1;
            age[i] = grown;
        }
        for (k = 0; k < n_cur; k++, count++) {
            out_owner[count] = i;
            out_target[count] = current[k];
            out_regular[count] = 0;
        }

        /* unused regular slots go to the rest of remaining, shuffled */
        if (regular_slots > n_reg) {
            n_pool = without(remaining, n_rem, current, n_cur, pool);
            shuffle(bitgen, pool, n_pool);
            for (k = 0; k < n_pool && k < regular_slots - n_reg; k++, count++) {
                out_owner[count] = i;
                out_target[count] = pool[k];
                out_regular[count] = 0;
            }
        }
    }
    return count;
}

/* Python's pool.pop(at) on pool[0:size]. */
static int64_t pop(int64_t *pool, int64_t size, int64_t at)
{
    int64_t piece = pool[at];
    memmove(pool + at, pool + at + 1, (size_t)(size - at - 1) * sizeof *pool);
    return piece;
}

/* Pick `picks` of the n wanted pieces (ascending) into taken, as the
   reference rarest-first selector does one pick at a time.  Within one
   transfer only the picked pieces' availability moves, and they leave the
   wanted set, so the picks work through fixed tiers of equal
   availability, each in ascending piece order, popping at each drawn
   index. */
static void choose(bitgen_t *bitgen, const int64_t *counts, const int64_t *wanted,
                   int64_t n, int64_t picks, int64_t *tier, int64_t *taken)
{
    int64_t got = 0, below = -1, level, size, k;

    while (got < picks) {
        level = INT64_MAX;
        for (k = 0; k < n; k++)
            if (counts[wanted[k]] > below && counts[wanted[k]] < level)
                level = counts[wanted[k]];
        size = 0;
        for (k = 0; k < n; k++)
            if (counts[wanted[k]] == level)
                tier[size++] = wanted[k];
        for (k = 0; k < size && got < picks; k++, got++)
            taken[got] = pop(tier, size - k, bounded(bitgen, size - k));
        below = level;
    }
}

void apply_transfers(
    bitgen_t *bitgen, double piece_size, int64_t piece_count,
    int64_t n_bytes, uint8_t *packed, int64_t *have, int64_t *counts,
    double *uploaded, double *downloaded, const int64_t *reveal_limit,
    int64_t n, const int64_t *sender, const int64_t *receiver,
    const double *volume, double *credit, uint8_t *applied, uint8_t *completed,
    int64_t *scratch)
{
    int64_t *wanted = scratch, *tier = scratch + piece_count, *taken = tier + piece_count;

    for (int64_t t = 0; t < n; t++) {
        int64_t s = sender[t], r = receiver[t], n_wanted = 0, picks = 0, b, k;
        const uint8_t *row_s = packed + s * n_bytes;
        uint8_t *row_r = packed + r * n_bytes;
        double left, remaining;

        applied[t] = completed[t] = 0;
        if (have[r] == piece_count)
            continue;                   /* a complete receiver wants nothing */
        if (have[s] != piece_count) {   /* a complete sender always has a wanted piece */
            for (b = 0; b < n_bytes && !(row_s[b] & ~row_r[b]); b++)
                ;
            if (b == n_bytes)
                continue;
        }
        applied[t] = 1;
        uploaded[s] += volume[t];
        downloaded[r] += volume[t];
        left = credit[t] + volume[t];
        if (left >= piece_size) {
            for (b = 0; b < n_bytes; b++)
                for (k = 0; k < 8; k++)
                    if (row_s[b] & ~row_r[b] & (0x80 >> k))
                        wanted[n_wanted++] = 8 * b + k;
            /* Subtract while the credit covers a piece, capped by the
               sender's reveal limit: repeated subtraction, not a floor
               division, is the reference's float sequence. */
            remaining = left;
            while (remaining >= piece_size && picks < n_wanted
                   && (reveal_limit[s] < 0 || picks < reveal_limit[s])) {
                remaining -= piece_size;
                picks++;
            }
            if (picks > 0) {
                choose(bitgen, counts, wanted, n_wanted, picks, tier, taken);
                for (k = 0; k < picks; k++) {
                    row_r[taken[k] >> 3] |= (uint8_t)(0x80 >> (taken[k] & 7));
                    counts[taken[k]]++;
                }
                have[r] += picks;
                completed[t] = have[r] == piece_count;
                left = remaining;
            }
        }
        credit[t] = left;
    }
}
"""

_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
# Return and argument types, one row per line of each C prototype above.
_SIGNATURES: Dict[str, Tuple[Any, Tuple[Any, ...]]] = {
    "bounded_draws": (None, (ctypes.c_void_p, ctypes.c_int64, _I64, _I64)),
    "shuffle_values": (None, (ctypes.c_void_p, ctypes.c_int64, _I64)),
    "leecher_unchoke": (
        ctypes.c_int64,
        (
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, _I64, _I64, _I64,
            _I64, ctypes.c_int64, _I64,
            _I64, _I64, _I64,
            ctypes.c_int64, _I64, _I64, _U8,
            _I64,
        ),
    ),
    "apply_transfers": (
        None,
        (
            ctypes.c_void_p, ctypes.c_double, ctypes.c_int64,
            ctypes.c_int64, _U8, _I64, _I64,
            _F64, _F64, _I64,
            ctypes.c_int64, _I64, _I64,
            _F64, _F64, _U8, _U8,
            _I64,
        ),
    ),
}

_library: Optional[ctypes.CDLL] = None


def load() -> ctypes.CDLL:
    """The compiled kernel, built on the first call in this process."""
    global _library
    if _library is None:
        _library = native.build("the fast swarm engine", SOURCE, _SIGNATURES)
    return _library


def bounded_draws(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """The kernel's bounded draws alone: ``rng.integers(0, bounds)``, draw for draw.

    Every bound must lie in ``[1, 2**32]``.
    """
    bounds = np.ascontiguousarray(bounds, dtype=np.int64)
    if bounds.size and not (bounds.min() >= 1 and bounds.max() <= 2**32):
        raise ValueError("every bound must lie in [1, 2**32]")
    out = np.empty_like(bounds)
    with rng.bit_generator.lock:
        load().bounded_draws(rng.bit_generator.ctypes.bit_generator, bounds.size, bounds, out)
    return out


def shuffled(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """The kernel's shuffle alone: a copy of ``values`` as ``rng.shuffle(list(values))`` leaves it."""
    x = np.array(values, dtype=np.int64)
    if x.ndim != 1:
        raise ValueError("values must be one-dimensional")
    with rng.bit_generator.lock:
        load().shuffle_values(rng.bit_generator.ctypes.bit_generator, x.size, x)
    return x


def leecher_unchoke(
    rng: np.random.Generator,
    regular_slots: int,
    optimistic_period: int,
    owners: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    partners: np.ndarray,
    regular_owner: np.ndarray,
    regular_partner: np.ndarray,
    optimistic: np.ndarray,
    age: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rechoke a run of leechers in one call; returns (owner rows, target ids, regular flags).

    Owner ``o`` is row ``owners[o]`` (ascending), interested in
    ``partners[lo[o]:hi[o]]`` (ascending ids).  Its regular slots are the
    ``regular_partner`` entries at its row in ``regular_owner`` (rows
    ascending, best first), which must be distinct partners from its
    segment.  ``optimistic`` (rows x optimistic slots, peer ids, -1 where
    empty) and ``age`` (rows) hold the rotation state and are updated in
    place.  Each owner's unchokes come out in its decision order: regular,
    optimistic, spare.  Every array is passed anew on each call, since
    growth reallocates them; shapes and indices are checked here, dtypes
    and C-contiguity by the declared argument types, before the kernel
    sees a pointer.
    """
    n = owners.shape[0]
    if (
        optimistic.ndim != 2
        or age.shape != (optimistic.shape[0],)
        or lo.shape != (n,)
        or hi.shape != (n,)
        or regular_partner.shape != regular_owner.shape
    ):
        raise ValueError("array shapes do not match the owners and their state")
    if n and not (
        owners.min() >= 0
        and owners.max() < optimistic.shape[0]
        and lo.min() >= 0
        and (lo <= hi).all()
        and hi.max() <= partners.shape[0]
    ):
        raise IndexError("an owner or its segment lies outside the arrays")
    widths = hi - lo
    capacity = int(widths.sum())
    out_owner = np.empty(capacity, dtype=np.int64)
    out_target = np.empty(capacity, dtype=np.int64)
    out_regular = np.empty(capacity, dtype=np.uint8)
    with rng.bit_generator.lock:
        count = load().leecher_unchoke(
            rng.bit_generator.ctypes.bit_generator,
            regular_slots,
            optimistic.shape[1],
            optimistic_period,
            n,
            owners,
            lo,
            hi,
            partners,
            regular_owner.shape[0],
            regular_owner,
            regular_partner,
            optimistic,
            age,
            capacity,
            out_owner,
            out_target,
            out_regular,
            np.empty(2 * int(widths.max(initial=0)), dtype=np.int64),
        )
    if count < 0:
        raise ValueError("regular slots must be distinct partners from their owner's segment")
    return out_owner[:count], out_target[:count], out_regular[:count].view(np.bool_)


def apply_transfers(
    rng: np.random.Generator,
    piece_size: float,
    bitfields: BitfieldMatrix,
    counts: np.ndarray,
    uploaded: np.ndarray,
    downloaded: np.ndarray,
    reveal_limit: np.ndarray,
    sender: np.ndarray,
    receiver: np.ndarray,
    volume: np.ndarray,
    credit: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply one round's transfers in order; returns (applied, completed) flags.

    ``sender`` and ``receiver`` are dense rows, ``credit`` holds each
    receiver's partial credit from its sender before the transfer and is
    overwritten with the credit after it (meaningful where applied).
    ``reveal_limit`` is per row, -1 for none.  Mutates the bitfields,
    ``counts``, ``uploaded`` and ``downloaded`` in place.  Every array is
    passed anew on each call, since growth reallocates them; shapes and
    rows are checked here, dtypes and C-contiguity by the declared
    argument types, before the kernel sees a pointer.
    """
    n = sender.shape[0]
    rows, piece_count = bitfields.n_peers, bitfields.piece_count
    if (
        counts.shape != (piece_count,)
        or any(array.shape != (rows,) for array in (uploaded, downloaded, reveal_limit))
        or any(array.shape != (n,) for array in (sender, receiver, volume, credit))
    ):
        raise ValueError("array shapes do not match the swarm and its transfers")
    if n and not (
        min(sender.min(), receiver.min()) >= 0 and max(sender.max(), receiver.max()) < rows
    ):
        raise IndexError("a transfer names a row outside the swarm")
    applied = np.empty(n, dtype=np.uint8)
    completed = np.empty(n, dtype=np.uint8)
    with rng.bit_generator.lock:
        load().apply_transfers(
            rng.bit_generator.ctypes.bit_generator,
            piece_size,
            piece_count,
            bitfields.n_bytes,
            bitfields.packed,
            bitfields.have_count,
            counts,
            uploaded,
            downloaded,
            reveal_limit,
            n,
            sender,
            receiver,
            volume,
            credit,
            applied,
            completed,
            np.empty(3 * piece_count, dtype=np.int64),
        )
    return applied, completed
