"""The fast swarm's per-transfer loop, compiled: one C kernel per round.

:func:`apply_transfers` runs a round's planned transfers in plan order,
each one as the reference backend does: the complete-receiver skip and
the wanted-mask test, upload/download accounting, the conversion of
credit into pieces under all three piece policies, and the bitfield,
availability and ``have_count`` updates.  Transfers within a round are
sequentially dependent -- a piece from one sender changes what the
receiver wants from the next, and moves the availability that
rarest-first sorts by -- so the loop stays a loop, just not a Python one.

The C source is the :data:`SOURCE` constant of this module, so
:func:`repro.sim.parallel.source_fingerprint` (which hashes ``*.py``)
sees every kernel change and a wheel ships the kernel with the package.
:func:`load` compiles it once per process, with the compiler Python was
built with, inside a temporary directory, and loads it with
:mod:`ctypes`.  Without a working compiler the fast engine cannot run:
:class:`KernelBuildError` names the command and its stderr.
``engine="reference"`` needs no compiler and is bit-identical.

Bit-identity with the reference backend rests on two rules
(``docs/determinism.md``):

* **Draws.**  The kernel draws on the rounds generator's own ``bitgen_t``
  exactly as numpy's ``random_bounded_uint64`` does below 2**32 (Lemire
  2019, https://arxiv.org/abs/1805.10941): a bound of 1 draws nothing,
  any other bound runs Lemire's rejection method on ``next_uint32``, which
  spends a buffered 32-bit half first.  Each draw equals
  ``Generator.integers(0, bound)`` and leaves the same generator state;
  :func:`bounded_draws` exposes the draw alone so tests can hold it to
  that.  The call holds ``rng.bit_generator.lock``, as
  ``Generator.integers`` does, because :mod:`ctypes` releases the GIL.
* **Floats.**  The kernel performs the reference's IEEE additions and
  subtractions in the reference's order -- ``credit = partial + volume``,
  then subtract a piece while the credit covers one -- and is compiled
  with ``-ffp-contract=off`` (nothing is fused into an FMA) and never
  with ``-ffast-math``.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import subprocess
import sysconfig
import tempfile
from typing import List, Optional, Tuple

import numpy as np

from repro.bittorrent.fast.bitfields import BitfieldMatrix

__all__ = ["SOURCE", "KernelBuildError", "load", "apply_transfers", "bounded_draws"]

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

enum { RAREST_FIRST = 0, RANDOM = 1, SEQUENTIAL = 2 };

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

/* Python's pool.pop(at) on pool[0:size]. */
static int64_t pop(int64_t *pool, int64_t size, int64_t at)
{
    int64_t piece = pool[at];
    memmove(pool + at, pool + at + 1, (size_t)(size - at - 1) * sizeof *pool);
    return piece;
}

/* Pick `picks` of the n wanted pieces (ascending) into taken, as the
   reference selector does one pick at a time.  Within one transfer only
   the picked pieces' availability moves, and they leave the wanted set,
   so rarest-first works through fixed tiers of equal availability, each
   in ascending piece order, popping at each drawn index. */
static void choose(bitgen_t *bitgen, int policy, const int64_t *counts,
                   int64_t *wanted, int64_t n, int64_t picks,
                   int64_t *tier, int64_t *taken)
{
    int64_t got = 0, below = -1, level, size, k;

    if (policy == SEQUENTIAL) {
        memcpy(taken, wanted, (size_t)picks * sizeof *taken);
        return;
    }
    if (policy == RANDOM) {
        for (; got < picks; got++)
            taken[got] = pop(wanted, n - got, bounded(bitgen, n - got));
        return;
    }
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
    bitgen_t *bitgen, int32_t policy, double piece_size, int64_t piece_count,
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
                choose(bitgen, policy, counts, wanted, n_wanted, picks, tier, taken);
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

# Optimise, but never contract or reassociate float operations: no
# -ffast-math, and GCC's GNU-mode default -ffp-contract=fast may fuse into FMAs.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_POLICIES = {"rarest-first": 0, "random": 1, "sequential": 2}

_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
# Argument types, one row per line of each C prototype above.
_SIGNATURES = {
    "bounded_draws": (ctypes.c_void_p, ctypes.c_int64, _I64, _I64),
    "apply_transfers": (
        ctypes.c_void_p, ctypes.c_int32, ctypes.c_double, ctypes.c_int64,
        ctypes.c_int64, _U8, _I64, _I64,
        _F64, _F64, _I64,
        ctypes.c_int64, _I64, _I64,
        _F64, _F64, _U8, _U8,
        _I64,
    ),
}

_library: Optional[ctypes.CDLL] = None


class KernelBuildError(RuntimeError):
    """The C kernel of the fast swarm engine could not be compiled."""


def load() -> ctypes.CDLL:
    """The compiled kernel, built on the first call in this process."""
    global _library
    if _library is None:
        _library = _build()
    return _library


def _build() -> ctypes.CDLL:
    command: List[str] = [
        *shlex.split(sysconfig.get_config_var("CC") or "cc"),
        *_FLAGS,
    ]
    with tempfile.TemporaryDirectory() as build_dir:
        source = os.path.join(build_dir, "kernel.c")
        target = os.path.join(build_dir, "kernel.so")
        with open(source, "w", encoding="utf-8") as handle:
            handle.write(SOURCE)
        argv = [*command, "-o", target, source]
        try:
            done = subprocess.run(argv, capture_output=True, text=True, check=False)
            failure = done.stderr.strip() if done.returncode else None
        except OSError as error:
            failure = str(error)
        if failure is not None:
            raise KernelBuildError(
                "the fast swarm engine compiles a C kernel, and "
                f"`{shlex.join(command)}` failed:\n{failure}\n"
                'Install a C compiler, or use engine="reference", which needs '
                "none and is bit-identical."
            )
        library = ctypes.CDLL(target)
    for name, argtypes in _SIGNATURES.items():
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = None
    return library


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


def apply_transfers(
    rng: np.random.Generator,
    policy: str,
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
            _POLICIES[policy],
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
