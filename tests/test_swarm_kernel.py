"""The fast swarm's C kernel: its draw contract, its argument checks, its build.

The engine equivalence suite holds the kernel's transfer loop to the
reference backend.  These tests pin what that suite cannot isolate: each
bounded draw equals numpy's ``Generator.integers(0, bound)`` and leaves
the same generator state, whether or not the generator holds a buffered
32-bit half; wrong arrays are refused before the call; and a missing
compiler fails loudly, naming the command, while the reference engine
runs without one.
"""

from __future__ import annotations

import ctypes
import sysconfig

import numpy as np
import pytest

from repro.bittorrent.fast import kernel
from repro.bittorrent.fast.bitfields import BitfieldMatrix
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator


def _bounds(seed: int) -> np.ndarray:
    bounds = np.random.default_rng(10_000 + seed).integers(1, 400, size=24)
    bounds[::5] = 1  # a bound of 1 draws nothing
    bounds[7] = 2**32  # the widest 32-bit bound: one raw next_uint32
    bounds[11] = 2**31 + 3  # a rejection-heavy bound
    return bounds


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
def test_bounded_draws_follow_numpy_draw_for_draw(buffered):
    for seed in range(240):
        bounds = _bounds(seed)
        ours, batch, scalar = (np.random.default_rng(seed) for _ in range(3))
        if buffered:
            for rng in (ours, batch, scalar):
                rng.integers(0, 7)
            assert ours.bit_generator.state["has_uint32"] == 1
        drawn = kernel.bounded_draws(ours, bounds)
        assert drawn.tolist() == batch.integers(0, bounds).tolist()
        assert drawn.tolist() == [int(scalar.integers(0, int(b))) for b in bounds]
        assert ours.bit_generator.state == batch.bit_generator.state
        assert ours.bit_generator.state == scalar.bit_generator.state


def _apply(bitfields: BitfieldMatrix, uploaded: np.ndarray, receiver: int = 1) -> None:
    kernel.apply_transfers(
        np.random.default_rng(0),
        "rarest-first",
        256.0,
        bitfields,
        np.zeros(bitfields.piece_count, dtype=np.int64),
        uploaded,
        np.zeros(2),
        np.full(2, -1, dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([receiver], dtype=np.int64),
        np.array([600.0]),
        np.zeros(1),
    )


def test_bounded_draws_refuse_bounds_outside_32_bits():
    for bad in ([0], [3, -1], [2**32 + 1]):
        with pytest.raises(ValueError):
            kernel.bounded_draws(np.random.default_rng(0), np.array(bad))


def test_apply_transfers_refuses_wrong_arrays_before_the_call():
    bitfields = BitfieldMatrix(2, 10)
    bitfields.set_complete(0)
    with pytest.raises(ctypes.ArgumentError):
        _apply(bitfields, np.zeros(2, dtype=np.float32))
    with pytest.raises(ctypes.ArgumentError):
        _apply(bitfields, np.zeros(4)[::2])
    with pytest.raises(ValueError):
        _apply(bitfields, np.zeros(3))
    with pytest.raises(IndexError):
        _apply(bitfields, np.zeros(2), receiver=2)
    assert bitfields.have_count.tolist() == [10, 0]
    uploaded = np.zeros(2)
    _apply(bitfields, uploaded)
    assert uploaded.tolist() == [600.0, 0.0]
    assert bitfields.have_count.tolist() == [10, 2]


def _point_build_at(monkeypatch, compiler: str) -> None:
    real = sysconfig.get_config_var
    monkeypatch.setattr(
        sysconfig, "get_config_var", lambda name: compiler if name == "CC" else real(name)
    )
    monkeypatch.setattr(kernel, "_library", None)


CONFIG = SwarmConfig(leechers=6, seeds=1, piece_count=12, rounds=3)


def test_missing_compiler_names_the_command_and_the_reference_engine(monkeypatch):
    _point_build_at(monkeypatch, "/nonexistent/repro-cc -O0")
    with pytest.raises(kernel.KernelBuildError) as failure:
        SwarmSimulator(CONFIG, engine="fast")
    message = str(failure.value)
    # The command as run: float operations are never contracted or reordered.
    assert "`/nonexistent/repro-cc -O0 -O2 -fPIC -shared -ffp-contract=off`" in message
    assert "fast-math" not in message
    assert "[Errno 2]" in message
    assert 'engine="reference"' in message
    assert SwarmSimulator(CONFIG, engine="reference").run().rounds_run > 0


def test_failing_compiler_reports_its_stderr(monkeypatch):
    _point_build_at(monkeypatch, "sh -c 'echo no-such-header.h >&2; exit 1'")
    with pytest.raises(kernel.KernelBuildError, match="no-such-header.h"):
        SwarmSimulator(CONFIG, engine="fast")
