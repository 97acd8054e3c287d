"""The fast engines' C kernels: the swarm's draw contract, argument checks, the build.

The engine equivalence suite holds the swarm kernel's rechoke and
transfer loop to the reference backend.  These tests pin what that suite
cannot isolate: each bounded draw equals numpy's
``Generator.integers(0, bound)`` and each shuffle numpy's
``Generator.shuffle(list)``, leaving the same generator state, whether or
not the generator holds a buffered 32-bit half; one leecher's rechoke
follows ``TitForTatChoker`` round by round; wrong arrays are refused
before the call.  Both C sources, the swarm's and the matching engine's
Algorithm 1, go through the one loader in ``repro.sim.native``: both
compile clean under strict warnings and run clean under AddressSanitizer
and UndefinedBehaviorSanitizer, and a missing compiler fails loudly,
naming the command, while the reference engines run without one.
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
import pickle
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import List

import numpy as np
import pytest

from repro.bittorrent.choking import TitForTatChoker
from repro.bittorrent.fast import kernel
from repro.bittorrent.fast.bitfields import BitfieldMatrix
from repro.bittorrent.fast.choking import FastChokerState
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator
from repro.core import ConvergenceSimulator, simulate_convergence
from repro.core.acceptance import AcceptanceGraph
from repro.core.churn import ChurnConfig, simulate_churn
from repro.core.fast import kernel as matching_kernel
from repro.core.peer import PeerPopulation
from repro.sim import native

from test_swarm_engine_equivalence import assert_results_identical


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


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
def test_shuffle_follows_numpy_draw_for_draw(buffered):
    for seed in range(240):
        for length in (0, 1, 2, 3, 17, 200, 257):  # 257: the mask grows past 255
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            if buffered:
                for rng in (ours, theirs):
                    rng.integers(0, 7)
                assert ours.bit_generator.state["has_uint32"] == 1
            values = np.random.default_rng(10_000 + seed).integers(1, 10**9, size=length)
            expected = values.tolist()
            theirs.shuffle(expected)
            assert kernel.shuffled(ours, values).tolist() == expected
            assert ours.bit_generator.state == theirs.bit_generator.state


def _interested_pools(rounds: int) -> List[tuple]:
    """(interested, received) per round: overlapping pools, so optimistic
    peers carry over, and in round 5 only two contributors, so a leecher
    with two or more regular slots has an empty optimistic pool."""
    draws = np.random.default_rng(99)
    pools = []
    for round_index in range(rounds):
        if round_index == 5:
            pools.append(([3, 8], {3: 1.0, 8: 2.0}))
            continue
        size = int(draws.integers(1, 9))
        interested = sorted(draws.choice(np.arange(1, 12), size=size, replace=False).tolist())
        pools.append((interested, {q: float(draws.integers(0, 3)) for q in interested}))
    return pools


@pytest.mark.parametrize(
    "regular_slots, optimistic_slots, period",
    [(2, 2, 3), (3, 1, 1), (0, 1, 2), (2, 0, 3), (1, 3, 4)],
)
def test_leecher_unchoke_follows_the_tit_for_tat_choker(regular_slots, optimistic_slots, period):
    row, rows = 4, 7
    reference = TitForTatChoker(regular_slots, optimistic_slots, period)
    state = FastChokerState(regular_slots, optimistic_slots, period, seed_slots=1)
    state.add_rows(rows)
    ours, theirs = np.random.default_rng(2024), np.random.default_rng(2024)
    for interested, received in _interested_pools(max(12, 3 * period)):
        decision = reference.select_unchoked(row + 1, interested, received, theirs)
        owners, targets, regular = state.leecher_unchoke(
            ours,
            np.array([row]),
            np.array([0]),
            np.array([len(interested)]),
            np.array(interested),
            np.full(len(decision.regular), row),
            np.array(decision.regular, dtype=np.int64),
        )
        assert owners.tolist() == [row] * len(decision)
        assert targets.tolist() == decision.all
        assert regular.tolist() == [True] * len(decision.regular) + [False] * len(
            decision.optimistic
        )
        assert ours.bit_generator.state == theirs.bit_generator.state
        stored = reference._optimistic.get(row + 1, [])
        assert state.optimistic[row].tolist() == stored + [-1] * (optimistic_slots - len(stored))
        assert state.age[row] == reference._age.get(row + 1, 0)
        others = np.arange(rows) != row
        assert (state.optimistic[others] == -1).all() and (state.age[others] == 0).all()


def _unchoke(state: FastChokerState, **arrays: np.ndarray):
    args = dict(
        owners=np.array([0, 2]),
        lo=np.array([0, 3]),
        hi=np.array([3, 5]),
        partners=np.array([2, 3, 4, 1, 2]),
        regular_owner=np.array([0]),
        regular_partner=np.array([3]),
    )
    args.update(arrays)
    return state.leecher_unchoke(np.random.default_rng(0), **args)


def test_leecher_unchoke_refuses_wrong_arrays_before_the_call():
    state = FastChokerState(2, 1, 3, seed_slots=1)
    state.add_rows(3)
    with pytest.raises(ctypes.ArgumentError):
        _unchoke(state, partners=np.array([2, 3, 4, 1, 2], dtype=np.int32))
    with pytest.raises(ValueError):
        _unchoke(state, hi=np.array([3]))
    for bad in (dict(owners=np.array([0, 3])), dict(hi=np.array([3, 6])), dict(lo=np.array([4, 3]))):
        with pytest.raises(IndexError):
            _unchoke(state, **bad)
    # Regular slots that are not the owner's interested partners could
    # overflow the output: refused before that owner draws.
    with pytest.raises(ValueError):
        _unchoke(state, regular_owner=np.array([2, 2, 2]), regular_partner=np.array([7, 8, 9]))
    owners, targets, regular = _unchoke(state)
    assert owners.tolist() == [0, 0, 0, 2, 2]
    assert targets.tolist()[0] == 3 and sorted(targets.tolist()[3:]) == [1, 2]
    assert regular.tolist() == [True, False, False, False, False]


def _apply(bitfields: BitfieldMatrix, uploaded: np.ndarray, receiver: int = 1) -> None:
    kernel.apply_transfers(
        np.random.default_rng(0),
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
    monkeypatch.setattr(matching_kernel, "_library", None)


CONFIG = SwarmConfig(leechers=6, seeds=1, piece_count=12, rounds=3)


def _acceptance() -> AcceptanceGraph:
    return AcceptanceGraph.complete(PeerPopulation.ranked(8, slots=[1, 2, 0, 1, 2, 1, 1, 2]))


def test_missing_compiler_names_the_command_and_the_reference_engine(monkeypatch):
    _point_build_at(monkeypatch, "/nonexistent/repro-cc -O0")
    for engine, build in (
        ("the fast swarm engine", lambda: SwarmSimulator(CONFIG, engine="fast")),
        ("the fast matching engine", lambda: ConvergenceSimulator(_acceptance(), engine="fast")),
    ):
        with pytest.raises(native.KernelBuildError) as failure:
            build()
        message = str(failure.value)
        assert message.startswith(engine)
        # The command as run: float operations are never contracted or reordered.
        assert "`/nonexistent/repro-cc -O0 -O2 -fPIC -shared -ffp-contract=off`" in message
        assert "fast-math" not in message
        assert "[Errno 2]" in message
        assert 'engine="reference"' in message
    assert SwarmSimulator(CONFIG, engine="reference").run().rounds_run > 0
    assert ConvergenceSimulator(_acceptance(), engine="reference").run().converged


def test_failing_compiler_reports_its_stderr(monkeypatch):
    _point_build_at(monkeypatch, "sh -c 'echo no-such-header.h >&2; exit 1'")
    with pytest.raises(native.KernelBuildError, match="no-such-header.h"):
        SwarmSimulator(CONFIG, engine="fast")
    with pytest.raises(native.KernelBuildError, match="no-such-header.h"):
        ConvergenceSimulator(_acceptance(), engine="fast")


def _gcc() -> List[str]:
    """The compiler the kernel is built with, or a skip when it is not GCC."""
    command = shlex.split(sysconfig.get_config_var("CC") or "cc")
    try:
        probe = subprocess.run(
            [*command, "-dM", "-E", "-x", "c", os.devnull],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        pytest.skip("no C compiler to check the kernel with")
    if probe.returncode or "__GNUC__" not in probe.stdout or "__clang__" in probe.stdout:
        pytest.skip("the kernel's warning and sanitizer checks are written for GCC")
    return command


def test_kernel_source_compiles_clean_under_strict_warnings(tmp_path):
    command = _gcc()
    flags = ["-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror"]
    for name, module in (("swarm", kernel), ("matching", matching_kernel)):
        source = tmp_path / f"{name}.c"
        source.write_text(module.SOURCE, encoding="utf-8")
        done = subprocess.run(
            [*command, *flags, "-c", str(source), "-o", str(tmp_path / f"{name}.o")],
            capture_output=True,
            text=True,
            check=False,
        )
        assert done.returncode == 0, (name, done.stderr)


# Small poisson swarms that reach every kernel path: hostile behaviors
# (never-upload owners, super-seed reveal limits, free riders), crashes
# with rejoins, loss, an outage with failover and peer exchange, and
# piece counts of 37 and 9 that leave padding bits in the last byte.
SANITIZED_CONFIGS = [
    SwarmConfig(
        leechers=12,
        seeds=1,
        piece_count=piece_count,
        rounds=12,
        seed_upload_kbps=300.0,
        behaviors="hostile",
        faults="outage:3+3,loss:0.05,crash:3@4~2",
        resilience="full",
    )
    for piece_count in (40, 37, 9)
]

# Small matching runs on the fast engine, every strategy: the best-mate
# scan and the explicit targets of the decremental and random strategies,
# at budgets of 1 and 2 slots with a zero-capacity peer, and churn, which
# rebuilds the arrays, the stable table and the kernel's state after every
# event.
STRATEGIES = ("best-mate", "decremental", "random")
SANITIZED_CONVERGENCE = [
    dict(
        n=30,
        expected_degree=6.0,
        slots=[b] * 29 + [0],
        strategy=strategy,
        seed=3,
        max_base_units=6.0,
    )
    for strategy in STRATEGIES
    for b in (1, 2)
]
SANITIZED_CHURN = [
    ChurnConfig(
        n=30,
        expected_degree=5.0,
        churn_rate=0.05,
        slots=b,
        max_base_units=6.0,
        strategy=strategy,
        engine="fast",
    )
    for strategy in STRATEGIES
    for b in (1, 2)
]

_SANITIZED_RUN = """
import pickle, sys
from repro.sim import native
native._FLAGS += ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")
from repro.bittorrent.swarm import SwarmSimulator
from repro.core import simulate_convergence
from repro.core.churn import simulate_churn
with open(sys.argv[1], "rb") as handle:
    swarms, convergence, churn = pickle.load(handle)
results = (
    [SwarmSimulator(config, seed=5, engine="fast", scenario="poisson").run() for config in swarms],
    [simulate_convergence(**kwargs, engine="fast") for kwargs in convergence],
    [simulate_churn(config, seed=5) for config in churn],
)
with open(sys.argv[1], "wb") as handle:
    pickle.dump(results, handle)
"""


def test_kernel_runs_clean_under_address_and_undefined_behavior_sanitizers(tmp_path):
    command = _gcc()
    libasan = subprocess.run(
        [*command, "-print-file-name=libasan.so"], capture_output=True, text=True, check=False
    ).stdout.strip()
    if not os.path.isabs(libasan) or not os.path.exists(libasan):
        pytest.skip("libasan is not installed for the C compiler")
    exchange = tmp_path / "runs.pickle"
    exchange.write_bytes(
        pickle.dumps((SANITIZED_CONFIGS, SANITIZED_CONVERGENCE, SANITIZED_CHURN))
    )
    src = Path(kernel.__file__).resolve().parents[3]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        LD_PRELOAD=libasan,
        ASAN_OPTIONS="detect_leaks=0",
    )
    done = subprocess.run(
        [sys.executable, "-c", _SANITIZED_RUN, str(exchange)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    swarms, convergence, churn = pickle.loads(exchange.read_bytes())
    assert len(swarms) == len(SANITIZED_CONFIGS)
    for config, fast in zip(SANITIZED_CONFIGS, swarms):
        reference = SwarmSimulator(config, seed=5, scenario="poisson").run()
        assert_results_identical(reference, fast)
    assert len(convergence) == len(SANITIZED_CONVERGENCE)
    for kwargs, fast in zip(SANITIZED_CONVERGENCE, convergence):
        reference = simulate_convergence(**kwargs)
        assert fast.trajectory.values == reference.trajectory.values
        assert fast.active_initiatives == reference.active_initiatives
        assert fast.final_matching == reference.final_matching
    assert len(churn) == len(SANITIZED_CHURN)
    for config, fast in zip(SANITIZED_CHURN, churn):
        reference = simulate_churn(dataclasses.replace(config, engine="reference"), seed=5)
        assert fast.churn_events == reference.churn_events > 0
        assert fast.trajectory.values == reference.trajectory.values
