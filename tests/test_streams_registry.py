"""The stream-name registry: exhaustive, collision-free, and enforced.

``repro.sim.streams`` is the single declaration point of the named-stream
determinism contract.  These tests pin the registry's internal coherence
(constants <-> specs <-> names, no collisions, no dynamic-prefix shadowing),
check it against the *actual* consumption of the ``src/`` tree as collected
by the linter (no unregistered consumer, no dead registry entry), and cover
the runtime ``strict_streams`` enforcement in :class:`RandomSource`.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import run_lint
from repro.sim import streams
from repro.sim.random_source import RandomSource

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def src_consumption():
    """Stream names consumed per file across the real src tree."""
    run = run_lint([REPO_ROOT / "src"], baseline_path=None)
    return run.consumption


# -- internal coherence --------------------------------------------------------


def test_registry_keys_match_spec_names() -> None:
    for name, spec in streams.REGISTRY.items():
        assert spec.name == name


def test_constants_cover_registry_exactly() -> None:
    constants = streams.constant_map()
    assert sorted(constants.values()) == sorted(streams.REGISTRY)
    # Bijective: no two constants may denote the same stream.
    assert len(set(constants.values())) == len(constants)


def test_no_dynamic_prefix_shadows_a_registered_name() -> None:
    for prefix in streams.DYNAMIC_PREFIXES:
        clashes = [name for name in streams.REGISTRY if name.startswith(prefix)]
        assert not clashes, f"prefix {prefix!r} shadows {clashes}"


def test_domains_and_pairing_are_consistent() -> None:
    domains = {spec.domain for spec in streams.REGISTRY.values()}
    assert domains == {"core", "bittorrent"}
    for spec in streams.REGISTRY.values():
        assert spec.description, f"{spec.name} needs a description"


def test_is_registered_exact_and_prefix() -> None:
    assert streams.is_registered(streams.BANDWIDTH)
    assert streams.is_registered("graph-42-0.25-7")
    assert streams.is_registered("slots-0.15-3")
    assert not streams.is_registered("mystery-stream")
    with pytest.raises(KeyError):
        streams.spec("mystery-stream")


# -- the registry against the real tree ----------------------------------------


def test_every_consumed_stream_is_registered(src_consumption) -> None:
    unregistered = {
        (path, name)
        for path, names in src_consumption.items()
        for name in names
        if not streams.is_registered(name)
    }
    assert not unregistered


def test_no_swarm_stream_is_drawn_in_the_fast_tree(src_consumption) -> None:
    """Neither fast backend fetches a stream.

    The swarm's round protocol and the matching dynamics' initiative
    protocol draw every stream and hand the backends generators.
    """
    fast_tree = {
        path: sorted(names)
        for path, names in src_consumption.items()
        if ("repro/bittorrent/fast/" in path or "repro/core/fast/" in path) and names
    }
    assert not fast_tree


def test_registry_has_no_dead_entries(src_consumption) -> None:
    """Every declared stream has at least one consumer in src/."""
    consumed = set()
    for names in src_consumption.values():
        consumed.update(names)
    dead = set(streams.REGISTRY) - consumed
    assert not dead, f"unconsumed registry entries: {sorted(dead)}"


# -- runtime strict mode -------------------------------------------------------


def test_strict_streams_rejects_undeclared_names() -> None:
    source = RandomSource(7, strict_streams=True)
    with pytest.raises(KeyError, match="mystery-stream"):
        source.stream("mystery-stream")
    with pytest.raises(KeyError):
        source.fresh_stream("also-not-declared")


def test_strict_streams_accepts_registered_and_dynamic_names() -> None:
    strict = RandomSource(7, strict_streams=True)
    loose = RandomSource(7)
    assert (
        strict.stream(streams.BANDWIDTH).random()
        == loose.stream(streams.BANDWIDTH).random()
    )
    strict.fresh_stream("graph-1")  # dynamic family accepted
    assert strict.stream(streams.TRACKER).integers(100) == loose.stream(
        streams.TRACKER
    ).integers(100)
