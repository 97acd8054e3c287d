"""Fuzzing the spec parsers: every input parses or raises ``ValueError``.

``make_faults``, ``make_resilience`` and ``make_behavior_mix`` turn CLI
strings into configs.  Whatever a user types, each must return its own
type or raise a ``ValueError`` that names the cause -- never a
``TypeError``, ``IndexError`` or any other exception from deep inside a
constructor.  The inputs are strings over the spec alphabet and small
mutations of valid specs, so most of them get past the first token.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bittorrent.behaviors import BEHAVIOR_MIX_NAMES, BehaviorMix, make_behavior_mix
from repro.bittorrent.faults import FAULT_PRESET_NAMES, FaultSchedule, make_faults
from repro.bittorrent.resilience import (
    RESILIENCE_PRESET_NAMES,
    ResiliencePolicy,
    make_resilience,
)

_PARSERS = (
    (make_faults, FaultSchedule),
    (make_resilience, ResiliencePolicy),
    (make_behavior_mix, BehaviorMix),
)

_ALPHABET = "abcdefghijklmnopqrstuvwxyz_0123456789:,+@~/.- "

_VALID_TOKENS = (
    "outage:20+5",
    "outage:3+4/1",
    "outage:3+4/all",
    "loss:0.02",
    "loss:0.5@3+2",
    "crash:5@10~3",
    "crash:2@5",
    "partition:10+5/2",
    "trackers:3",
    "pex",
    "pex:8",
    "keepalive:5",
    "free_rider:0.2",
    "never_upload:0.1",
    "nat_limited:0.3",
    "locality_biased:0.5",
    "seeds:super_seed",
    "groups:4",
)

_PRESETS = FAULT_PRESET_NAMES + RESILIENCE_PRESET_NAMES + BEHAVIOR_MIX_NAMES


@st.composite
def _mutated_specs(draw) -> str:
    """A valid spec (a preset or a comma list of tokens) with a few edits."""
    tokens = draw(st.lists(st.sampled_from(_VALID_TOKENS), min_size=1, max_size=4))
    spec = draw(st.sampled_from(_PRESETS + (",".join(tokens),)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        position = draw(st.integers(min_value=0, max_value=len(spec)))
        char = draw(st.sampled_from(_ALPHABET))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        tail = spec[position:] if edit == "insert" else spec[position + 1 :]
        spec = spec[:position] + ("" if edit == "delete" else char) + tail
    return spec


_SPECS = st.one_of(
    st.text(alphabet=_ALPHABET, max_size=40),
    _mutated_specs(),
    st.text(max_size=20),
)


@settings(max_examples=400, deadline=None)
@given(spec=_SPECS)
def test_parsers_return_their_type_or_raise_value_error(spec):
    for parse, kind in _PARSERS:
        try:
            result = parse(spec)
        except ValueError:
            continue
        assert isinstance(result, kind), (parse.__name__, spec)
