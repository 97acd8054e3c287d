"""Adversarial and heterogeneous client behaviors.

The paper derives stratification for *homogeneous, protocol-obedient*
peers: everyone runs the reference client, uploads at full capacity and
connects to whoever the tracker returns.  Real swarms do not look like
that, and the natural robustness question is how far the Tit-for-Tat
clustering prediction survives deviant clients.  This module is the
workload dimension the scenario layer (:mod:`repro.bittorrent.scenarios`)
deliberately left out: scenarios vary *membership*, behaviors vary what a
member *does*.

A :class:`BehaviorProfile` is a named bundle of deviations from the
reference client:

``standard``
    The obedient client the paper assumes (all defaults).
``free_rider``
    Caps the upload budget at ``upload_factor`` of the peer's capacity
    (the classic bandwidth-cheat: announce a fat pipe, serve a trickle).
``never_upload``
    BitThief-style: announces, downloads, and never unchokes anybody.
``super_seed``
    Reveals at most ``reveal_limit`` new pieces per transfer per round
    (the super-seeding trickle, meant for the initial seeds via
    :attr:`BehaviorMix.seed_behavior`).
``partial_seed``
    Holds a fixed ``hold_fraction`` subset of the pieces forever: serves
    them, never downloads, never completes.
``nat_limited``
    Asymmetric connectability: two NAT-limited peers cannot connect to
    each other, so tracker contacts between them are dropped on the edge
    set (a NAT peer still connects fine to any public peer).
``locality_biased``
    Neighbor selection skewed toward the peer's assigned locality group:
    a cross-group tracker contact is kept only with probability
    ``1 - locality_bias``.

A :class:`BehaviorMix` assigns profiles to peers at arrival time from the
dedicated ``"behavior"`` random stream (:data:`repro.sim.streams.
BEHAVIOR`).  Assignment is one batched draw per population / arrival
batch, and the locality filter is one batched draw per biased announce,
both drawn by the round protocol the two swarm engines share -- so
every behavior is bit-identical across ``engine="fast"`` and
``engine="reference"`` under a shared seed (enforced by
``tests/test_swarm_engine_equivalence.py`` and the golden traces).

A trivial mix (no fractions, standard seeds) draws nothing and filters
nothing, so enabling the behavior layer cannot perturb the streams of a
behavior-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.bittorrent.specs import parse_tokens

__all__ = [
    "BEHAVIOR_NAMES",
    "BEHAVIOR_MIX_NAMES",
    "BehaviorProfile",
    "BehaviorMix",
    "profile_for",
    "make_behavior_mix",
    "resolve_behavior_mix",
    "filter_contacts",
    "bootstrap_piece_count",
]

STANDARD = "standard"


@dataclass(frozen=True)
class BehaviorProfile:
    """One named client behavior: a bundle of deviations from the default.

    Attributes
    ----------
    name:
        The behavior's registry name (``SwarmPeer.behavior`` reports it).
    upload_factor:
        Multiplier on the per-round upload budget (1.0 = full capacity;
        the peer's *announced* ``upload_kbps`` is untouched, so bandwidth
        ranks still reflect the capacity it pretends to have).
    unchokes:
        Whether the peer ever unchokes anybody.  ``False`` skips the peer
        as a sender entirely (BitThief never reciprocates).
    downloads:
        Whether the peer requests pieces.  ``False`` removes it from every
        other peer's unchoke targets and from the completion predicates
        (a partial seed serves its subset forever).
    reveal_limit:
        Maximum new pieces granted per transfer per round (``None`` =
        unlimited; 1 = super-seeding).
    hold_fraction:
        Fixed bootstrap completion overriding ``start_completion`` /
        ``arrival_completion`` (``None`` = use the swarm's setting).
    nat_limited:
        Whether the peer sits behind a connection-limited NAT; an edge
        between two NAT-limited peers is dropped from the tracker's
        contact list (symmetrically, on both neighbor sets).
    locality_bias:
        Probability of dropping a tracker contact *outside* the peer's
        locality group (0.0 = no bias).
    """

    name: str
    upload_factor: float = 1.0
    unchokes: bool = True
    downloads: bool = True
    reveal_limit: Optional[int] = None
    hold_fraction: Optional[float] = None
    nat_limited: bool = False
    locality_bias: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("behavior name cannot be empty")
        if self.upload_factor < 0.0:
            raise ValueError("upload_factor cannot be negative")
        if self.reveal_limit is not None and self.reveal_limit < 1:
            raise ValueError("reveal_limit must be >= 1 (or None)")
        if self.hold_fraction is not None and not 0.0 <= self.hold_fraction < 1.0:
            raise ValueError("hold_fraction must be in [0, 1)")
        if not 0.0 <= self.locality_bias <= 1.0:
            raise ValueError("locality_bias must be in [0, 1]")

    @property
    def is_standard(self) -> bool:
        """Whether this profile behaves exactly like the reference client."""
        return (
            self.upload_factor == 1.0
            and self.unchokes
            and self.downloads
            and self.reveal_limit is None
            and self.hold_fraction is None
            and not self.nat_limited
            and self.locality_bias == 0.0
        )


_PROFILES: Dict[str, BehaviorProfile] = {
    profile.name: profile
    for profile in (
        BehaviorProfile(STANDARD),
        BehaviorProfile("free_rider", upload_factor=0.1),
        BehaviorProfile("never_upload", unchokes=False),
        BehaviorProfile("super_seed", reveal_limit=1),
        BehaviorProfile("partial_seed", downloads=False, hold_fraction=0.5),
        BehaviorProfile("nat_limited", nat_limited=True),
        BehaviorProfile("locality_biased", locality_bias=0.75),
    )
}

BEHAVIOR_NAMES = tuple(sorted(_PROFILES))


def profile_for(name: str) -> BehaviorProfile:
    """The registered :class:`BehaviorProfile` called ``name``."""
    if name not in _PROFILES:
        raise ValueError(
            f"unknown behavior '{name}' (available: {', '.join(BEHAVIOR_NAMES)})"
        )
    return _PROFILES[name]


FractionsLike = Union[
    Mapping[str, float], Sequence[Tuple[str, float]], Tuple[Tuple[str, float], ...]
]


@dataclass(frozen=True)
class BehaviorMix:
    """How behaviors are distributed over a peer population.

    Attributes
    ----------
    fractions:
        ``(behavior_name, fraction)`` pairs; each arriving leecher draws
        its behavior from these fractions (the remainder is ``standard``).
        Normalized to a name-sorted tuple so equal mixes compare and hash
        equal regardless of input order.
    seed_behavior:
        Behavior of the initial seeds (``"super_seed"`` turns them into
        one-piece-at-a-time super seeds).
    locality_groups:
        Number of locality groups peers are spread over (only drawn /
        used when some assigned behavior has a locality bias).
    """

    fractions: FractionsLike = field(default=())
    seed_behavior: str = STANDARD
    locality_groups: int = 4

    def __post_init__(self) -> None:
        pairs = (
            tuple(self.fractions.items())
            if isinstance(self.fractions, Mapping)
            else tuple(tuple(pair) for pair in self.fractions)  # type: ignore[arg-type]
        )
        seen: Dict[str, float] = {}
        for name, fraction in pairs:
            profile_for(name)  # raises with the valid names on a typo
            fraction = float(fraction)
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"behavior fraction for '{name}' must be in [0, 1]")
            if name in seen:
                raise ValueError(f"behavior '{name}' listed twice in the mix")
            if fraction > 0.0:
                seen[name] = fraction
        if sum(seen.values()) > 1.0 + 1e-12:
            raise ValueError("behavior fractions sum to more than 1")
        profile_for(self.seed_behavior)
        if self.locality_groups < 1:
            raise ValueError("locality_groups must be >= 1")
        object.__setattr__(
            self, "fractions", tuple(sorted(seen.items()))
        )

    # -- properties ---------------------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        """Whether the mix draws nothing and changes nothing.

        A trivial mix assigns ``standard`` to everybody without touching
        the ``"behavior"`` stream, so a behavior-free run is draw-for-draw
        identical with or without the behavior layer.
        """
        return not self.fractions and self.seed_behavior == STANDARD

    @property
    def uses_locality(self) -> bool:
        """Whether any assignable behavior carries a locality bias."""
        return any(
            profile_for(name).locality_bias > 0.0
            for name, _ in tuple(self.fractions) + ((self.seed_behavior, 1.0),)
        )

    def behavior_names(self) -> Tuple[str, ...]:
        """Every behavior this mix can assign (``standard`` included)."""
        names = {STANDARD, self.seed_behavior}
        names.update(name for name, _ in self.fractions)
        return tuple(sorted(names))

    # -- assignment (the only draws) ----------------------------------------------

    def assign(self, count: int, rng: np.random.Generator) -> List[str]:
        """Behavior names for ``count`` fresh leechers.

        Consumes exactly one ``rng.random(count)`` batch when the mix has
        fractions, and nothing otherwise -- both engines call this at the
        same points with the same counts, so consumption is identical.
        """
        if count <= 0 or not self.fractions:
            return [STANDARD] * max(0, count)
        draws = rng.random(count)
        names: List[str] = []
        for value in draws:
            cumulative = 0.0
            chosen = STANDARD
            for name, fraction in self.fractions:
                cumulative += fraction
                if value < cumulative:
                    chosen = name
                    break
            names.append(chosen)
        return names

    def assign_groups(self, count: int, rng: np.random.Generator) -> List[int]:
        """Locality groups for ``count`` fresh peers (one batched draw)."""
        if count <= 0:
            return []
        return [int(g) for g in rng.integers(0, self.locality_groups, size=count)]


def bootstrap_piece_count(
    profile: BehaviorProfile, default_pieces: int, piece_count: int
) -> int:
    """Bootstrap pieces for a joining peer, honoring ``hold_fraction``.

    Falls back to the swarm's own ``default_pieces`` (start or arrival
    completion) for profiles without a fixed hold; a held subset is
    clamped so the peer is never born complete.
    """
    if profile.hold_fraction is None:
        return default_pieces
    return min(int(round(profile.hold_fraction * piece_count)), piece_count - 1)


def filter_contacts(
    profile: BehaviorProfile,
    group: int,
    contacts: Sequence[int],
    contact_groups: Sequence[int],
    contact_nat: Sequence[bool],
    rng: np.random.Generator,
) -> List[int]:
    """Apply the announcing peer's edge behaviors to its tracker contacts.

    Locality bias first: a biased announcer keeps a cross-group contact
    only when its uniform draw clears the bias (one ``rng.random(len(
    contacts))`` batch, consumed iff the announcer is biased and received
    any contacts -- the gate is a pure function of the profile, so both
    engines consume identically).  The NAT rule is deterministic: a
    NAT-limited announcer drops NAT-limited contacts.

    ``contacts`` must be in tracker draw order (both trackers return it
    that way), with ``contact_groups`` / ``contact_nat`` parallel to it.
    """
    keep = [True] * len(contacts)
    if profile.locality_bias > 0.0 and contacts:
        draws = rng.random(len(contacts))
        for k in range(len(contacts)):
            if contact_groups[k] != group and draws[k] < profile.locality_bias:
                keep[k] = False
    if profile.nat_limited:
        for k in range(len(contacts)):
            if contact_nat[k]:
                keep[k] = False
    return [int(contact) for contact, kept in zip(contacts, keep) if kept]


# Named mixes reachable from the CLI (`--behavior-mix`) and the experiment
# drivers; make_behavior_mix also parses ad-hoc "name:frac,..." specs.
_MIX_PRESETS: Dict[str, BehaviorMix] = {
    "obedient": BehaviorMix(),
    "freeriders": BehaviorMix(fractions={"free_rider": 0.2}),
    "bitthief": BehaviorMix(fractions={"never_upload": 0.1}),
    "natted": BehaviorMix(fractions={"nat_limited": 0.3}),
    "localized": BehaviorMix(fractions={"locality_biased": 0.5}),
    "superseeded": BehaviorMix(seed_behavior="super_seed"),
    "partial-seeds": BehaviorMix(fractions={"partial_seed": 0.1}),
    "hostile": BehaviorMix(
        fractions={"free_rider": 0.2, "never_upload": 0.1, "nat_limited": 0.2}
    ),
}

BEHAVIOR_MIX_NAMES = tuple(sorted(_MIX_PRESETS))


def _parse_mix_spec(spec: str) -> BehaviorMix:
    """Parse ``"free_rider:0.2,nat_limited:0.3"`` (plus ``seeds:``/``groups:``).

    Each name may appear once; a repeat raises naming its token.  A bad
    token's error names its 1-based ordinal and its character span, as the
    fault-spec parser's does (:func:`repro.bittorrent.specs.parse_tokens`).
    """
    fractions: Dict[str, float] = {}
    seed_behavior = STANDARD
    locality_groups = 4
    seen: Set[str] = set()

    def parse(token: str) -> None:
        nonlocal seed_behavior, locality_groups
        if ":" not in token:
            raise ValueError(
                f"bad behavior-mix token '{token}' (expected name:fraction, "
                f"seeds:behavior or groups:count)"
            )
        key, _, value = token.partition(":")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ValueError(f"'{key}' listed twice in the mix (token '{token}')")
        seen.add(key)
        if key == "seeds":
            seed_behavior = value
        elif key == "groups":
            try:
                locality_groups = int(value)
            except ValueError:
                raise ValueError(
                    f"bad behavior-mix token '{token}' (expected groups:count, "
                    f"count an integer)"
                ) from None
        else:
            try:
                fractions[key] = float(value)
            except ValueError:
                raise ValueError(
                    f"bad behavior fraction '{value}' for '{key}'"
                ) from None

    parse_tokens("behavior-mix", spec, parse)
    return BehaviorMix(
        fractions=fractions,
        seed_behavior=seed_behavior,
        locality_groups=locality_groups,
    )


def make_behavior_mix(spec: str) -> BehaviorMix:
    """Build a :class:`BehaviorMix` from a preset name or a spec string.

    ``spec`` is either one of :data:`BEHAVIOR_MIX_NAMES` or a comma list
    of ``name:fraction`` tokens (optionally ``seeds:<behavior>`` and
    ``groups:<count>``), e.g. ``"free_rider:0.2"`` or
    ``"locality_biased:0.5,groups:8,seeds:super_seed"``.  Unknown preset
    and behavior names raise with the list of valid names.
    """
    if spec in _MIX_PRESETS:
        return _MIX_PRESETS[spec]
    if ":" not in spec:
        raise ValueError(
            f"unknown behavior mix '{spec}' "
            f"(available: {', '.join(BEHAVIOR_MIX_NAMES)}; or pass a "
            f"'name:fraction,...' spec)"
        )
    return _parse_mix_spec(spec)


def resolve_behavior_mix(
    behaviors: Union["BehaviorMix", str, None],
) -> BehaviorMix:
    """Normalize a ``behaviors=`` argument to a :class:`BehaviorMix`.

    Accepts a mix, a preset name / spec string, or ``None`` (the trivial
    all-standard mix).
    """
    if behaviors is None:
        return BehaviorMix()
    if isinstance(behaviors, str):
        return make_behavior_mix(behaviors)
    if not isinstance(behaviors, BehaviorMix):
        raise TypeError(
            "behaviors must be a BehaviorMix, a preset name / spec string or None"
        )
    return behaviors
