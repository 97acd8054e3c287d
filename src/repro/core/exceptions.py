"""Exceptions raised by the stable-matching core, and the checks that raise them."""

from __future__ import annotations

import operator
from typing import Any

__all__ = [
    "ModelError",
    "MatchingError",
    "CapacityError",
    "UnknownPeerError",
    "ENGINES",
    "validate_engine",
    "is_count",
]


class ModelError(Exception):
    """Base class for errors raised by the stable-matching model."""


class MatchingError(ModelError):
    """Raised when a matching operation violates the model's constraints."""


class CapacityError(MatchingError):
    """Raised when a peer would exceed its slot budget b(p)."""


class UnknownPeerError(ModelError):
    """Raised when an operation references a peer that is not in the system."""


ENGINES = ("reference", "fast")


def validate_engine(engine: str) -> str:
    """Check an ``engine=`` argument; every engine-aware entry point uses this.

    Returns the engine name so call sites can validate inline.
    """
    if engine not in ENGINES:
        raise ModelError(
            f"unknown engine '{engine}' (available: {', '.join(ENGINES)})"
        )
    return engine


def is_count(value: Any) -> bool:
    """Whether ``value`` is an integer: ``operator.index`` takes it and it is not a bool."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True
