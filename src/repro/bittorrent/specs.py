"""Comma-list spec strings: the one tokenizer of the fault, resilience and behavior-mix parsers.

:func:`repro.bittorrent.faults.make_faults`,
:func:`repro.bittorrent.resilience.make_resilience` and
:func:`repro.bittorrent.behaviors.make_behavior_mix` each read a comma
list of ``key:value`` tokens.  :func:`parse_tokens` splits the list and
locates a bad token for all three, so a typo in a long composite spec is
found without bisecting it.  It imports nothing from the parsers, so
each can import it without a cycle.
"""

from __future__ import annotations

from typing import Callable, List, TypeVar

__all__ = ["parse_tokens"]

T = TypeVar("T")


def parse_tokens(kind: str, spec: str, parse: Callable[[str], T]) -> List[T]:
    """``parse`` applied to each non-empty, stripped comma token of ``spec``, in order.

    A :class:`ValueError` that ``parse`` raises is re-raised as
    ``<kind> spec error in token N ('tok', chars a-b): <cause>``: the
    token's 1-based ordinal among the non-empty tokens, its text, and its
    character span in ``spec`` (0-based, end exclusive; commas and
    surrounding whitespace excluded).
    """
    results: List[T] = []
    offset = 0
    ordinal = 0
    for raw in spec.split(","):
        token = raw.strip()
        if token:
            ordinal += 1
            start = offset + len(raw) - len(raw.lstrip())
            try:
                results.append(parse(token))
            except ValueError as exc:
                raise ValueError(
                    f"{kind} spec error in token {ordinal} ('{token}', "
                    f"chars {start}-{start + len(token)}): {exc}"
                ) from None
        offset += len(raw) + 1  # the token plus the comma it lost
    return results
