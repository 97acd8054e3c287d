"""Slot-budget samplers (the ``b`` distributions of Section 4).

The paper contrasts constant b0-matching with *variable* b-matching where
``b`` follows a rounded normal distribution N(b_mean, sigma^2): every sample
is rounded to the nearest positive integer.  The phase transition of
Figure 6 appears as soon as sigma is large enough (around 0.15) to make the
samples heterogeneous.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["constant_slots", "rounded_normal_slots", "slot_statistics"]


def constant_slots(n: int, b0: int) -> List[int]:
    """Every peer gets exactly ``b0`` slots."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if b0 < 0:
        raise ValueError("b0 must be non-negative")
    return [b0] * n


def rounded_normal_slots(
    n: int,
    mean: float,
    sigma: float,
    rng: np.random.Generator,
) -> List[int]:
    """Sample slot budgets from N(mean, sigma^2) rounded to positive integers.

    Samples are rounded to the nearest integer and clipped below at 1 (the
    paper rounds "to the nearest positive integer"); with sigma = 0 this
    degenerates to constant matching at ``round(mean)``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if mean < 1:
        raise ValueError("mean slot budget must be at least 1")
    if sigma == 0:
        return [max(1, int(round(mean)))] * n
    samples = rng.normal(loc=mean, scale=sigma, size=n)
    rounded = np.maximum(1, np.rint(samples).astype(int))
    return rounded.tolist()


def slot_statistics(slots: Sequence[int]) -> dict:
    """Mean / std / min / max / heterogeneity of a slot-budget sample.

    ``heterogeneous`` is true when at least two distinct values appear --
    the condition the paper identifies as sufficient to trigger the cluster
    size explosion.
    """
    array = np.asarray(list(slots), dtype=int)
    if array.size == 0:
        raise ValueError("empty slot sequence")
    return {
        "mean": float(array.mean()),
        "std": float(array.std(ddof=0)),
        "min": int(array.min()),
        "max": int(array.max()),
        "heterogeneous": bool(np.unique(array).size > 1),
    }
