"""Upload-bandwidth distributions (Figure 10).

The paper feeds its matching model with the upstream-capacity measurements
of Saroiu, Gummadi and Gribble ("A measurement study of peer-to-peer file
sharing systems", MMCN 2002).  Those traces are not redistributable, so this
module provides a synthetic *mixture* distribution whose cumulative curve
reproduces the published shape: a wide spread from tens of kbps to 100 Mbps
with pronounced density peaks at the typical access technologies of the
time (modem, ISDN, DSL, cable, T1, Ethernet).  The efficiency analysis of
Figure 11 only consumes the CDF, so any distribution with the same peaks
exercises the same code path and produces the same qualitative result
(ratio peaks just above each density peak, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["BandwidthClass", "BandwidthDistribution", "saroiu_like_distribution"]


@dataclass(frozen=True)
class BandwidthClass:
    """One access-technology mode of the mixture.

    Attributes
    ----------
    name:
        Human-readable label ("dsl", "cable", ...).
    upstream_kbps:
        Central upstream rate in kbps.
    weight:
        Relative share of hosts on this technology.
    spread:
        Log-normal sigma describing within-class variability.
    """

    name: str
    upstream_kbps: float
    weight: float
    spread: float = 0.15

    def __post_init__(self) -> None:
        if self.upstream_kbps <= 0:
            raise ValueError(f"class {self.name}: upstream must be positive")
        if self.weight <= 0:
            raise ValueError(f"class {self.name}: weight must be positive")
        if self.spread < 0:
            raise ValueError(f"class {self.name}: spread must be non-negative")


# Mixture approximating the Saroiu et al. Gnutella upstream CDF: most hosts
# on dial-up/DSL/cable, a long tail of well-connected (T1/T3/campus) hosts.
_SAROIU_CLASSES: Tuple[BandwidthClass, ...] = (
    BandwidthClass("modem", 56.0, 0.20, 0.10),
    BandwidthClass("isdn", 128.0, 0.10, 0.10),
    BandwidthClass("dsl", 384.0, 0.25, 0.20),
    BandwidthClass("cable", 768.0, 0.20, 0.25),
    BandwidthClass("t1", 1_500.0, 0.12, 0.20),
    BandwidthClass("t3", 10_000.0, 0.08, 0.30),
    BandwidthClass("campus", 45_000.0, 0.05, 0.35),
)


class BandwidthDistribution:
    """A log-normal mixture over access-technology classes."""

    def __init__(self, classes: Sequence[BandwidthClass]) -> None:
        if not classes:
            raise ValueError("need at least one bandwidth class")
        self.classes = tuple(classes)
        total = sum(c.weight for c in self.classes)
        self._weights = np.array([c.weight / total for c in self.classes])
        self._centers = np.array([c.upstream_kbps for c in self.classes])
        self._spreads = np.array([c.spread for c in self.classes])

    # -- sampling --------------------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` upstream capacities in kbps."""
        if n < 0:
            raise ValueError("n must be non-negative")
        component = rng.choice(len(self.classes), size=n, p=self._weights)
        log_center = np.log(self._centers[component])
        sigma = self._spreads[component]
        return np.exp(rng.normal(loc=log_center, scale=sigma))

    # -- cumulative distribution -------------------------------------------------

    def cdf(self, upstream_kbps: np.ndarray | float) -> np.ndarray | float:
        """Fraction of hosts with upstream capacity <= the given value(s)."""
        x = np.asarray(upstream_kbps, dtype=float)
        out = np.zeros_like(x, dtype=float)
        positive = x > 0
        if np.any(positive):
            z = np.zeros((len(self.classes),) + x[positive].shape)
            for index, cls in enumerate(self.classes):
                sigma = max(cls.spread, 1e-9)
                z[index] = _normal_cdf(
                    (np.log(x[positive]) - np.log(cls.upstream_kbps)) / sigma
                )
            out[positive] = np.tensordot(self._weights, z, axes=1)
        if np.isscalar(upstream_kbps):
            return float(out)
        return out

    def percentage_of_hosts(self, upstream_kbps: np.ndarray | float) -> np.ndarray | float:
        """Figure 10's y-axis: percentage of hosts below the given upstream."""
        cdf = self.cdf(upstream_kbps)
        if np.isscalar(upstream_kbps):
            return 100.0 * float(cdf)
        return 100.0 * np.asarray(cdf)

    def quantile(self, q: float) -> float:
        """Approximate inverse CDF via bisection on the kbps axis."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        low, high = 1.0, 1e7
        for _ in range(200):
            mid = np.sqrt(low * high)  # bisect in log space
            if float(self.cdf(mid)) < q:
                low = mid
            else:
                high = mid
        return float(np.sqrt(low * high))

    def density_peaks(self) -> List[float]:
        """Central rates of the mixture components (the 'density peaks')."""
        return sorted(float(c.upstream_kbps) for c in self.classes)

    def figure10_curve(self, points: int = 200) -> Dict[str, np.ndarray]:
        """The (upstream, percentage-of-hosts) series of Figure 10."""
        grid = np.logspace(1, 5, points)
        return {"upstream_kbps": grid, "percentage_of_hosts": np.asarray(self.percentage_of_hosts(grid))}


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    from scipy.special import erf

    return 0.5 * (1.0 + erf(np.asarray(z) / np.sqrt(2.0)))


def saroiu_like_distribution() -> BandwidthDistribution:
    """The default Saroiu-style upstream distribution used by the paper's Section 6."""
    return BandwidthDistribution(_SAROIU_CLASSES)
