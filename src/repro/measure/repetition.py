"""Adaptive kernel repetition (paper Eq. 5) and averaging strategies.

"To amortize the noisy component of the memory traffic measurements,
we can execute multiple GEMM operations and take the average of their
aggregate memory traffic. But how many repetitions are necessary?" —
larger problems run longer, so counters capture them accurately with
fewer repetitions. Eq. 5 linearly anneals ~500 repetitions for the
smallest problems down to 10 for N ≥ 2048.

The paper's earlier work [9] also used the *minimum* or *median* of
multiple runs on Intel; :func:`aggregate` implements all three so the
``ablation-repetitions`` experiment can compare them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence

import numpy as np

from ..errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class RepetitionPolicy:
    """Parameters of Eq. 5 (defaults are the paper's constants)."""

    intercept: float = 514.0
    slope: float = 0.246
    cutoff: int = 2048
    floor: int = 10

    def repetitions(self, n: int) -> int:
        """Eq. 5: ``⌊514 − 0.246·N⌋`` for N < 2048, else 10."""
        if n < 0:
            raise ConfigurationError("problem size cannot be negative")
        if n >= self.cutoff:
            return self.floor
        return max(self.floor, math.floor(self.intercept - self.slope * n))


#: The policy exactly as printed in the paper.
PAPER_POLICY = RepetitionPolicy()


def repetitions_for(n: int, policy: RepetitionPolicy = PAPER_POLICY) -> int:
    """Number of kernel repetitions for problem size ``n`` (Eq. 5)."""
    return policy.repetitions(n)


def aggregate(samples: Sequence[float], how: str = "mean") -> float:
    """Collapse per-repetition readings into one value.

    ``mean`` is what the paper uses on POWER9; ``min`` and ``median``
    are the Intel-era alternatives from [9].
    """
    if len(samples) == 0:
        raise ConfigurationError("cannot aggregate zero samples")
    arr = np.asarray(samples, dtype=float)
    if how == "mean":
        return float(arr.mean())
    if how == "min":
        return float(arr.min())
    if how == "median":
        return float(np.median(arr))
    raise ConfigurationError(
        f"unknown aggregation {how!r}; use mean, min, or median")


def sweep_sizes(start: int = 64, stop: int = 4096,
                points_per_octave: int = 4) -> List[int]:
    """Log-spaced problem sizes for the figure sweeps (deduplicated,
    rounded to multiples of 16 so grids stay divisible)."""
    if start <= 0 or stop < start:
        raise ConfigurationError("bad sweep range")
    sizes = []
    n = float(start)
    ratio = 2.0 ** (1.0 / points_per_octave)
    while n <= stop * 1.0001:
        rounded = max(16, int(round(n / 16.0)) * 16)
        if not sizes or rounded != sizes[-1]:
            sizes.append(rounded)
        n *= ratio
    return sizes
