"""Fairness indexes (Chapter 4 "Metrics").

* Jain's fairness index [20]: ``(sum x)^2 / (n * sum x^2)`` — sensitive
  to the majority of flows; 1 means perfectly equal, 1/n means one flow
  hogs everything.
* Max-min fairness, "which focuses on the outlier": the paper normalizes
  by the aggregate, so we report ``n * min(x) / sum(x)`` — the worst
  flow's share relative to an equal split (1 = perfectly fair).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["jain_index", "max_min_fairness"]


def _as_rates(values: Sequence[float]) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("fairness of an empty allocation is undefined")
    if np.any(x < 0):
        raise ValueError("rates must be non-negative")
    return x


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index, in [1/n, 1] (1 when all-zero, by convention)."""
    x = _as_rates(values)
    top = x.max()
    if top == 0.0:
        return 1.0
    # Normalize by the max before squaring: the index is scale
    # invariant, and with the largest rate at 1 neither sum can under-
    # or overflow (the mean can: two rates of 0 and 5e-324 average to
    # a subnormal half that rounds to 0).
    x = x / top
    s = x.sum()
    return float(s * s / (x.size * np.square(x).sum()))


def max_min_fairness(values: Sequence[float]) -> float:
    """Worst flow's share of an equal split: ``n * min / sum``, in [0, 1]."""
    x = _as_rates(values)
    total = x.sum()
    if total == 0.0:
        return 1.0
    return float(x.size * x.min() / total)
