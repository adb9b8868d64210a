"""Percentiles that say how many samples stand behind them.

A timing is reported at the requested percentile only when at least
:data:`MIN_BEYOND` samples lie beyond it; otherwise the highest percentile
that has that support is reported instead, and the percentile actually used
travels with the value.  Failed or refused operations enter as ``inf``, so
they count as infinitely late.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Quantile:
    """One percentile of a sample: the value, the percentile used and the count."""

    value: float
    q: float
    n: int

    def as_dict(self) -> dict:
        return {"value": self.value, "q": self.q, "n": self.n}


def supported_q(n: int, q: float) -> float | None:
    """The percentile to report for ``q`` over ``n`` samples (``None``: none has support)."""
    if n <= MIN_BEYOND:
        return None
    return min(q, (n - MIN_BEYOND) / n)


def quantile(samples, q: float) -> Quantile | None:
    """Nearest-rank percentile ``q`` of ``samples``, capped by :func:`supported_q`.

    The value at sorted index ``i`` has ``n - 1 - i`` samples beyond it;
    nearest rank puts percentile ``q`` at ``i = ceil(q * n) - 1``.
    """
    values = sorted(float(v) for v in samples)
    used = supported_q(len(values), q)
    if used is None:
        return None
    index = max(0, math.ceil(used * len(values) - 1e-9) - 1)
    return Quantile(values[index], used, len(values))


def mean(samples) -> float | None:
    values = [float(v) for v in samples]
    return sum(values) / len(values) if values else None
