"""Small, pure helpers: percentiles and failure ratios."""

from __future__ import annotations

import math
import typing as _t

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it.
MIN_BEYOND = 10


def percentile(values: _t.Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q``-quantile of ``values`` (0 < q < 1), or None
    when fewer than :data:`MIN_BEYOND` samples lie beyond it.

    Failed requests enter as ``inf``: they miss every latency limit.
    """
    n = len(values)
    if n == 0:
        return None
    rank = math.ceil(q * n)  # 1-based
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def is_failure(sample: _t.Any) -> bool:
    """A timecurl sample counts as failed unless it got a 2xx answer:
    timeouts and refusals (``ok=False``, ``status=0``) included."""
    return not sample.ok


def error_ratio(failed: int, attempted: int) -> float:
    if attempted <= 0:
        raise ValueError("no requests attempted")
    return failed / attempted
