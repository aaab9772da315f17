"""Order statistics the benchmark reports.

A timing is summarized as its median plus a *tail*: the highest
percentile that still has at least :data:`TAIL_BEYOND` samples above
it, so the tail is never a single outlier. Fewer than
``TAIL_BEYOND + 1`` samples have no tail.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Optional, Sequence, Tuple

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest percentile with at least
    :data:`TAIL_BEYOND` samples above it, or ``None`` when there are too
    few.

    With ``n`` sorted samples the answer is the sample at rank
    ``n - TAIL_BEYOND`` (1-based): exactly ``TAIL_BEYOND`` samples rank
    above it, and it sits at percentile ``100 * rank / n``.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, float(ordered[rank - 1])


def summary(values: Sequence[float]) -> Dict[str, Any]:
    """Median and tail with the sample count, for the printed report."""
    row: Dict[str, Any] = {"n": len(values), "p50": median(values)}
    found = tail(values)
    if found is not None:
        row["tail_pct"], row["tail"] = found
    return row


#: Seconds :func:`reference` typically takes on the machine the benchmark
#: was tuned on (median of 300 back-to-back calls on a 2-vCPU x86-64 VM,
#: CPython 3.11, numpy 2.4; they ranged from 7 to 18 ms). It only sets
#: the scale of reference-normalized times: at that speed a normalized
#: time equals the wall time.
REFERENCE_NOMINAL_S = 0.009


def reference() -> float:
    """Seconds this process takes for a fixed slice of work like the
    program's own: dict and string churn in the interpreter plus a numpy
    sort. Timed beside each iteration, it measures how fast the machine
    is running at that moment."""
    import time

    import numpy

    started = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(20_000):
        table[i % 997] = table.get(i % 997, 0) + len(str(i))
    values = numpy.arange(100_000, dtype=numpy.float64)[::-1] * 1.5
    numpy.sort(values)
    return time.perf_counter() - started
