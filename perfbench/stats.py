"""The benchmark's arithmetic: percentiles and failure accounting.

Kept free of I/O so the tests can check it on synthetic samples.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_samples(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile.

    A percentile is reported only with at least ten samples beyond it;
    below that it is the maximum of a handful of values, not a tail."""
    return max(0, count - max(1, math.ceil(q / 100.0 * count)))


MIN_TAIL = 10


def checked_percentile(values, q: float, problems: list[str],
                       name: str) -> float:
    """:func:`percentile`, noting in ``problems`` a tail too thin to
    report; NaN when there are no samples at all."""
    if tail_samples(len(values), q) < MIN_TAIL:
        problems.append(f"{name}: only {tail_samples(len(values), q)} of "
                        f"{len(values)} samples beyond p{q:g}")
    return percentile(values, q) if values else math.nan


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the machine's CPU time (``/proc/stat`` ticks, user ...
    steal) that the hypervisor gave to other guests between two samples."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def quiet_windows(steal: list[float]) -> list[int]:
    """Indices of the measurement windows whose steal share is at most
    the median of all windows: the half in which other guests took the
    least CPU time from this one.  Ties keep every tied window, so a
    run with no steal keeps them all."""
    threshold = statistics.median(steal)
    return [index for index, share in enumerate(steal) if share <= threshold]


class Failures:
    """Failed requests by cause; every failure also counts as attempted."""

    def __init__(self):
        self.attempted = 0
        self.by_cause: Counter = Counter()
        self.examples: dict[str, str] = {}

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, cause: str, detail: str = "") -> None:
        self.by_cause[cause] += 1
        self.examples.setdefault(cause, detail)

    @property
    def failed(self) -> int:
        return sum(self.by_cause.values())
