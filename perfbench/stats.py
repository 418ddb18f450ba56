"""Summary statistics and failure counting for the benchmark.

Timings are kept as lists of milliseconds; every summary names the
percentile it used and the number of samples behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

TAIL_CANDIDATES = (99, 90, 75)
MIN_BEYOND = 10


def tail_percentile(n: int) -> int | None:
    """The highest of p99, p90 and p75 that leaves at least ten samples
    beyond it in a set of n samples; None when none does."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def samples_beyond(n: int, p: int) -> int:
    """How many of n sorted samples lie strictly above the p-th percentile
    as `percentile` computes it (nearest rank)."""
    return n - nearest_rank(n, p)


def nearest_rank(n: int, p: float) -> int:
    return max(1, math.ceil(p / 100.0 * n))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


@dataclass
class Summary:
    """One reported figure: its value, the percentile behind it (None for a
    rate or a total) and the sample count."""

    value: float
    unit: str
    n: int
    p: int | None = None

    def describe(self) -> str:
        where = f"p{self.p}, " if self.p is not None else ""
        beyond = f", {samples_beyond(self.n, self.p)} beyond" if self.p in TAIL_CANDIDATES else ""
        return f"{self.value:.4f} {self.unit} ({where}n={self.n}{beyond})"


def p50(values: list[float], unit: str = "ms") -> Summary:
    return Summary(percentile(values, 50), unit, len(values), 50)


def tail(values: list[float], p: int, unit: str = "ms") -> Summary:
    """The tail at the workload's pinned percentile `p`. The pin is what the
    tail rule gives at the benchmark's run length for this workload; it is
    fixed so that a faster program does not move the metric to another
    percentile."""
    return Summary(percentile(values, p), unit, len(values), p)


# ---------------------------------------------------------------------------
# Failure counting

DENIED = "denied"  # admission refused the edit: the mechanism, not a failure
OK = "ok"

# outcomes that count as failed operations
KERNEL_ERROR = "kernel-error"  # a KernelError the workload did not expect
PROTO_ERROR = "proto-error"  # the server answered with code `proto`
TIMEOUT = "timeout"  # no reply within the client's deadline
REBASE_FAILURE = "rebase-failure"  # a commit reverted another overlay
WRONG_OUTCOME = "wrong-outcome"  # granted where the workload built a denial

FAILURES = frozenset([KERNEL_ERROR, PROTO_ERROR, TIMEOUT, REBASE_FAILURE, WRONG_OUTCOME])


@dataclass
class Tally:
    """Operations attempted and failed. Denials are counted apart: they are
    how the kernel prevents conflicts, so they never count as failures."""

    attempted: int = 0
    by_outcome: dict[str, int] = field(default_factory=dict)

    def record(self, outcome: str, count: int = 1) -> None:
        if outcome != OK and outcome != DENIED and outcome not in FAILURES:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.attempted += count
        self.by_outcome[outcome] = self.by_outcome.get(outcome, 0) + count

    @property
    def failed(self) -> int:
        return sum(n for outcome, n in self.by_outcome.items() if outcome in FAILURES)

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
