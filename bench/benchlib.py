"""The benchmark's own logic: host-speed reference, percentiles, span trees, run comparison.

Nothing here imports the codec or starts a process, so `selftest.py` can
check it in isolation.
"""
from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# Percentiles the benchmark may report, highest first.
PERCENTILES = (Fraction(999, 10), Fraction(99), Fraction(95), Fraction(90), Fraction(50))
MIN_BEYOND = 10


# One pass of the reference loop on the host the baseline was measured on, idle.
REF_NS = 325_000
_REF_DATA = bytes((i * 2654435761 >> 16) & 1 for i in range(1 << 12))


def _reference_pass() -> int:
    """Fixed work shaped like the codec's per-symbol loops (NRZI, weighted sums)."""
    out = bytearray()
    prev = total = 0
    for i, b in enumerate(_REF_DATA):
        prev ^= b
        out.append(prev)
        if b:
            total += i
    return total


class Pace:
    """Host speed, read from a fixed loop timed around and during measured work.

    On a shared host, each virtual CPU in turn runs up to 1.8 times slower
    for a fraction of a second to a few seconds. Measured work is scaled by
    REF_NS over the mean reference time sampled across it, which reports the
    work as it would have run at the reference speed. The scaling is not
    exact (the codec slows by less than the loop does), so callers combine
    scaled times with a median over repeats. The loop never changes, so a
    change to the codec moves the scaled figures as it moves the raw ones.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, passes: int = 1) -> float:
        """Mean nanoseconds per pass of the reference work over `passes` passes."""
        start = time.perf_counter_ns()
        for _ in range(passes):
            _reference_pass()
        ns = (time.perf_counter_ns() - start) / passes
        self.samples.append(ns)
        return ns

    @staticmethod
    def factor(samples) -> float:
        return REF_NS * len(samples) / sum(samples)


def beyond(n: int, p) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - math.ceil(Fraction(p) * n / 100)


def highest_percentile(n: int):
    """The highest percentile in PERCENTILES with at least MIN_BEYOND samples beyond it."""
    for p in PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p) -> float:
    """Nearest-rank p-th percentile of values (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(Fraction(p) * len(ordered) / 100))
    return ordered[rank - 1]


class NoSpans:
    """Stand-in for Spans that records nothing, for the untraced pass."""

    def open(self, name: str, word: int, parent: int = -1) -> int:
        return -1

    def close(self, index: int) -> None:
        pass

    def call(self, name: str, word: int, parent: int, fn, *args):
        return fn(*args)


class Spans:
    """In-memory span store: (name, word, parent, start_ns, end_ns) per span.

    `parent` is the index of the enclosing span or -1 for a root. All spans of
    one word share its `word` id.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[str, int, int, int, int]] = []

    def open(self, name: str, word: int, parent: int = -1) -> int:
        """Start a span that `close` ends; its children can name it as parent."""
        self.rows.append((name, word, parent, time.perf_counter_ns(), -1))
        return len(self.rows) - 1

    def close(self, index: int) -> None:
        name, word, parent, start, _ = self.rows[index]
        self.rows[index] = (name, word, parent, start, time.perf_counter_ns())

    def call(self, name: str, word: int, parent: int, fn, *args):
        """fn(*args) recorded as a span; a call that raises records none."""
        start = time.perf_counter_ns()
        out = fn(*args)
        self.rows.append((name, word, parent, start, time.perf_counter_ns()))
        return out

    def roots(self) -> list[int]:
        """Index of each span's root (a parent is always recorded before its children)."""
        out: list[int] = []
        for index, (_, _, parent, _, _) in enumerate(self.rows):
            out.append(index if parent < 0 else out[parent])
        return out

    def self_times(self) -> list[int]:
        """Each span's duration minus the part of its interval its children cover."""
        children: dict[int, list[tuple[int, int]]] = {}
        for name, word, parent, start, end in self.rows:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = []
        for index, (name, word, parent, start, end) in enumerate(self.rows):
            covered = 0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("name,word,parent,start_ns,end_ns\n")
            for row in self.rows:
                f.write(",".join(map(str, row)) + "\n")


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def classify(base: dict, change: dict, better: str, bound: float | None) -> str:
    """Verdict for one (metric, workload) row from per-seed values on each side.

    better: the change wins at least nine tenths of the seed pairs, ties
    counting for neither, and the medians differ by more than the distance
    between the base's quartiles. A metric without a bound is worse by the
    mirror rule and unresolved otherwise. A bounded metric is unresolved when
    the base's own spread exceeds the bound, unless every change run reads
    better than every base run; worse when the change's median is worse than
    the base's by more than the bound; and within bound otherwise.
    """
    sign = 1 if better == "higher" else -1
    pairs = [(base[s], change[s]) for s in base if s in change]
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    gap = sign * (statistics.median(change.values()) - b_med)
    iqr = b_q3 - b_q1
    if pairs and wins * 10 >= 9 * len(pairs) and gap > iqr:
        return "better"
    if bound is None:
        if pairs and losses * 10 >= 9 * len(pairs) and -gap > iqr:
            return "worse"
        return "unresolved"
    all_better = min(sign * v for v in change.values()) > max(sign * v for v in base.values())
    if spread(list(base.values())) > bound and not all_better:
        return "unresolved"
    if -gap > bound * abs(b_med):
        return "worse"
    return "within bound"
