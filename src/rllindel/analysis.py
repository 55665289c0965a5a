"""Redundancy accounting and the parity-collision sweep.

Two independent questions live here. First, how far the construction sits
from the counting lower bound on redundancy: fixed cost r_hat + 4 against
the bound `phi`, tabulated as CSV rows. Second, whether the parity fallback
can ever be forced to fail: a fallback failure requires two forbidden parity
words whose weighted sums differ by a multiple of the congruence modulus,
and the sweep below finds every such pair over a whole parameter band.

The interval story behind the sweep. Write R = 2^r_hat. Over the band, k
runs over [R/2 - 1, R - 2], d over [R/4 + 1, R/2 - 1], and the modulus
M = a_(n+1) = R + k + 2 over D = [3R/2 + 1, 2R]. The forbidden pairs give
ten distinct weight differences delta = rho(p1) - rho(p0) at every r_hat:
-1, R - 4 .. R - 1 and 2R - 5 .. 2R - 1. Each delta reaches the interval
[delta + d_lo, delta + d_hi] of collision values A = rho(p1) + d - rho(p0),
and the intervals, merged where they overlap or touch, form three families
C1 = [R/4, R/2 - 2], C2 = [5R/4 - 3, 3R/2 - 2] and C3 = [9R/4 - 4, 5R/2 - 2].
The sweep merges the intervals of the differences it computes from the
forbidden words rather than writing these formulas down, so the chain it
reports is a statement about the data; the tests hold the formulas against
it for r_hat = 4..64.

A collision is a modulus M in D with A = j*M for a whole j. The sweep tests
every j, zero and negative ones included, so it does not assume the chain
C1 < C2 < D <= C3 < 2*D that it reports. The chain is why there is one
collision in all: every A is positive, so no j <= 0 hits; C3 ends at
5R/2 - 2, below 2*min(D) = 3R + 2, so no j >= 2 hits; and C2 ends below D,
while C3 starts at 9R/4 - 4 >= 2R = max(D), with equality only at R = 16. So
M divides A only where A = M, which is the touch D.upper == C3.lower = 32 at
r_hat = 4: the collision (k, d, A) = (14, 5, 32) of the (k, r, d) =
(14, 4, 5) exclusion that derive_params enforces (code._EXCLUDED_TRIPLE).
Each difference costs a few integer operations, so the cost does not grow
with the band; the sweep accepts 4 <= r_hat <= 64, the shapes of every k
below 2^64 - 1.

The sweep reports through oracle.Report, as the verification suites do: the
families and D as `lo..hi` stats, the chain as yes/no, and the collision
list as the counterexample, which the report prints on PASS as well, so the
expected (14, 5, 32) collision at r_hat = 4 stays visible.
"""
from __future__ import annotations

import math
from collections import namedtuple
from itertools import compress, product

from .bitseq import BitSeq
from .code import _EXCLUDED_TRIPLE, CodeParams, _check_r_hat, _coefficients, d_range
from .errors import DataError, InvariantError, ValidationError
from .front import feasibility_bound
from .oracle import Report

_LN2 = math.log(2)


def g_bound(r: int) -> int:
    """Largest blocklength served by the baseline balanced-index construction."""
    if r < 3:
        raise ValidationError(f"run limit must be at least 3 (got r={r})")
    return (1 << (r - 3)) + 1


# the paper's name for the feasibility bound 2^r + r - 5
h_bound = feasibility_bound


def phi(n: int) -> float:
    """Lower bound on the redundancy of any run-limited single-indel code.

    Evaluates n - log2(2^n - 2) + log2(n - 1); the first two terms are
    computed as -log2(1 - 2^(1-n)) so large n cannot overflow, and 2^(1-n)
    is built by ldexp, which is exact and reaches 0.0 for any integer n.
    """
    if n < 2:
        raise ValidationError(f"blocklength must be at least 2 (got n={n})")
    return -math.log1p(-math.ldexp(1.0, 1 - n)) / _LN2 + math.log2(n - 1)


def psi(n: float) -> float:
    """Positivity witness for the growth of phi: 2^n - 2 - 2(n-1) ln 2.

    inf where 2^n overflows a float, from n = 1024 on.
    """
    try:
        return 2.0**n - 2.0 - 2.0 * (n - 1) * _LN2
    except OverflowError:
        return math.inf


_RowFields = namedtuple("_RowFields", "n r_hat redundancy phi gap")


class AnalysisRow(_RowFields):
    """One CSV row: fixed redundancy of the construction against the bound."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "AnalysisRow":
        self = super().__new__(cls, *args, **kwargs)
        if self.redundancy != self.r_hat + 4:
            raise InvariantError(
                f"redundancy {self.redundancy} != r_hat + 4 = {self.r_hat + 4}"
            )
        if abs(self.gap - (self.redundancy - self.phi)) > 1e-6:
            raise InvariantError("gap is not redundancy - phi")
        return self


def redundancy_row(n: int) -> AnalysisRow:
    """Place n in its blocklength band and compare the fixed cost to the bound."""
    if n < 14:
        raise ValidationError(f"blocklength must be at least 14 (got n={n})")
    r_hat = 4
    while n > (1 << r_hat) + r_hat + 1:
        r_hat += 1
    bound = phi(n)
    return AnalysisRow(n=n, r_hat=r_hat, redundancy=r_hat + 4, phi=bound, gap=r_hat + 4 - bound)


def rho(r_hat: int, p: BitSeq) -> int:
    """Weighted sum of a parity word's positions 1 .. r_hat + 2 at d = 0.

    Over the head coefficients with d = 0 the solved index r_hat weighs 0,
    and it is the only index weighted by d, so the result never depends on d.
    """
    m = r_hat + 3
    if len(p) != m:
        raise DataError(f"parity word length {len(p)} != r_hat + 3 = {m}")
    return sum(compress(_coefficients(r_hat + 1, r_hat, 0), p))


def forbidden_parities(r_hat: int, last_symbol: int) -> list[BitSeq]:
    """All parity words with the given last symbol whose longest run exceeds r_hat.

    A run longer than r_hat in r_hat + 3 symbols fills a window of r_hat + 1
    positions, at offset 0, 1 or 2, with one symbol, and leaves two positions
    free; the words are built that way, without duplicates, in lexicographic
    order.
    """
    _check_r_hat(r_hat)
    if last_symbol not in (0, 1):
        raise DataError(f"last symbol must be 0 or 1 (got {last_symbol})")
    words = {
        bytes(free[:offset] + (symbol,) * (r_hat + 1) + free[offset:])
        for symbol, offset, free in product((0, 1), range(3), product((0, 1), repeat=2))
    }
    return [BitSeq._wrap(word) for word in sorted(words) if word[-1] == last_symbol]


# the one fallback failure the sweep is expected to find: the excluded triple's,
# where A is its modulus, in its band r_hat = r
_EXPECTED_COLLISIONS: dict[int, tuple[tuple[int, int, int], ...]] = {
    r: ((k, d, CodeParams.unchecked(k, r, r, d, 0).modulus),) for k, r, d in (_EXCLUDED_TRIPLE,)
}


def gap_condition_check(r_hat: int) -> Report:
    """Sweep one blocklength band for parity pairs that defeat the fallback.

    For every k in the band, every weight d, and every pair of forbidden
    parity words with matching last symbol (first-pass shape p0 against
    fallback shape p1), finds whether A = rho(p1) + d - rho(p0) is a multiple
    of the modulus, working per difference rho(p1) - rho(p0) on the interval
    of A it reaches. Also reports the modulus range and the collision-value
    families, the maximal runs of consecutive values of A over all pairs and
    all d; raises InvariantError unless there are exactly three. Passes when
    the families and the modulus range form the chain and the collisions are
    exactly the expected ones for r_hat.
    """
    if not 4 <= r_hat <= 64:
        raise ValidationError(
            f"sweep supports 4 <= r_hat <= 64, the shapes of every k below 2^64 - 1 (got {r_hat})"
        )
    d_lo, d_hi = d_range(r_hat)
    k_lo, k_hi = (1 << (r_hat - 1)) - 1, (1 << r_hat) - 2
    deltas = set()
    for last in (0, 1):
        words = forbidden_parities(r_hat, last)
        first_pass = [rho(r_hat, p) for p in words if p[r_hat - 1] == 0]
        fallback = [rho(r_hat, p) for p in words if p[r_hat - 1] == 1]
        deltas.update(rho1 - rho0 for rho1 in fallback for rho0 in first_pass)
    # each delta reaches the values A in [delta + d_lo, delta + d_hi]; the
    # families are those intervals merged where they overlap or touch, and as
    # every interval has the same width, sorting by lo also sorts by hi
    runs = []
    for lo, hi in sorted((delta + d_lo, delta + d_hi) for delta in deltas):
        if runs and lo <= runs[-1][1] + 1:
            lo = runs.pop()[0]
        runs.append((lo, hi))
    if len(runs) != 3:
        raise InvariantError(f"collision values form {len(runs)} runs, not three families")
    c1, c2, c3 = runs
    # a_(n+1) = 2^r_hat + k + 2 does not depend on d and rises by one with k
    m_lo, m_hi = (CodeParams.unchecked(k, r_hat, r_hat, d_lo, 0).modulus for k in (k_lo, k_hi))
    hits = set()
    for delta in deltas:
        lo, hi = delta + d_lo, delta + d_hi
        # every whole j, zero and negative ones too, with j*M in [lo, hi] for
        # some M in D, and the moduli M in D between lo/j and hi/j, whose
        # order a negative j flips; j = 0 is in the range only where
        # lo <= 0 <= hi, and then every M is hit
        for j in range(min(-(-lo // m_lo), -(-lo // m_hi)), max(hi // m_lo, hi // m_hi) + 1):
            a, b = (lo, hi) if j > 0 else (hi, lo)
            first, last = (-(-a // j), b // j) if j else (m_lo, m_hi)
            for modulus in range(max(first, m_lo), min(last, m_hi) + 1):
                hits.add((k_lo + modulus - m_lo, j * modulus - delta, j * modulus))
    # the chain C1 < C2 < D <= C3 < 2*D, touching at D.upper == C3.lower only at r_hat = 4
    chain = (
        0 < c1[0] <= c1[1] < c2[0] <= c2[1] < m_lo <= m_hi <= c3[0] <= c3[1] < 2 * m_lo
    ) and (m_hi == c3[0]) == (r_hat == 4)
    families = zip(("c1", "c2", "c3", "d_interval"), (c1, c2, c3, (m_lo, m_hi)))
    return Report(
        name="gap-condition",
        params={"r_hat": r_hat},
        passed=chain and hits == set(_EXPECTED_COLLISIONS.get(r_hat, ())),
        counterexample=";".join(f"(k={k},d={d},A={a})" for k, d, a in sorted(hits)) or None,
        stats={
            **{name: f"{lo}..{hi}" for name, (lo, hi) in families},
            "chain": "yes" if chain else "no",
            "collisions": len(hits),
        },
    )


CSV_HEADER = "n,r_hat,redundancy,phi,gap\n"


def csv_line(row: AnalysisRow) -> str:
    """One analysis row as a CSV line with six decimal places and an LF ending."""
    return f"{row.n},{row.r_hat},{row.redundancy},{row.phi:.6f},{row.gap:.6f}\n"


def emit_csv(rows: list[AnalysisRow]) -> str:
    """Render analysis rows as CSV with six decimal places and LF endings."""
    return CSV_HEADER + "".join(map(csv_line, rows))
