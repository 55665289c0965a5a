"""Redundancy accounting and the parity-collision sweep.

Two independent questions live here. First, how far the construction sits
from the counting lower bound on redundancy: fixed cost r_hat + 4 against
the bound `phi`, tabulated as CSV rows. Second, whether the parity fallback
can ever be forced to fail: a fallback failure requires two forbidden parity
words whose weighted sums differ by a multiple of the congruence modulus,
and the sweep below enumerates every such pair over a whole parameter band.

The interval story behind the sweep: the collision quantity
A = rho(p1) + d - rho(p0), over all forbidden pairs and all d, falls into
three contiguous families C1 < C2 < C3, and D is the range of the modulus
over the band. The sweep reads the families off its own enumeration, as the
maximal runs of consecutive values of A, rather than from formulas, so the
chain it reports is a statement about the data. The chain C1 < C2 < D <= C3
< 2*D leaves one touching point, D.upper == C3.lower, and only for the
narrowest band. That single point is the (k, r, d) = (14, 4, 5) exclusion
enforced by derive_params.

The sweep reports through oracle.Report, as the verification suites do: the
families and D as `lo..hi` stats, the chain as yes/no, and the collision
list as the counterexample, which the report prints on PASS as well, so the
expected (14, 5, 32) collision at r_hat = 4 stays visible.
"""
from __future__ import annotations

import math
from collections import namedtuple
from itertools import compress

from .bitseq import BitSeq, is_rll
from .code import CodeParams, _check_r_hat, _coefficients, d_range
from .errors import DataError, InvariantError, ValidationError
from .front import feasibility_bound
from .oracle import Report, _words

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

    Generated by direct filter over all 2^(r_hat + 3) words, in lexicographic
    order, so the set is definitional rather than transcribed.
    """
    _check_r_hat(r_hat)
    if last_symbol not in (0, 1):
        raise DataError(f"last symbol must be 0 or 1 (got {last_symbol})")
    words = (BitSeq._wrap(data) for data in _words(r_hat + 3) if data[-1] == last_symbol)
    return [word for word in words if not is_rll(word, r_hat)]


# the one parameter triple whose fallback failure the sweep is expected to find
_EXPECTED_COLLISIONS: dict[int, tuple[tuple[int, int, int], ...]] = {4: ((14, 5, 32),)}


def gap_condition_check(r_hat: int) -> Report:
    """Sweep one blocklength band for parity pairs that defeat the fallback.

    For every k in the band, every weight d, and every pair of forbidden
    parity words with matching last symbol (first-pass shape p0 against
    fallback shape p1), tests whether A = rho(p1) + d - rho(p0) is a multiple
    of the modulus. Also reports the modulus range and the collision-value
    families, the maximal runs of consecutive values of A over all pairs and
    all d; raises InvariantError unless there are exactly three. Passes when
    the families and the modulus range form the chain and the collisions are
    exactly the expected ones for r_hat.
    """
    if not 4 <= r_hat <= 12:
        raise ValidationError(f"sweep supports 4 <= r_hat <= 12 (got {r_hat})")
    d_lo, d_hi = d_range(r_hat)
    k_lo, k_hi = (1 << (r_hat - 1)) - 1, (1 << r_hat) - 2
    diffs = set()
    for last in (0, 1):
        words = forbidden_parities(r_hat, last)
        first_pass = [p for p in words if p[r_hat - 1] == 0]
        fallback = [p for p in words if p[r_hat - 1] == 1]
        for p1 in fallback:
            rho1 = rho(r_hat, p1)
            for p0 in first_pass:
                diffs.add(rho1 - rho(r_hat, p0))
    # a_(n+1) does not depend on d at encoder lengths
    moduli = {
        k: CodeParams.unchecked(k, r_hat, r_hat, d_lo, 0).modulus for k in range(k_lo, k_hi + 1)
    }
    by_value = {}  # each collision value A -> the weights d that reach it
    for d in range(d_lo, d_hi + 1):
        for diff in diffs:
            by_value.setdefault(diff + d, []).append(d)
    hits = {
        (k, d, a)
        for k, modulus in moduli.items()
        for a, ds in by_value.items()
        if a % modulus == 0
        for d in ds
    }
    # the maximal runs of consecutive collision values: each starts at a value
    # without a predecessor and ends at the next value without a successor
    values = sorted(by_value)
    runs = list(zip(
        [a for a in values if a - 1 not in by_value],
        [a for a in values if a + 1 not in by_value],
    ))
    if len(runs) != 3:
        raise InvariantError(f"collision values form {len(runs)} runs, not three families")
    c1, c2, c3 = runs
    dd = (moduli[k_lo], moduli[k_hi])
    # the chain C1 < C2 < D <= C3 < 2*D, touching at D.upper == C3.lower only at r_hat = 4
    chain = (
        0 < c1[0] <= c1[1] < c2[0] <= c2[1] < dd[0] <= dd[1] <= c3[0] <= c3[1] < 2 * dd[0]
    ) and (dd[1] == c3[0]) == (r_hat == 4)
    collisions = sorted(hits)
    families = zip(("c1", "c2", "c3", "d_interval"), (c1, c2, c3, dd))
    return Report(
        name="gap-condition",
        params={"r_hat": r_hat},
        passed=chain and hits == set(_EXPECTED_COLLISIONS.get(r_hat, ())),
        counterexample=";".join(f"(k={k},d={d},A={a})" for k, d, a in collisions) or None,
        stats={
            **{name: f"{lo}..{hi}" for name, (lo, hi) in families},
            "chain": "yes" if chain else "no",
            "collisions": len(collisions),
        },
    )


CSV_HEADER = "n,r_hat,redundancy,phi,gap\n"


def csv_line(row: AnalysisRow) -> str:
    """One analysis row as a CSV line with six decimal places and an LF ending."""
    return f"{row.n},{row.r_hat},{row.redundancy},{row.phi:.6f},{row.gap:.6f}\n"


def emit_csv(rows: list[AnalysisRow]) -> str:
    """Render analysis rows as CSV with six decimal places and LF endings."""
    return CSV_HEADER + "".join(map(csv_line, rows))
