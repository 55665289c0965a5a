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
"""
from __future__ import annotations

import math
from collections import namedtuple

from .bitseq import BitSeq, is_rll, le_encode
from .code import CodeParams, coefficient_value, d_range
from .errors import DataError, InvariantError, ValidationError
from .front import feasibility_bound

_LN2 = math.log(2)


def g_bound(r: int) -> int:
    """Largest blocklength served by the baseline balanced-index construction."""
    if r < 3:
        raise ValidationError(f"run limit must be at least 3 (got r={r})")
    return (1 << (r - 3)) + 1


def h_bound(r: int) -> int:
    """Largest message-part length the replacement front-end can feed the embedder."""
    if r < 3:
        raise ValidationError(f"run limit must be at least 3 (got r={r})")
    return feasibility_bound(r)


def phi(n: float) -> float:
    """Lower bound on the redundancy of any run-limited single-indel code.

    Evaluates n - log2(2^n - 2) + log2(n - 1); the first two terms are
    computed as -log2(1 - 2^(1-n)) so large n cannot overflow.
    """
    if n < 2:
        raise ValidationError(f"blocklength must be at least 2 (got n={n})")
    return -math.log1p(-(2.0 ** (1 - n))) / _LN2 + math.log2(n - 1)


def psi(n: float) -> float:
    """Positivity witness for the growth of phi: 2^n - 2 - 2(n-1) ln 2."""
    return 2.0**n - 2.0 - 2.0 * (n - 1) * _LN2


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
    """Weighted sum of a parity word over all positions except the solved one.

    The solved index r_hat is the only one weighted by d, so the result never
    depends on d.
    """
    m = r_hat + 3
    if len(p) != m:
        raise DataError(f"parity word length {len(p)} != r_hat + 3 = {m}")
    total = 0
    for i in range(1, m):
        if i != r_hat and p[i - 1]:
            total += coefficient_value(i, r_hat, 0)
    return total


def forbidden_parities(r_hat: int, last_symbol: int) -> list[BitSeq]:
    """All parity words with the given last symbol whose longest run exceeds r_hat.

    Generated by direct filter over all 2^(r_hat + 3) words, in lexicographic
    order, so the set is definitional rather than transcribed.
    """
    if r_hat < 4:
        raise ValidationError(f"r_hat must be at least 4 (got {r_hat})")
    if last_symbol not in (0, 1):
        raise DataError(f"last symbol must be 0 or 1 (got {last_symbol})")
    m = r_hat + 3
    out = []
    for mask in range(1 << m):
        if mask & 1 != last_symbol:
            continue
        word = le_encode(mask, m)[::-1]  # most significant symbol first
        if not is_rll(word, r_hat):
            out.append(word)
    return out


# the one parameter triple whose fallback failure the sweep is expected to find
_EXPECTED_COLLISIONS: dict[int, tuple[tuple[int, int, int], ...]] = {4: ((14, 5, 32),)}


_GapFields = namedtuple("_GapFields", "r_hat c1 c2 c3 d_interval disjoint collisions")


class GapReport(_GapFields):
    """Result of one collision sweep: interval geometry plus any residue hits.

    collisions holds (k, d, A) triples with A a multiple of the modulus for
    that k; d_interval is the modulus range over the swept band.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "GapReport":
        self = super().__new__(cls, *args, **kwargs)
        for name, (lo, hi) in (
            ("c1", self.c1),
            ("c2", self.c2),
            ("c3", self.c3),
            ("d_interval", self.d_interval),
        ):
            if lo > hi:
                raise InvariantError(f"interval {name} is empty: ({lo}, {hi})")
        if self.disjoint != (len(self.collisions) == 0):
            raise InvariantError("disjoint flag disagrees with the collision list")
        return self

    def chain_holds(self) -> bool:
        """Interval chain with the boundary touch exactly at the narrowest band."""
        c1, c2, c3, dd = self.c1, self.c2, self.c3, self.d_interval
        ordered = (
            0 < c1[0] <= c1[1] < c2[0] <= c2[1] < dd[0] <= dd[1] <= c3[0] <= c3[1] < 2 * dd[0]
        )
        boundary = (dd[1] == c3[0]) == (self.r_hat == 4)
        return ordered and boundary

    @property
    def passed(self) -> bool:
        """True when the hits are exactly the known exclusion and the chain holds."""
        expected = _EXPECTED_COLLISIONS.get(self.r_hat, ())
        return set(self.collisions) == set(expected) and self.chain_holds()

    def lines(self) -> list[str]:
        passed = self.passed
        head = f"CHECK gap-condition r_hat={self.r_hat} {'PASS' if passed else 'FAIL'}"
        if self.collisions:
            head += " " + ";".join(f"(k={k},d={d},A={a})" for k, d, a in self.collisions)
        summary = " ".join(
            [
                "check=gap-condition",
                f"r_hat={self.r_hat}",
                f"result={'pass' if passed else 'fail'}",
                f"c1={self.c1[0]}..{self.c1[1]}",
                f"c2={self.c2[0]}..{self.c2[1]}",
                f"c3={self.c3[0]}..{self.c3[1]}",
                f"d_interval={self.d_interval[0]}..{self.d_interval[1]}",
                f"chain={'yes' if self.chain_holds() else 'no'}",
                f"collisions={len(self.collisions)}",
            ]
        )
        return [head, summary]

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"


def gap_condition_check(r_hat: int) -> GapReport:
    """Sweep one blocklength band for parity pairs that defeat the fallback.

    For every k in the band, every weight d, and every pair of forbidden
    parity words with matching last symbol (first-pass shape p0 against
    fallback shape p1), tests whether A = rho(p1) + d - rho(p0) is a multiple
    of the modulus. Also reports the modulus range and the collision-value
    families, the maximal runs of consecutive values of A over all pairs and
    all d; raises InvariantError unless there are exactly three.
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
    collisions = tuple(sorted(hits))
    return GapReport(
        r_hat=r_hat,
        c1=c1,
        c2=c2,
        c3=c3,
        d_interval=(moduli[k_lo], moduli[k_hi]),
        disjoint=not collisions,
        collisions=collisions,
    )


def emit_csv(rows: list[AnalysisRow]) -> str:
    """Render analysis rows as CSV with six decimal places and LF endings."""
    lines = ["n,r_hat,redundancy,phi,gap"]
    for row in rows:
        lines.append(f"{row.n},{row.r_hat},{row.redundancy},{row.phi:.6f},{row.gap:.6f}")
    return "\n".join(lines) + "\n"
