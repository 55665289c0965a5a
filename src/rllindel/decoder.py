"""Single insertion/deletion correction and full pipeline inversion.

Because the coefficient sequence is strictly increasing, the single-deletion
balls of distinct codewords never intersect, so correcting one indel means
finding the codewords one edit away from the received word and demanding that
they all collapse to one word. Candidates that are the same word through
different edits (deleting any symbol of a run, say) collapse silently; the
code corrects codewords, not edit positions. Two surviving candidates that are
distinct words would contradict the monotonicity guarantee and raise
InvariantError.

The search is closed-form rather than a scan of every edit. Pack the received
word one bit per symbol, take its weight S from code._weight (which chooses
how to sum and, on long words, reuses that int) and work modulo M = a_(n+1). A
codeword one edit away differs from S by E = (b - S) mod M for an insertion,
or by -E with E = (S - b) mod M for a deletion. An edit at (1-based) position
i changes the weight by the edited symbol's own coefficient a_i, plus, for
each 1 after the edit, the step a_(j+1) - a_j it crosses when it shifts one
place:

* Head, i < r_hat + 2. These r_hat + 1 positions are the only ones whose
  shifted suffix crosses a step other than 1, so each is tried directly,
  accumulating the steps from right to left.
* Affine region, i >= r_hat + 2. Every step there is 1, so the change is the
  symbol's coefficient plus the number of ones it shifts, exactly as in
  Varshamov-Tenengolts decoding (Levenshtein 1966). A 0 must sit where the
  ones to its right number E; a 1 must sit where the zeros to its left
  number a constant fixed by E and the total count of ones. Each condition
  picks one run of the received word, found by bisecting on popcounts of the
  word packed one bit per symbol: O(log n) Python steps, each a shift and a
  popcount.

The congruence pins the change only modulo M, so each condition is an
equality once the change's range is known. A removed 1 can weigh anything in
[0, M], inclusive: removing the last symbol of a word whose final run of ones
reaches the end removes exactly a_(n+1) = M. So the deletion branch tries
both E and E + M for a removed 1. An inserted or removed 0 and an inserted 1
always change the weight by less than M.

A correction costs one O(n) C-level pack of the word, O(log n) big-int ANDs,
shifts and popcounts, and O(r_hat + log n) Python steps. The plain O(n) scan
over every edit lives in tests/reference.py, which the tests compare against
this search.

Bytes inside: _correct takes and returns raw bytes, one byte per symbol;
correct wraps its result in a BitSeq, and decode_message chains it with the
front end's bytes functions and wraps once, at the end.
"""
from __future__ import annotations

from .bitseq import _TO_ASCII, BitSeq
from .code import CodeParams, _coefficients, _weight
from .errors import DataError, InvariantError, UncorrectableError
from .front import _nrzi_decode, _wi_decode


def _count_before(packed: int, length: int, symbol: int, j: int) -> int:
    """data[:j].count(symbol), where bit length-1-i of packed holds data[i]."""
    ones = (packed >> (length - j)).bit_count()
    return ones if symbol else j - ones


def _first(packed: int, length: int, symbol: int, target: int, lo: int, hi: int) -> int:
    """Smallest j in [lo, hi] with data[:j].count(symbol) == target, or -1."""
    while lo < hi:
        mid = (lo + hi) >> 1
        if _count_before(packed, length, symbol, mid) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo if _count_before(packed, length, symbol, lo) == target else -1


def candidates(cp: CodeParams, data: bytes) -> set[bytes]:
    """All codewords one insertion or deletion away from data (length n-1 or n+1)."""
    # the head coefficients a_1 .. a_(r_hat+2); the steps after them are all 1
    coeffs = _coefficients(cp.r_hat + 1, cp.r_hat, cp.d)
    modulus = cp.modulus
    length = len(data)
    # one bit per symbol: a shift and a popcount then count the ones of any
    # prefix without a data-dependent branch per symbol
    packed = int(data.translate(_TO_ASCII), 2)
    weight = _weight(cp, data, packed)
    ones = packed.bit_count()
    # 0-based index lo is position r_hat + 2; from there on coeffs[p] = base + p
    lo = cp.r_hat + 1
    base = coeffs[lo] - lo
    out: set[bytes] = set()
    if length == cp.n - 1:
        added = (cp.b - weight) % modulus
        # shift: weight gained by the symbols from index p on moving one place right
        shift = ones - _count_before(packed, length, 1, lo)
        for p in range(lo - 1, -1, -1):
            shift += (coeffs[p + 1] - coeffs[p]) * data[p]
            if shift % modulus == added:
                out.add(data[:p] + b"\x00" + data[p:])
            if (shift + coeffs[p]) % modulus == added:
                out.add(data[:p] + b"\x01" + data[p:])
        # a 0 inserted at p gains the ones right of it
        p = _first(packed, length, 1, ones - added, lo, length)
        if p >= 0:
            out.add(data[:p] + b"\x00" + data[p:])
        # a 1 inserted at p gains base + p plus the ones right of it
        p = _first(packed, length, 0, added - base - ones, lo, length)
        if p >= 0:
            out.add(data[:p] + b"\x01" + data[p:])
    else:
        removed = (weight - cp.b) % modulus
        # shift: weight lost by the symbols after index p moving one place left
        shift = ones - _count_before(packed, length, 1, lo + 1)
        for p in range(lo - 1, -1, -1):
            shift += (coeffs[p + 1] - coeffs[p]) * data[p + 1]
            if (shift + coeffs[p] * data[p]) % modulus == removed:
                out.add(data[:p] + data[p + 1 :])
        # a 0 removed at p loses the ones right of it
        p = _first(packed, length, 1, ones - removed, lo, length - 1)
        if p >= 0 and not data[p]:
            out.add(data[:p] + data[p + 1 :])
        # a 1 removed at p loses base + p plus the ones right of it, a value in [0, M]
        for lost in (removed, removed + modulus):
            p = _first(packed, length, 0, lost - base + 1 - ones, lo, length - 1)
            if p >= 0 and data[p]:
                out.add(data[:p] + data[p + 1 :])
    return out


def _correct(cp: CodeParams, data: bytes) -> bytes:
    length = len(data)
    n = cp.n
    if length == n:
        if _weight(cp, data) % cp.modulus == cp.b:
            return data
        raise UncorrectableError(
            "received word has full length but is not a codeword"
        )
    if length not in (n - 1, n + 1):
        raise DataError(
            f"received length {length} is not within one symbol of n = {n}"
        )
    found = candidates(cp, data)
    if not found:
        raise UncorrectableError("no candidate codeword explains the received word")
    if len(found) > 1:
        raise InvariantError(
            f"{len(found)} distinct candidate codewords survive; the "
            f"coefficient sequence cannot be strictly increasing"
        )
    return found.pop()


def correct(cp: CodeParams, received: BitSeq) -> BitSeq:
    """Recover the transmitted codeword from a word one indel away (or intact)."""
    return BitSeq._wrap(_correct(cp, received.tobytes()))


def decode_message(cp: CodeParams, received: BitSeq) -> BitSeq:
    """Correct the received word, strip the parity part, invert the front-end."""
    z = _correct(cp, received.tobytes())
    # z has length n, so the message part has length k
    return BitSeq._wrap(_wi_decode(_nrzi_decode(z[cp.m :]), cp.k, cp.r))
