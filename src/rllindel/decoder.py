"""Single insertion/deletion correction and full pipeline inversion.

Because the coefficient sequence is strictly increasing, the single-deletion
balls of distinct codewords never intersect, so correcting one indel means
finding the codewords one edit away from the received word and demanding that
they all collapse to one word. Candidates that are the same word through
different edits (deleting any symbol of a run, say) collapse silently; the
code corrects codewords, not edit positions. Two surviving candidates that are
distinct words would contradict the monotonicity guarantee and raise
InvariantError.

The search is closed-form rather than a scan of every edit, and one search
serves both edit directions, as the reference scan does. Pack the received
word one bit per symbol, take its weight S from code._weight (which chooses
how to sum and, on long words, reuses that int) and work modulo M = a_(n+1).
A word that gained a symbol (length n + 1) needs a deletion that removes
E = (S - b) mod M; a word that lost one (length n - 1) needs an insertion
that adds E = (b - S) mod M. An edit at (1-based) position i weighs the
edited symbol's own coefficient a_i, plus, for each 1 after the edit, the
step a_(j+1) - a_j it crosses when it shifts one place. The directions
differ only in where the shifted suffix starts (after the removed symbol, or
at the symbol the insertion lands before), so at each position both symbols
meet the same two conditions, and every hit is one (index, symbol) edit:

* Head, i < r_hat + 2. These r_hat + 1 positions are the only ones whose
  shifted suffix crosses a step other than 1, so each is tried directly,
  accumulating the steps from right to left.
* Affine region, i >= r_hat + 2. Every step there is 1, so the change is the
  symbol's coefficient plus the number of ones it shifts, exactly as in
  Varshamov-Tenengolts decoding (Levenshtein 1966). A 0 must sit where the
  ones to its right number E; a 1 must sit where the zeros to its left
  number a constant fixed by E and the total count of ones. Each condition
  picks one run of the received word. In a typical word a prefix's count of
  either symbol grows almost linearly, so _first finds the run by
  interpolation search (Perl, Itai and Avni 1978) on popcounts of the word
  packed one bit per symbol. Its probes take turns: one where a straight
  line through the bracket's two end counts reaches the target, then one at
  the midpoint. Each probe is a shift and a popcount. candidates passes the
  end counts, which it already holds, so a target outside them costs no
  probe. Every second probe halves the bracket, so a bracket of width w
  costs at most 2*ceil(log2 w) probes. On a word one indel from a random
  codeword at n = 4015, about three searches in five return on their end
  counts, and one that probes makes about 7.5 probes: about 3 a search.

The words are built once, from the edit list: a gained word drops the symbol
at the edit's index where it is the edit's symbol, and a lost word takes the
symbol back in before that index.

The congruence pins the change only modulo M, so each condition is an
equality once the change's range is known. A removed 1 can weigh anything in
[0, M], inclusive: removing the last symbol of a word whose final run of ones
reaches the end removes exactly a_(n+1) = M. So a gained word also tries
E + M for a removed 1. An inserted or removed 0 and an inserted 1 always
change the weight by less than M, so a lost word never does.

The head must fit inside the word, so the search serves code lengths
n >= r_hat + 2, every encoder code among them (n >= 14); below that it
raises ValidationError, which only a raw_params code can reach.

A correction costs one O(n) C-level pack of the word, O(log n) big-int ANDs,
shifts and popcounts (a few on a typical word), and O(r_hat + log n) Python
steps. The plain O(n) scan over every edit lives in tests/reference.py, which
the tests compare against this search.

Bytes inside, one packed word on long words: _search packs the received
word once, one bit per symbol, and returns that int with its (index, symbol)
edits. candidates builds bytes words from the edits; _spliced splices each
edit into the int instead, dropping one bit for a removed symbol and adding
one for an inserted symbol. _correct takes raw bytes, one byte per symbol,
and returns the codeword as bytes, or, where packed is set, as that kind of
int; both forms share its length, uncorrectable and invariant checks and
their texts. correct wraps the bytes in a BitSeq. Below _PACKED_FROM symbols
decode_message chains the bytes codeword with the front end's bytes
functions. From there on it takes the packed codeword's k low bits, the
message part, and front._front_decode_packed checks the zero runs and
inverts NRZI on that int and unpacks it once. Either way decode_message
wraps once, at the end.
"""
from __future__ import annotations

from .bitseq import _TO_ASCII, BitSeq
from .code import CodeParams, _coefficients, _weight
from .errors import DataError, InvariantError, UncorrectableError, ValidationError
from .front import _front_decode_packed, _nrzi_decode, _wi_decode

# the inserted symbol as bytes, by its value
_SYMBOLS = (b"\x00", b"\x01")
# The code length from which decode_message keeps the corrected word packed
# one bit per symbol through NRZI and the zero-run check, in place of
# building it as bytes. Measured on decode_message over 300 one-indel words
# per length, each word's best of 15 alternating passes, on one pinned CPU
# (2-vCPU host, Python 3.11), in two runs: the packed chain read 1.03-1.07x
# the bytes chain at n = 69 and 261, 0.98-1.01x from n = 663 to 813, where
# the runs disagree, 0.95-0.99x from n = 863 to 1013 and 0.86-0.91x at
# n = 4015.
_PACKED_FROM = 900


def _first(
    packed: int, length: int, symbol: int, target: int, lo: int, hi: int, at_lo: int, at_hi: int
) -> int:
    """Smallest j in [lo, hi] with data[:j].count(symbol) == target, or -1.

    at_lo and at_hi are data[:lo].count(symbol) and data[:hi].count(symbol).
    Bit length-1-i of packed holds data[i], so data[:j] holds
    (packed >> (length - j)).bit_count() ones.
    """
    if target == at_lo:
        return lo
    if not at_lo < target <= at_hi:
        return -1
    # a count steps by at most 1, so while at_lo < target <= at_hi the answer
    # is in (lo, hi] and has a count of exactly target; probe where a straight
    # line through the two end counts reaches target, then at the midpoint, in
    # turn, until hi is the index after lo
    interpolate = True
    while hi - lo > 1:
        if interpolate:
            mid = min(max(lo + (target - at_lo) * (hi - lo) // (at_hi - at_lo), lo + 1), hi - 1)
        else:
            mid = (lo + hi) >> 1
        interpolate = not interpolate
        ones = (packed >> (length - mid)).bit_count()
        count = ones if symbol else mid - ones
        if count < target:
            lo, at_lo = mid, count
        else:
            hi, at_hi = mid, count
    return hi


def _search(cp: CodeParams, data: bytes) -> tuple[int, list[tuple[int, int]]]:
    """data (length n-1 or n+1) packed, and the (index, symbol) edits that make it a codeword.

    The packing holds one bit per symbol, data[0] most significant. An edit
    removes the symbol at index, which is the edit's symbol, from a word that
    gained one, or inserts symbol before index into a word that lost one.
    Edits in one run give the same word.
    """
    # 0-based index lo is position r_hat + 2, the first of the affine region
    lo = cp.r_hat + 1
    if cp.n <= lo:
        raise ValidationError(f"correction needs n >= r_hat + 2 = {lo + 1} (got n={cp.n})")
    # the head coefficients a_1 .. a_(r_hat+2); the steps after them are all 1
    coeffs = _coefficients(lo, cp.r_hat, cp.d)
    modulus = cp.modulus
    length = len(data)
    gained = length == cp.n + 1
    # one bit per symbol: a shift and a popcount then count the ones of any
    # prefix without a data-dependent branch per symbol; an int.from_bytes
    # pack gathering 8 symbols a byte was slower here at n = 69 and n = 4015
    packed = int(data.translate(_TO_ASCII), 2)
    weight = _weight(cp, data, packed)
    ones = packed.bit_count()
    # the weight the edit removes (gained) or adds (lost), modulo M
    edit = (weight - cp.b if gained else cp.b - weight) % modulus
    # (index, symbol): the symbol removed at index p, or inserted before it;
    # an edit is kept only where it fits: a gained word can only lose a
    # symbol it holds
    edits = []
    # the ones before the affine region, data[:lo]
    ones_lo = (packed >> (length - lo)).bit_count()
    # shift: weight the symbols after the edit lose (gained) or gain (lost) moving one place
    shift = ones - ones_lo - (data[lo] if gained else 0)
    for p in range(lo - 1, -1, -1):
        shift += (coeffs[p + 1] - coeffs[p]) * data[p + gained]
        if shift % modulus == edit and not (gained and data[p]):
            edits.append((p, 0))
        if (shift + coeffs[p]) % modulus == edit and (not gained or data[p]):
            edits.append((p, 1))
    # the affine region, p = -1 where no run fits: a 0 at p moves the ones after
    # it; a 1 also weighs coeffs[lo] + p - lo, so the zeros before it fix p;
    # every search ends at index end, before the last symbol of a gained word
    end = length - gained
    ones_end = ones - (data[-1] if gained else 0)
    p = _first(packed, length, 1, ones - edit, lo, end, ones_lo, ones_end)
    if p >= 0 and not (gained and data[p]):
        edits.append((p, 0))
    zeros = edit - coeffs[lo] + lo + gained - ones
    p = _first(packed, length, 0, zeros, lo, end, lo - ones_lo, end - ones_end)
    if p >= 0 and (not gained or data[p]):
        edits.append((p, 1))
    if gained:
        # a removed 1 weighs up to M inclusive, which the congruence sees as 0
        p = _first(packed, length, 0, zeros + modulus, lo, end, lo - ones_lo, end - ones_end)
        if p >= 0 and data[p]:
            edits.append((p, 1))
    return packed, edits


def candidates(cp: CodeParams, data: bytes) -> set[bytes]:
    """All codewords one insertion or deletion away from data (length n-1 or n+1)."""
    _, edits = _search(cp, data)
    if len(data) == cp.n + 1:
        return {data[:p] + data[p + 1 :] for p, _ in edits}
    return {data[:p] + _SYMBOLS[symbol] + data[p:] for p, symbol in edits}


def _spliced(cp: CodeParams, data: bytes) -> set[int]:
    """candidates(cp, data), each word packed one bit per symbol, first symbol most significant.

    Each edit is spliced into data's packing: the bits after it keep their
    place, and those before it move one place down for a removed symbol or
    one place up, with the inserted symbol below them, for an inserted one.
    """
    packed, edits = _search(cp, data)
    length = len(data)
    if length == cp.n + 1:
        return {
            packed >> (length - p) << (length - p - 1) | packed & ((1 << (length - p - 1)) - 1)
            for p, _ in edits
        }
    return {
        (packed >> (length - p) << 1 | symbol) << (length - p) | packed & ((1 << (length - p)) - 1)
        for p, symbol in edits
    }


def _correct(cp: CodeParams, data: bytes, packed: bool = False) -> bytes | int:
    """The codeword one insertion or deletion away from data, or data if it is one.

    It is returned as bytes, or, where packed is set, as an int one bit per
    symbol, first symbol most significant.
    """
    length = len(data)
    n = cp.n
    if length == n:
        word = int(data.translate(_TO_ASCII), 2) if packed else None
        if _weight(cp, data, word) % cp.modulus == cp.b:
            return data if word is None else word
        raise UncorrectableError(
            "received word has full length but is not a codeword"
        )
    if length not in (n - 1, n + 1):
        raise DataError(
            f"received length {length} is not within one symbol of n = {n}"
        )
    found = _spliced(cp, data) if packed else candidates(cp, data)
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
    if cp.n < _PACKED_FROM:
        z = _correct(cp, received.tobytes())
        # z has length n, so the message part has length k
        return BitSeq._wrap(_wi_decode(_nrzi_decode(z[cp.m :]), cp.k, cp.r))
    # the message part is the codeword's last k symbols, its k low bits
    z = _correct(cp, received.tobytes(), packed=True)
    return BitSeq._wrap(_front_decode_packed(z & ((1 << cp.k) - 1), cp.k, cp.r))
