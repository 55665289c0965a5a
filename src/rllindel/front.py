"""Constrained front-end: sequence-replacement encoding plus the NRZI transform.

The front-end turns a message of length k-1 into a word of length k whose
zero-runs are all shorter than r (ones unconstrained), by repeatedly excising
the forbidden word 0^r 1 and appending a little-endian position pointer; the
number of replacements is recorded in a self-delimiting tail. NRZI then turns
the zero-run constraint into a plain run-length constraint: a word with zero
runs < r maps to a word with all runs <= r.

Encoding bookkeeping: each replacement shrinks the working word by exactly one
symbol, so after s replacements the working word has k-1-s symbols and the
output x = v 1 tail(s) has length k exactly. Two replacement cases exist. In
the regular case the forbidden word sits wholly inside the working word; its
r+1 symbols are removed and the r-symbol pointer le_encode(p+3, r) is appended
(the +3 keeps pointer values >= 4). In the end case the working word ends in
0^r and the forbidden word's trailing 1 is the appended sentinel; the r zeros
are removed and the (r-1)-symbol marker 1 0^(r-2) is appended. Markers decode
to values 2 or 3, pointers to values >= 4, so the decoder can always tell the
two apart.

Encoding cost: one left-to-right scan, which never edits the message in
place. It keeps the working word as three parts: head, a finished prefix that
is empty or ends in a 1 and holds no forbidden word; c, a count of pending
zeros; and rest, the unscanned symbols (the rest of the message, then the
appended pointers and markers), with the sentinel implicitly after it. As
head ends in a 1, no forbidden word starts in it, so the first forbidden word
ends at the first 1 of rest whose zero run, c plus the zeros before it in
rest, has length at least r. A replacement drops the run's last r zeros and
that 1, leaves c = run - r, and appends the pointer for idx = len(head) + c to
rest. When rest holds no 1 and the run reaches r, the sentinel ends the
forbidden word: the end case appends the marker to rest, and a later
replacement can take the marker's 1. A 1 that ends a shorter run is final:
head takes the pending zeros and the scanned symbols, and one C-level find of
0^r 1 in rest jumps to the next forbidden word. Every symbol of rest is
searched and copied a bounded number of times, so s replacements cost
O(k + s*r) C-level work and O(s) Python steps of a few integer operations
each, with no memmove. Each pointer is built on its first use and kept in a
bounded cache, so pointer work and memory follow s, not k. A message with no
forbidden word and fewer than r trailing zeros returns at once with the
sentinel appended.
tests/reference.py keeps the restart-from-symbol-0 loop as the reference
the tests compare this encoder against.

Decodability bound: FrontParams rejects k > 2^r + r - 7 with one check, which
leaves out the two lengths 2^r + r - 6 and 2^r + r - 5 below the feasibility
bound; its text gives the reason for the given r. What fails there depends on
r. For r >= 5 the encoder itself is not injective at both lengths: a pointer's
high ones, then the sentinel, then a one-symbol tail spell a (1^(r-1) 0) count
block, so two messages share a codeword. At r = 5, k = 31,
000000000001100000000000000000 and 001011100101001100001001000001 both encode
to 0010111001010011000010010011110. For r <= 4 the encoder is injective at
both lengths (checked exhaustively at r = 3 and r = 4), and only the decoder's
parse fails: it reads the replacement count from the right, greedily stripping
(1^(r-1) 0) blocks and then zeros, and strips a spurious block for some
messages. No collision and no parse failure has been seen at an accepted
length; k <= 2^r + r - 7 round-trips exhaustively for every tested r.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .bitseq import _FROM_ASCII, _TO_ASCII, BitSeq
from .errors import DataError, InvariantError, ValidationError

_FORBIDDEN_ONE = b"\x01"


def feasibility_bound(r: int) -> int:
    """The feasibility bound 2^r + r - 5 on the front end's output length k."""
    return (1 << r) + r - 5


_FrontFields = namedtuple("_FrontFields", "k r")


class FrontParams(_FrontFields):
    """Front-end shape: output length k and target maximum run-length r, validated.

    r must be at least 3, as the count tail omega needs t = r - 1 >= 2.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "FrontParams":
        self = super().__new__(cls, *args, **kwargs)
        if self.r < 3:
            raise ValidationError(f"run limit must be at least 3 (got r={self.r})")
        if self.k < 2:
            raise ValidationError(f"output length must be at least 2 (got k={self.k})")
        cap = feasibility_bound(self.r)
        if self.k > cap - 2:
            why = (
                "the encoder is not injective" if self.r >= 5
                else "the replacement-count parse is ambiguous"
            )
            raise ValidationError(
                f"k={self.k} with r={self.r} is rejected: the front end accepts "
                f"k <= 2^r + r - 7 = {cap - 2}, two below the feasibility bound "
                f"2^r + r - 5 = {cap}; at 2^r + r - 6 and 2^r + r - 5 {why}"
            )
        return self


@lru_cache(maxsize=256, typed=True)
def cached_front_params(k: int, r: int) -> FrontParams:
    """FrontParams(k, r), validated once per (k, r); a rejection is raised again on every call."""
    return FrontParams(k, r)


def omega(s: int, t: int) -> BitSeq:
    """Self-delimiting tail encoding the replacement count s.

    Returns 0^(s - (t+1)v) (1^t 0)^v with v = floor(s / (t+1)); the output
    length is exactly s, and its zero-runs never exceed t.
    """
    if t < 2:
        raise ValidationError(f"tail parameter must be at least 2 (got t={t})")
    if s < 0:
        raise ValidationError(f"replacement count must be non-negative (got s={s})")
    v, rem = divmod(s, t + 1)
    return BitSeq._wrap(b"\x00" * rem + (b"\x01" * t + b"\x00") * v)


@lru_cache(maxsize=4096)
def _pointer(v: int, r: int) -> bytes:
    """le_encode(v, r), the pointer for a forbidden word that starts at v - 4.

    Built on first use and kept for the 4096 most recent (v, r), which covers
    every pointer of a k = 4000 word. v = p + 3 < 2^r at every accepted
    (k, r); a wider pointer makes the output too long, which _wi_encode's
    length check reports.
    """
    return format(v, f"0{r}b")[::-1].encode().translate(_FROM_ASCII)


def _wi_encode(data: bytes, k: int, r: int) -> bytes:
    zeros = b"\x00" * r
    pattern = zeros + _FORBIDDEN_ONE
    q = data.find(pattern)
    if q < 0 and not data.endswith(zeros):
        # nothing to replace: the message, then the sentinel
        out = data + _FORBIDDEN_ONE
    else:
        # the working word is head + 0^c + rest[pos:], then the sentinel; the
        # symbols before the zero run of the first forbidden word are final
        rest = bytearray(data)
        pos = rest.rfind(1, 0, q if q >= 0 else len(rest)) + 1
        head = rest[:pos]
        c = s = 0
        while True:
            j = rest.find(1, pos)
            run = c + (j if j >= 0 else len(rest)) - pos
            if run >= r:
                if s >= k:
                    raise InvariantError(
                        f"replacement loop overran s={s} at (k={k}, r={r}); "
                        f"parameters must be rejected"
                    )
                s += 1
                # drop the run's last r zeros and the symbol that ends them;
                # the forbidden word started at len(head) + c
                c = run - r
                if j >= 0:
                    pos = j + 1
                    rest += _pointer(len(head) + c + 4, r)
                else:
                    # end case: the sentinel ends the forbidden word; the
                    # marker 1 0^(r-2) follows
                    pos = len(rest)
                    rest += _FORBIDDEN_ONE + zeros[2:]
                continue
            if j < 0:
                break
            # the 1 at j ends a short run; stop if no forbidden word is left in
            # rest and none ends on the sentinel
            q = rest.find(pattern, j + 1)
            if q < 0 and not rest.endswith(zeros):
                break
            # the symbols before the zero run of the next forbidden word are final
            end = rest.rfind(1, j, q if q >= 0 else len(rest)) + 1
            head += bytes(c)
            head += rest[pos:end]
            c = 0
            pos = end
        out = b"".join((head, bytes(c), rest[pos:], _FORBIDDEN_ONE, omega(s, r - 1).tobytes()))
    if len(out) != k:
        raise InvariantError(f"encoded length {len(out)} != k={k} at (k={k}, r={r})")
    return out


def _wi_decode(data: bytes, k: int, r: int) -> bytes:
    if b"\x00" * r in data:
        raise DataError(f"word violates the zero-run constraint for r={r}")
    block = b"\x01" * (r - 1) + b"\x00"
    i = len(data)
    nblocks = 0
    while i >= r and data[i - r : i] == block:
        i -= r
        nblocks += 1
    a = 0
    while i >= 1 and data[i - 1] == 0:
        i -= 1
        a += 1
    if i == 0:
        raise DataError("no sentinel symbol found while parsing the replacement count")
    s = a + r * nblocks
    v = bytearray(data[: i - 1])
    pattern = b"\x00" * r + _FORBIDDEN_ONE
    marker = b"\x01" + b"\x00" * (r - 2)
    for step in range(s, 0, -1):
        if len(v) >= r:
            # the pointer is le_encode(p + 3, r): its text read backwards is binary
            p = int(v[-r:][::-1].translate(_TO_ASCII), 2) - 3
            if 1 <= p <= len(v) - r + 1:
                del v[-r:]
                v[p - 1 : p - 1] = pattern
                continue
        if v.endswith(marker):
            del v[1 - r :]
            v.extend(b"\x00" * r)
            continue
        raise DataError(
            f"undo step {step}: trailing symbols match neither a valid pointer nor the end marker"
        )
    return bytes(v)


def wi_encode(u: BitSeq, fp: FrontParams) -> BitSeq:
    """Encode a message of length k-1 into a zero-run-constrained word of length k."""
    if len(u) != fp.k - 1:
        raise DataError(f"message length {len(u)} != k - 1 = {fp.k - 1}")
    return BitSeq._wrap(_wi_encode(u.tobytes(), fp.k, fp.r))


def wi_decode(x: BitSeq, fp: FrontParams) -> BitSeq:
    """Invert wi_encode; raises DataError on words the encoder cannot emit."""
    if len(x) != fp.k:
        raise DataError(f"word length {len(x)} != k = {fp.k}")
    return BitSeq._wrap(_wi_decode(x.tobytes(), fp.k, fp.r))


def nrzi_encode(x: BitSeq) -> BitSeq:
    """Transition coding: y_1 = x_1, y_i = y_(i-1) xor x_i.

    A prefix XOR over the word packed one symbol per byte, first symbol in the
    top byte: after the right shifts by 1, 2, 4, ... bytes, byte i holds the
    XOR of bytes 0..i, and the int never grows past the word's 8n bits.
    """
    size = len(x)
    v = int.from_bytes(x.tobytes(), "big")
    shift = 8
    while shift < 8 * size:
        v ^= v >> shift
        shift <<= 1
    return BitSeq._wrap(v.to_bytes(size, "big"))


def nrzi_decode(y: BitSeq) -> BitSeq:
    """Inverse transition coding: x_1 = y_1, x_i = y_(i-1) xor y_i."""
    v = int.from_bytes(y.tobytes(), "big")
    return BitSeq._wrap((v ^ (v >> 8)).to_bytes(len(y), "big"))


def front_encode(u: BitSeq, fp: FrontParams) -> BitSeq:
    """Message to run-length-limited word: sequence replacement, then NRZI."""
    return nrzi_encode(wi_encode(u, fp))


def front_decode(y: BitSeq, fp: FrontParams) -> BitSeq:
    """Inverse of front_encode."""
    return wi_decode(nrzi_decode(y), fp)
