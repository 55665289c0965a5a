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

Encoding cost: the search resumes rather than restarting. The first forbidden
word found starts at some idx, so none starts before idx, and no two overlap
(each holds exactly one 1, its last symbol). A replacement at idx keeps the
symbols before idx, so a forbidden word in the new working word that starts
before idx - r would lie wholly inside that kept prefix, where there was none.
The next search therefore starts at max(idx - r, 0). A new forbidden word can
start as far back as that, when the last zeros of a run before idx meet a 1
the deletion pulled left, or further right, inside the appended pointers. The
sentinel 1 stays the last byte of the working word: pointers are inserted
before it, and in the end case the r zeros and the sentinel become the marker
and the sentinel. Every symbol is searched a bounded number of times, apart
from the O(r) symbols around each replacement, so s replacements cost
O(k + s*r) C-level search work plus O(s) Python steps; each deletion also
closes its gap with one C-level memmove of the word's tail.
tests/reference.py keeps the restart-from-symbol-0 loop as the reference
the tests compare this encoder against.

Decodability bound: FrontParams rejects k >= 2^r + r - 6, which leaves out
the two lengths 2^r + r - 6 and 2^r + r - 5 below the feasibility bound. What
fails there depends on r. For r >= 5 the encoder itself is not injective at
both lengths: a pointer's high ones, then the sentinel, then a one-symbol
tail spell a (1^(r-1) 0) count block, so two messages share a codeword. At
r = 5, k = 31, 000000000001100000000000000000 and
001011100101001100001001000001 both encode to
0010111001010011000010010011110. For r <= 4 the encoder is injective at both
lengths (checked exhaustively at r = 3 and r = 4), and only the decoder's
parse fails: it reads the replacement count from the right, greedily
stripping (1^(r-1) 0) blocks and then zeros, and strips a spurious block for
some messages. No collision and no parse failure has been seen at an
accepted length; k <= 2^r + r - 7 round-trips exhaustively for every tested r.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .bitseq import _FROM_ASCII, _TO_ASCII, BitSeq
from .errors import DataError, InvariantError, ValidationError

_FORBIDDEN_ONE = b"\x01"


def feasibility_bound(r: int) -> int:
    """The feasibility bound 2^r + r - 5 on the front end's output length k."""
    return (1 << r) + r - 5


class _FrontFields(NamedTuple):
    k: int
    r: int


class FrontParams(_FrontFields):
    """Front-end shape: output length k and target maximum run-length r, validated."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "FrontParams":
        self = super().__new__(cls, *args, **kwargs)
        if self.r < 2:
            raise ValidationError(f"run limit must be at least 2 (got r={self.r})")
        if self.k < 2:
            raise ValidationError(f"output length must be at least 2 (got k={self.k})")
        cap = feasibility_bound(self.r)
        if self.k > cap:
            raise ValidationError(
                f"k={self.k} exceeds the feasibility bound 2^r + r - 5 = {cap} for r={self.r}"
            )
        if self.k > cap - 2:
            raise ValidationError(
                f"k={self.k} with r={self.r} is rejected: the replacement-count parse "
                f"is ambiguous for k > 2^r + r - 7 = {cap - 2} and the exhaustive "
                f"round-trip check fails"
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


def _wi_encode(data: bytes, k: int, r: int) -> bytes:
    pattern = b"\x00" * r + _FORBIDDEN_ONE
    pointer_format = f"0{r}b"
    # the working word with its sentinel 1 as the last byte
    w = bytearray(data)
    w.append(1)
    s = 0
    idx = w.find(pattern)
    while idx >= 0:
        if s >= k:
            raise InvariantError(
                f"replacement loop overran s={s} at (k={k}, r={r}); parameters must be rejected"
            )
        end = idx + r + 1
        if end < len(w):
            del w[idx:end]
            # the pointer le_encode(p + 3, r) for p = idx + 1; p + 3 < 2^r at every
            # accepted (k, r), and a wider pointer would fail the length check below
            w[-1:-1] = format(idx + 4, pointer_format)[::-1].encode().translate(_FROM_ASCII)
        else:
            # end case: the sentinel closes the forbidden word; marker 1 0^(r-2), then sentinel
            w[idx:] = b"\x01" + b"\x00" * (r - 2) + _FORBIDDEN_ONE
        s += 1
        # no forbidden word starts before idx - r (see the module docstring)
        idx = w.find(pattern, idx - r if idx > r else 0)
    out = bytes(w) + omega(s, r - 1).tobytes()
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
    k = fp.k
    if len(y) != k:
        raise DataError(f"word length {len(y)} != k = {k}")
    return BitSeq._wrap(_wi_decode(nrzi_decode(y).tobytes(), k, fp.r))
