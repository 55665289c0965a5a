"""Constrained front-end: sequence-replacement encoding plus the NRZI transform.

The front-end turns a message of length k-1 into a word of length k whose
zero-runs are all shorter than r (ones unconstrained), by repeatedly excising
the forbidden word 0^r 1 and appending a little-endian position pointer; the
number of replacements is recorded in a self-delimiting tail. NRZI then turns
the zero-run constraint into a plain run-length constraint: a word with zero
runs < r maps to a word with all runs <= r.

Encoding bookkeeping: each replacement shrinks the working word by exactly one
symbol, so after s replacements the working word has k-1-s symbols and the
output x = v 1 tail(s) has length k exactly. A replacement removes the first
forbidden word's r+1 symbols and appends the r-symbol pointer le_encode(p+3, r),
with p counted from 1 (the +3 keeps pointer values >= 4). The one other kind is
the end case: the message holds no 0^r 1 but ends in 0^r, so the appended
sentinel ends the forbidden word; the r zeros are removed and the
(r-1)-symbol marker 1 0^(r-2) is appended. Markers decode to values 2 or 3,
pointers to values >= 4, so the decoder can always tell the two apart.

The end case can only be the first replacement. After any replacement the
working word ends in the last pointer or marker appended, and each holds a 1
followed by at most r-2 zeros (a pointer's value is at least 4, so one of its
top r-2 symbols is a 1). The working word can end in r zeros again only once
a replacement removes that 1, and that replacement appends another pointer.
So the sentinel can end a forbidden word only before the first replacement,
and an end marker, where there is one, is the last step of the undo.

Encoding cost: the end case, if the message meets it, is made first; then one
left-to-right scan with one replacement kind, which never edits the message
in place. It keeps the working word as three parts: head, a finished prefix
that is empty or ends in a 1 and holds no forbidden word; c, a count of
pending zeros; and rest, the unscanned symbols (the rest of the message, then
the appended marker and pointers), with the sentinel implicitly after it. As
head ends in a 1, no forbidden word starts in it, so the first forbidden word
ends at the first 1 of rest whose zero run, c plus the zeros before it in
rest, has length at least r. A replacement drops the run's last r zeros and
that 1, leaves c = run - r, and appends the pointer for idx = len(head) + c to
rest. A 1 that ends a shorter run is final: head takes the pending zeros and
the scanned symbols, and one C-level find of 0^r 1 in rest jumps to the next
forbidden word; the scan ends when there is none. rest always holds a 1 past
the scan point (the forbidden word's, or the last pointer's or marker's), so
the scan never reaches the sentinel. Every symbol of rest is searched and
copied a bounded number of times, so s replacements cost O(k + s*r) C-level
work and O(s) Python steps of a few integer operations each, with no memmove.
A replacement's pointer is one lookup in _POINTERS, a dict keyed by 2^r + v:
a miss builds the pointer, and the dict is emptied once it holds _INDEX_SIZE
entries, so pointer work and memory follow s, not k, at any r. A message
with no forbidden word and fewer than r trailing zeros returns at once with
the sentinel appended.
tests/reference.py keeps the restart-from-symbol-0 loop as the reference
the tests compare this encoder against.

Decoding cost: the undo runs the replacements backwards, each reading the
pointer off the word's end and putting 0^r 1 back where it names. The
working word is kept as three parts: left, a bytearray that takes the
insertions; right, a bytearray holding the symbols between left and the tail
in reverse order; and the tail, an unread stretch of an immutable bytes, at
first the received word. Each pointer is one slice off the tail's end, and
its insertion index comes from a bounded memo, so an undo does no reversal,
translate or int() once the memo is warm. An insertion point at most _NEAR
symbols before left's end is filled in place; one further left moves the gap
there, left's surplus going to right, and one right of left takes the symbols
before it from right, then from the tail. When the tail runs out, the rest of
the word (right and the tail, and a few symbols of left if they hold fewer
than r) becomes the new tail. An end marker can only be the last undo, so
there the word is returned with r zeros in the marker's place. At any earlier
step a marker ends the undo at once with the next step's error, as those r
zeros would read as pointer value 0, which is no pointer and no marker. The
encoder always replaces the first forbidden word, so in undo order an
insertion point lies at most r above the one before it: every symbol reaches
right about once, each rebuilt tail is paid for by the symbols right gave it,
and s undos of an emitted word move O(k + s*_NEAR) symbols in O(s) Python
steps. tests/reference.py keeps the one-bytearray undo, which moves every
symbol behind each insertion point and carries on past a marker, as the
reference the tests compare this decoder against, bytes and error texts
alike.

Decodability bound: FrontParams accepts k <= 2^r + r - 5, the feasibility
bound, for r <= 4, and k <= 2^r + r - 7 for r >= 5. For r >= 5 the encoder
itself is not injective at 2^r + r - 6 and 2^r + r - 5: a pointer's high
ones, then the sentinel, then a one-symbol tail spell a (1^(r-1) 0) count
block, so two messages share a codeword. At r = 5, k = 31,
000000000001100000000000000000 and 001011100101001100001001000001 both encode
to 0010111001010011000010010011110. For r <= 4 the encoder is injective at
both lengths (checked exhaustively), but the greedy count parse, which
strips (1^(r-1) 0) blocks from the right and then zeros, strips a spurious
block for some messages. So at those two lengths only, _wi_decode tries the
greedy block count, then each smaller one, and keeps the first message that
re-encodes to the word; an emitted word needs at most 4 tries (checked
exhaustively) and never fails. Every other length takes the greedy parse
alone, and for k <= 2^r + r - 7 it is exact at every r:
1. The greedy parse misreads only if the r symbols before the count's
   (1^(r-1) 0) blocks form one more block. A block holds one 0, at its end,
   so those r symbols end at the count's leading zeros, and there is exactly
   one such zero: s mod r = 1. They are then the working word's last r - 2
   symbols, the sentinel 1 and that zero, so the working word must end in
   r - 2 ones.
2. With s >= 1 the working word ends in the last pointer or marker appended,
   intact. A marker ends in a zero. A pointer is le_encode(p + 4, r) with p
   counted from 0, and its forbidden word fits in a working word of at most
   k - 1 symbols, so p <= k - r - 2. The pointer's top r - 2 symbols are all
   ones only when p + 4 >= 2^r - 4, that is, when k >= 2^r + r - 6.
3. So below that length the parse reads s exactly, and the undo, which tells
   pointers from markers by value, inverts the encoder. At r >= 5 the two
   rejected lengths are exactly those where a pointer can reach 2^r - 4: a
   message x 0^r 1, with x ending in 1 and holding no run of r zeros, makes
   one replacement with the largest pointer last, and at k = 2^r + r - 6
   the parse misreads every such message (the tests see none of them
   round-trip).

Large r: no limit of k or more binds a message of k - 1 symbols, and none of
k + 1 or more binds a word of k symbols. So _wi_encode cuts its zero pattern
at k symbols and _wi_decode cuts r at k + 1; no pattern grows with r past the
word, and the front end serves every r >= 3 that FrontParams accepts.

Bytes inside: the private functions (_wi_encode, _wi_decode, _nrzi_encode,
_nrzi_decode, _omega) take and return raw bytes, one byte per symbol. Only
the public functions check lengths and build a BitSeq, one per call, so
code.encode_message and decoder.decode_message chain the private functions
and wrap their result once. _wi_decode returns at once when the count parse
gives no replacements, as for about 63% of uniform words at k = 60 and 250.
_nrzi_encode's prefix XOR runs on the word packed one symbol per byte.
_nrzi_packed packs it one bit per symbol instead and returns that int with
the bytes: code.encode_message calls it from code._SLICED_FROM symbols on,
where the embedder's weighted sum takes the same int, so the word is packed
once for both. Alone, the packed path is no faster: 1.14 against 0.81 us at k = 60
and 16.7 against 16.6 us at k = 4000 (timeit, best of 9 over 300 words, one
pinned CPU of a 2-vCPU host, Python 3.11), so the byte path serves the
shorter words and the public nrzi_encode, and the gain is the dropped pack.

_front_decode_packed is the decode side's twin: decoder.decode_message
calls it from decoder._PACKED_FROM symbols on with the message part packed
one bit per symbol, as its corrector holds it. _wi_decode is its zero-run
scan followed by _parse_and_undo, the count parse and undo. The packed entry
checks the zero runs on the int instead: x = NRZI^-1(y) holds 0^r exactly
where the word 0y, of k + 1 symbols, holds r + 1 equal symbols in a row,
which bitseq._run_over finds in about ceil(log2 r) shifts and ANDs. Then it
inverts NRZI as y ^ (y >> 1), unpacks once and calls _parse_and_undo, so
both entries raise the same errors. At k = 4000 the packed check takes about
3 us where the byte NRZI decode and scan take about 21 us, but the unpack
costs about 12 us (timeit, best of 9 over 100 words, one pinned CPU), so
the packed entry pays only on an int the caller already holds, and only on
long words.
"""
from __future__ import annotations

from collections import namedtuple

from .bitseq import _FROM_ASCII, _TO_ASCII, BitSeq, _run_over
from .errors import DataError, InvariantError, ValidationError

_FORBIDDEN_ONE = b"\x01"


def feasibility_bound(r: int) -> int:
    """The feasibility bound 2^r + r - 5 on the front end's output length k.

    The front end reaches it for r <= 4 and stops two below it, at
    2^r + r - 7, for r >= 5, where the encoder is not injective at the top
    two lengths. r must be at least 3, as the count tail omega needs
    t = r - 1 >= 2.
    """
    if r < 3:
        raise ValidationError(f"run limit must be at least 3 (got r={r})")
    return (1 << r) + r - 5


_FrontFields = namedtuple("_FrontFields", "k r")


class FrontParams(_FrontFields):
    """Front-end shape: output length k and target maximum run-length r, validated.

    r must be at least 3 and k at least 2. k may reach the feasibility bound
    2^r + r - 5 for r <= 4, and 2^r + r - 7 for r >= 5 (see the module's
    decodability bound). r may exceed k: such a limit cannot bind.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "FrontParams":
        self = super().__new__(cls, *args, **kwargs)
        if self.r < 3:
            raise ValidationError(f"run limit must be at least 3 (got r={self.r})")
        if self.k < 2:
            raise ValidationError(f"output length must be at least 2 (got k={self.k})")
        # from r > k.bit_length() on, k < 2^(r - 1) lies below both bounds,
        # so 2^r is built only where it can bind
        if self.r > self.k.bit_length():
            return self
        bound = feasibility_bound(self.r)
        if self.k > bound:
            raise ValidationError(
                f"k={self.k} with r={self.r} is rejected: it exceeds the feasibility "
                f"bound 2^r + r - 5 = {bound}"
            )
        if self.r >= 5 and self.k > bound - 2:
            raise ValidationError(
                f"k={self.k} with r={self.r} is rejected: for r >= 5 the front end "
                f"accepts k <= 2^r + r - 7 = {bound - 2}, as at 2^r + r - 6 and "
                f"2^r + r - 5 the encoder is not injective"
            )
        return self


def omega(s: int, t: int) -> BitSeq:
    """Self-delimiting tail encoding the replacement count s.

    Returns 0^(s - (t+1)v) (1^t 0)^v with v = floor(s / (t+1)); the output
    length is exactly s, and its zero-runs never exceed t.
    """
    if t < 2:
        raise ValidationError(f"tail parameter must be at least 2 (got t={t})")
    if s < 0:
        raise ValidationError(f"replacement count must be non-negative (got s={s})")
    return BitSeq._wrap(_omega(s, t))


def _omega(s: int, t: int) -> bytes:
    v, rem = divmod(s, t + 1)
    # the block 1^t 0 only where it repeats: for s <= t, t may be too large to build
    block = b"\x01" * t + b"\x00" if v else b""
    return b"\x00" * rem + block * v


# Most symbols an undo moves inside left; an insertion point further left
# moves the gap there instead.
_NEAR = 256
# Entries a pointer table keeps before it is emptied: every pointer of a
# k = 4000 word fits, and at any r, where 2^r pointers exist, it stays small.
_INDEX_SIZE = 4096


class _PointerTable(dict):
    """A dict that builds a missing value as build(key) and keeps it.

    It is emptied when it holds _INDEX_SIZE entries, so its memory follows the
    pointers in use, not the 2^r that exist.
    """

    __slots__ = ("_build",)

    def __init__(self, build) -> None:
        self._build = build

    def __missing__(self, key):
        if len(self) >= _INDEX_SIZE:
            self.clear()
        value = self[key] = self._build(key)
        return value


# Key 2^r + v to le_encode(v, r), the pointer for a forbidden word that starts
# at v - 4: the key's binary digits, reversed, without its top 1. The key's bit
# length carries r, so a pointer never comes back at another width when callers
# switch r. v < 2^r at every accepted (k, r); a wider v gives a pointer of more
# than r symbols, so the output is too long, which _wi_encode's length check
# reports.
_POINTERS = _PointerTable(lambda key: format(key, "b")[:0:-1].encode().translate(_FROM_ASCII))
# Pointer symbols, as received, to the insertion index le_decode - 4 they name.
_POINTER_INDEX = _PointerTable(lambda ptr: int(ptr[::-1].translate(_TO_ASCII), 2) - 4)


def _wi_encode(data: bytes, k: int, r: int) -> bytes:
    # k - 1 symbols hold no run of k zeros, so no larger limit binds
    zeros = b"\x00" * (r if r < k else k)
    pattern = zeros + _FORBIDDEN_ONE
    q = data.find(pattern)
    s = 0
    if q < 0 and data.endswith(zeros):
        # the end case, which only the first replacement can be: the sentinel
        # ends the forbidden word, and the last r zeros become the marker
        # 1 0^(r-2)
        data = data[:-r] + _FORBIDDEN_ONE + zeros[2:]
        q = data.find(pattern)
        s = 1
    if q < 0:
        # nothing (left) to replace: the count tail of s <= 1 is s zeros
        out = data + _FORBIDDEN_ONE + bytes(s)
    else:
        # the working word is head + 0^c + rest[pos:], then the sentinel; the
        # symbols before the zero run of the first forbidden word are final
        rest = bytearray(data)
        pos = rest.rfind(1, 0, q) + 1
        head = rest[:pos]
        c = 0
        # the key of the pointer for a forbidden word at len(head) + c is
        # base + c
        base = (1 << r) + pos + 4
        while True:
            # a 1 lies at or after pos: the forbidden word's, or one in the
            # last pointer or marker appended
            j = rest.find(1, pos)
            run = c + j - pos
            if run >= r:
                if s >= k:
                    raise InvariantError(
                        f"replacement loop overran s={s} at (k={k}, r={r}); "
                        f"parameters must be rejected"
                    )
                s += 1
                # drop the run's last r zeros and the 1 that ends them; the
                # forbidden word started at len(head) + c
                c = run - r
                pos = j + 1
                rest += _POINTERS[base + c]
                continue
            # the 1 at j ends a short run; stop if no forbidden word is left
            q = rest.find(pattern, j + 1)
            if q < 0:
                break
            # the symbols before the zero run of the next forbidden word are final
            end = rest.rfind(1, j, q) + 1
            head += bytes(c)
            head += rest[pos:end]
            base += c + end - pos
            c = 0
            pos = end
        out = b"".join((head, bytes(c), rest[pos:], _FORBIDDEN_ONE, _omega(s, r - 1)))
    if len(out) != k:
        raise InvariantError(f"encoded length {len(out)} != k={k} at (k={k}, r={r})")
    return out


def _zero_run_error(r: int) -> DataError:
    return DataError(f"word violates the zero-run constraint for r={r}")


def _wi_decode(data: bytes, k: int, r: int) -> bytes:
    # k symbols hold no run of k + 1 zeros, so no larger limit binds
    if r > k:
        r = k + 1
    if b"\x00" * r in data:
        raise _zero_run_error(r)
    return _parse_and_undo(data, k, r)


def _parse_and_undo(data: bytes, k: int, r: int) -> bytes:
    """The message of a k-symbol word with no run of r zeros, r cut at k + 1."""
    block = b"\x01" * (r - 1) + b"\x00"
    i = len(data)
    while i >= r and data[i - r : i] == block:
        i -= r
    if r > 4 or not 0 <= feasibility_bound(r) - k <= 1:
        return _undo(data, i, r)
    # the greedy parse can strip a spurious block here; the encoder is
    # injective, so the one message that re-encodes to the word is the answer
    for end in range(i, len(data) + 1, r):
        try:
            u = _undo(data, end, r)
        except DataError:
            continue
        if _wi_encode(u, k, r) == data:
            return u
    raise DataError("no replacement count gives a message that encodes to this word")


def _undo(data: bytes, i: int, r: int) -> bytes:
    """The message of a zero-constrained word whose count tail's (1^(r-1) 0) blocks start at i."""
    while i >= 1 and data[i - 1] == 0:
        i -= 1
    if i == 0:
        raise DataError("no sentinel symbol found while parsing the replacement count")
    # the count tail omega(s) after the sentinel has s symbols
    s = len(data) - i
    if s == 0:
        return data[: i - 1]
    # a bytearray, as slice assignment copies any other buffer first
    pattern = bytearray(r) + _FORBIDDEN_ONE
    index = _POINTER_INDEX
    # the working word is left + right[::-1] + data[t0:e]: insertions go into
    # left, right holds the symbols between the gap and the tail reversed, and
    # the tail is immutable, so each pointer is one slice off its end
    left = bytearray()
    right = bytearray()
    t0, e = 0, i - 1
    for step in range(s, 0, -1):
        if e - t0 < r:
            # the tail ran out: the rest of the word, r symbols or more where
            # it has them, becomes the tail
            cut = max(0, len(left) + len(right) + e - t0 - r)
            data = b"".join((left[cut:], right[::-1], data[t0:e]))
            del left[cut:]
            right.clear()
            t0, e = 0, len(data)
        f = e - r
        if f >= t0:
            q = index[data[f:e]]
            size = len(left)
            if 0 <= q <= size:
                if size - q <= _NEAR:
                    left[q:q] = pattern
                else:
                    # move the gap to q
                    right += left[q:][::-1]
                    del left[q:]
                    left += pattern
                e = f
                continue
            need = q - size
            have = len(right)
            if 0 < need <= have + f - t0:
                # the insertion point lies right of the gap: the symbols
                # before it come from right, then from the tail
                if have:
                    cut = have - min(need, have)
                    left += right[cut:][::-1]
                    del right[cut:]
                    need -= have - cut
                left += data[t0 : t0 + need]
                t0 += need
                left += pattern
                e = f
                continue
        if e - t0 >= r - 1 and data.startswith(_FORBIDDEN_ONE + bytes(r - 2), e - r + 1, e):
            # the end marker 1 0^(r-2) becomes r zeros; only the first
            # replacement appends one, so it can only be the last undo
            if step == 1:
                return b"".join((left, right[::-1], data[t0 : e - r + 1], bytes(r)))
            # before that, the next step would read those zeros as pointer value 0
            step -= 1
        raise DataError(
            f"undo step {step}: trailing symbols match neither a valid pointer nor the end marker"
        )
    return b"".join((left, right[::-1], data[t0:e]))


def _message(u: BitSeq, k: int) -> bytes:
    """The symbols of a message, which must have length k - 1."""
    if len(u) != k - 1:
        raise DataError(f"message length {len(u)} != k - 1 = {k - 1}")
    return u.tobytes()


def _word(x: BitSeq, fp: FrontParams) -> bytes:
    """The symbols of a front-end word, which must have length k."""
    if len(x) != fp.k:
        raise DataError(f"word length {len(x)} != k = {fp.k}")
    return x.tobytes()


def _nrzi_encode(data: bytes) -> bytes:
    size = len(data)
    v = int.from_bytes(data, "big")
    shift = 8
    while shift < 8 * size:
        v ^= v >> shift
        shift <<= 1
    return v.to_bytes(size, "big")


def _nrzi_packed(data: bytes) -> tuple[bytes, int]:
    """_nrzi_encode on the word packed one bit per symbol: its bytes and that packed int.

    The prefix XOR runs on len(data) bits, not 8 * len(data); the int is the
    packing code._weight takes, first symbol most significant.
    """
    size = len(data)
    v = int(data.translate(_TO_ASCII), 2)
    shift = 1
    while shift < size:
        v ^= v >> shift
        shift <<= 1
    return format(v, f"0{size}b").encode().translate(_FROM_ASCII), v


def _nrzi_decode(data: bytes) -> bytes:
    v = int.from_bytes(data, "big")
    return (v ^ (v >> 8)).to_bytes(len(data), "big")


def _front_decode_packed(y: int, k: int, r: int) -> bytes:
    """_wi_decode(_nrzi_decode(word), k, r) for a k-symbol word packed one bit per symbol as y.

    y holds the first symbol as its most significant bit. NRZI's inverse is
    y ^ (y >> 1), and it holds 0^r exactly where the word 0y, of k + 1
    symbols, holds r + 1 equal symbols in a row, so bitseq._run_over checks
    the zero runs on y before the one unpack.
    """
    if r > k:
        r = k + 1
    if _run_over(y, k + 1, r):
        raise _zero_run_error(r)
    return _parse_and_undo(format(y ^ y >> 1, f"0{k}b").encode().translate(_FROM_ASCII), k, r)


def wi_encode(u: BitSeq, fp: FrontParams) -> BitSeq:
    """Encode a message of length k-1 into a zero-run-constrained word of length k."""
    return BitSeq._wrap(_wi_encode(_message(u, fp.k), fp.k, fp.r))


def wi_decode(x: BitSeq, fp: FrontParams) -> BitSeq:
    """Invert wi_encode on every word it emits.

    Raises DataError on a word of the wrong length, a word with a run of r
    zeros, and a word whose replacement count or undo steps do not parse (no
    sentinel symbol, or trailing symbols that are neither a valid pointer nor
    the end marker). Other words the encoder never emits can still parse: at
    (k, r) = (10, 4), 1010101000 decodes to 000010000, which encodes to
    1000101000. Re-encoding the result is the only membership test; at
    k = 2^r + r - 6 and 2^r + r - 5 with r <= 4 this function makes it, and
    raises DataError for a word no message encodes to.
    """
    return BitSeq._wrap(_wi_decode(_word(x, fp), fp.k, fp.r))


def nrzi_encode(x: BitSeq) -> BitSeq:
    """Transition coding: y_1 = x_1, y_i = y_(i-1) xor x_i.

    A prefix XOR over the word packed one symbol per byte, first symbol in the
    top byte: after the right shifts by 1, 2, 4, ... bytes, byte i holds the
    XOR of bytes 0..i, and the int never grows past the word's 8n bits.
    """
    return BitSeq._wrap(_nrzi_encode(x.tobytes()))


def nrzi_decode(y: BitSeq) -> BitSeq:
    """Inverse transition coding: x_1 = y_1, x_i = y_(i-1) xor y_i."""
    return BitSeq._wrap(_nrzi_decode(y.tobytes()))


def front_encode(u: BitSeq, fp: FrontParams) -> BitSeq:
    """Message to run-length-limited word: sequence replacement, then NRZI."""
    return BitSeq._wrap(_nrzi_encode(_wi_encode(_message(u, fp.k), fp.k, fp.r)))


def front_decode(y: BitSeq, fp: FrontParams) -> BitSeq:
    """Inverse of front_encode."""
    return BitSeq._wrap(_wi_decode(_nrzi_decode(_word(y, fp)), fp.k, fp.r))
