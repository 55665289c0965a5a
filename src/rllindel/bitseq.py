"""Immutable binary sequences with run statistics and little-endian coding.

BitSeq is the value type every other module builds on. The empty sequence is
a valid word (the null word) and all run statistics of it are 0. Python-level
indexing and slicing are ordinary 0-based operations; positions quoted in
error messages and logs are 1-based to stay comparable with printed vectors.

Text form: the ASCII characters '0'/'1' with no separators, one sequence per
line; an empty line denotes the null word.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import DataError, ValidationError

_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
# '0' and '1' become the symbols, and the text bytes 0 and 1 become '0' and
# '1', which are no symbols, so _from_text rejects them as it does any other
_FROM_ASCII = bytes.maketrans(b"01\x00\x01", b"\x00\x0101")


class BitSeq:
    """An immutable sequence of binary symbols, one byte per symbol."""

    __slots__ = ("_data",)

    def __init__(self, bits: BitSeq | str | bytes | bytearray | Iterable[int] = b"") -> None:
        if isinstance(bits, BitSeq):
            self._data = bits._data
        elif isinstance(bits, str):
            self._data = _from_text(bits)
        elif isinstance(bits, (bytes, bytearray)) and not bits.translate(None, b"\x00\x01"):
            self._data = bytes(bits)
        else:
            # also names the first foreign byte of a bytes input
            self._data = _from_ints(bits)

    @classmethod
    def parse(cls, text: str) -> "BitSeq":
        """Parse the text form, raising DataError on any foreign character."""
        return cls._wrap(_from_text(text))

    @classmethod
    def _wrap(cls, data: bytes) -> "BitSeq":
        seq = object.__new__(cls)
        seq._data = data
        return seq

    def tobytes(self) -> bytes:
        """The symbols as raw bytes with values 0 and 1."""
        return self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BitSeq._wrap(self._data[index])
        return self._data[index]

    def __add__(self, other: "BitSeq") -> "BitSeq":
        if not isinstance(other, BitSeq):
            return NotImplemented
        return BitSeq._wrap(self._data + other._data)

    def __mul__(self, count: int) -> "BitSeq":
        if not isinstance(count, int):
            return NotImplemented
        return BitSeq._wrap(self._data * count)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitSeq):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __str__(self) -> str:
        return self._data.translate(_TO_ASCII).decode("ascii")

    def __repr__(self) -> str:
        return f"BitSeq({str(self)!r})"


def _from_text(text: str) -> bytes:
    try:
        data = text.encode("ascii").translate(_FROM_ASCII)
    except UnicodeEncodeError as exc:
        raise DataError(
            f"invalid character {text[exc.start]!r} at position {exc.start + 1}"
        ) from None
    if data.translate(None, b"\x00\x01"):
        for pos, value in enumerate(data, start=1):
            if value > 1:
                raise DataError(f"invalid character {text[pos - 1]!r} at position {pos}")
    return data


def _from_ints(bits: Iterable[int]) -> bytes:
    out = bytearray()
    for pos, bit in enumerate(bits, start=1):
        # 1.0 equals 1 but is no symbol: a symbol is an integer (bool included)
        if bit != 0 and bit != 1 or not hasattr(bit, "__index__"):
            raise DataError(f"symbol at position {pos} is {bit!r}, expected 0 or 1")
        out.append(bit)
    return bytes(out)


def _run_patterns(r: int, n: int) -> tuple[bytes, bytes]:
    """The two runs one longer than the limit r, 0^(r+1) and 1^(r+1), for n-symbol words.

    No limit of n or more binds an n-symbol word, so such an r is cut to n
    and neither pattern grows past n + 1 symbols, whatever r is.
    """
    if r < 1:
        raise ValidationError(f"run limit must be at least 1 (got r={r})")
    r = r if r < n else n
    return b"\x00" * (r + 1), b"\x01" * (r + 1)


def _run_over(packed: int, size: int, r: int) -> bool:
    """True iff the size-symbol word packed one bit per symbol holds a run longer than r.

    packed holds the first symbol as its most significant bit. A run longer
    than r is r equal neighbour pairs in a row, that is r ones in a row
    among the word's size - 1 equal-neighbour bits. Doubling the window each
    bit covers, and one last shift that brings it to r, takes about
    ceil(log2 r) big-int shifts and ANDs, where each byte search for a
    _run_patterns run walks the word about one byte a step.
    """
    if r < 1:
        raise ValidationError(f"run limit must be at least 1 (got r={r})")
    if r >= size:
        return False
    # bit i is 1 where the symbols i and i + 1 places before the end are equal
    window = ~(packed ^ packed >> 1) & ((1 << (size - 1)) - 1)
    # from here on, bit i is 1 where equal-neighbour bits i .. i + width - 1 all are
    width = 1
    while width << 1 <= r:
        window &= window >> width
        width <<= 1
    if width < r:
        window &= window >> (r - width)
    return window != 0


def is_rll(s: BitSeq, r: int) -> bool:
    """True iff no run in s is longer than r."""
    zeros, ones = _run_patterns(r, len(s._data))
    return zeros not in s._data and ones not in s._data


def is_zero_constrained(s: BitSeq, r: int) -> bool:
    """True iff every run of zeros in s is shorter than r (ones unconstrained)."""
    if r < 2:
        raise ValidationError(f"run limit must be at least 2 (got r={r})")
    # no word holds a zero run longer than itself, so a larger r is cut
    return b"\x00" * min(r, len(s._data) + 1) not in s._data


def le_encode(x: int, k: int) -> BitSeq:
    """The k-symbol little-endian form of x: x = sum of s_i * 2^(i-1).

    x must satisfy 0 <= x <= 2^k - 1. The binary text of x, reversed, gives
    the symbols in time linear in k; the same word read backwards is the
    most-significant-first form. A 1 set above x's k bits pads the text to
    k + 1 characters, and reversed and less that last 1 it has exactly k.
    """
    if k < 1:
        raise ValidationError(f"width must be at least 1 (got k={k})")
    if x < 0 or x.bit_length() > k:
        raise DataError(f"value x={x} is outside [0, 2^{k} - 1]")
    return BitSeq._wrap(format(x | 1 << k, "b")[:0:-1].encode().translate(_FROM_ASCII))


def le_decode(s: BitSeq) -> int:
    """Inverse of le_encode; the null word has no integer value."""
    if len(s) == 0:
        raise DataError("cannot decode an integer from the null word")
    return int(s._data[::-1].translate(_TO_ASCII), 2)
