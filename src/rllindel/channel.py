"""Deterministic, seedable single insertion/deletion channel.

All randomness comes from splitmix64, a public-domain 64-bit mixing generator
(state advances by the golden-gamma constant; outputs pass through a two-round
xor-multiply finalizer). Outputs are therefore identical across platforms,
processes, and runs. Positions are drawn by rejection sampling so every legal
position is exactly equally likely.

Campaigns derive one seed per trial with trial_seed, which is the
(index+1)-th raw output of the stream seeded with the base seed but is
computed in O(1), so trials are independent of execution order and may be
distributed across workers.

Stream.next_packed draws many outputs at once, as one int with output i in
bits 64i..64i+63. It runs the finalizer on all of them together, as SIMD
within a register: output i is computed in bits 128i..128i+127 of one big
int, so each round is a few whole-int operations, and the lanes are then
compacted to 64 bits each. A draw of W outputs thus costs O(W) big-int work,
where OR-ing W scalar outputs into a growing int costs O(W^2).
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .bitseq import BitSeq
from .errors import DataError, ValidationError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# The most lane sets _lanes keeps, one per output count: a campaign and a
# sampled encoder check each draw one count. One set for a 10^6-bit word
# (15625 lanes) holds about 0.7 MB.
_LANE_SETS = 8

INSERTION = "insertion"
DELETION = "deletion"


@lru_cache(maxsize=_LANE_SETS)
def _lanes(count: int) -> tuple[int, int, int]:
    """(unit, mask, gammas) for count 128-bit lanes: 1, 2^64 - 1 and (i+1)*gamma mod 2^64 in lane i."""
    lane = (1).to_bytes(16, "little")
    unit = int.from_bytes(lane * count, "little")
    gammas = b"".join(((i + 1) * _GOLDEN & _MASK).to_bytes(16, "little") for i in range(count))
    return unit, unit * _MASK, int.from_bytes(gammas, "little")


def mix64(x: int) -> int:
    """The splitmix64 output finalizer."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


class Stream:
    """A splitmix64 stream: state += golden gamma, output = mix64(state)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def next_packed(self, count: int) -> int:
        """The next count outputs as one int, output i in bits 64i..64i+63 (first lowest).

        Leaves the state where count calls to next() would. Lane i of a
        128-bit-lane int starts as state + (i+1)*gamma mod 2^64 and runs
        mix64's rounds with the whole int: a lane's product is below 2^128,
        so a multiply stays in its lane, and a shift pulls the next lane's
        low bits into the lane's top bits (98-127 for the first shift), which
        the mask clears.
        """
        unit, mask, gammas = _lanes(count)
        x = (unit * self._state + gammas) & mask
        self._state = (self._state + count * _GOLDEN) & _MASK
        x = (((x ^ (x >> 30)) & mask) * _MIX1) & mask
        x = (((x ^ (x >> 27)) & mask) * _MIX2) & mask
        # bits 64-127 of each lane are dropped by the compaction, so no mask here
        x ^= x >> 31
        lanes = memoryview(x.to_bytes(16 * count, "little")).cast("Q")
        return int.from_bytes(lanes[::2].tobytes(), "little")

    def below(self, bound: int) -> int:
        """Uniform draw from [0, bound) via rejection sampling, for 1 <= bound <= 2^64.

        One raw output has 64 bits, so no larger bound can be drawn uniformly.
        """
        if bound < 1:
            raise ValidationError(f"bound must be positive (got {bound})")
        if bound > 1 << 64:
            raise ValidationError(f"bound must be at most 2^64 (got {bound})")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next()
            if u < limit:
                return u % bound


def trial_seed(base_seed: int, index: int) -> int:
    """Per-trial seed: the (index+1)-th output of the stream seeded with base_seed."""
    if index < 0:
        raise DataError(f"trial index must be non-negative (got {index})")
    return mix64((base_seed + (index + 1) * _GOLDEN) & _MASK)


_EventFields = namedtuple("_EventFields", "kind position symbol", defaults=(None,))


class ChannelEvent(_EventFields):
    """One channel corruption: an insertion or a deletion at a 1-based position.

    For an insertion the new symbol is placed before `position`, whose valid
    range is [1, len+1]; for a deletion the range is [1, len]. The symbol is
    meaningful for insertions only and is None for deletions.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ChannelEvent":
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (INSERTION, DELETION):
            raise ValidationError(f"unknown event kind {self.kind!r}")
        if self.position < 1:
            raise DataError(f"position must be at least 1 (got {self.position})")
        if self.kind == INSERTION:
            if self.symbol not in (0, 1):
                raise DataError(f"insertion symbol must be 0 or 1 (got {self.symbol!r})")
        elif self.symbol is not None:
            raise DataError("deletion events carry no symbol")
        return self


def apply_event(s: BitSeq, e: ChannelEvent) -> BitSeq:
    """Apply one event; the output length differs from |s| by exactly 1."""
    data = s.tobytes()
    length = len(data)
    i = e.position - 1
    if e.kind == INSERTION:
        if not 1 <= e.position <= length + 1:
            raise DataError(
                f"insertion position {e.position} is outside [1, {length + 1}]"
            )
        return BitSeq._wrap(data[:i] + bytes([e.symbol]) + data[i:])
    if not 1 <= e.position <= length:
        raise DataError(f"deletion position {e.position} is outside [1, {length}]")
    return BitSeq._wrap(data[:i] + data[i + 1 :])


def random_event(length: int, seed: int, kind: str | None = None) -> ChannelEvent:
    """Draw one event for a word of the given length, fully determined by (length, seed).

    The kind is drawn uniformly unless forced by the `kind` argument (in which
    case the kind draw is skipped and only position/symbol are consumed from
    the stream); the position is uniform over the valid range for the kind;
    insertion symbols are uniform over {0, 1}.
    """
    if length < 1:
        raise DataError(f"length must be at least 1 (got {length})")
    stream = Stream(seed)
    if kind is None:
        kind = DELETION if stream.next() & 1 else INSERTION
    elif kind not in (INSERTION, DELETION):
        raise ValidationError(f"unknown event kind {kind!r}")
    if kind == INSERTION:
        position = 1 + stream.below(length + 1)
        return ChannelEvent(INSERTION, position, stream.next() & 1)
    return ChannelEvent(DELETION, 1 + stream.below(length))


def log_line(e: ChannelEvent) -> str:
    """Event-log form: `kind position symbol`, with `-` for deletion symbols."""
    symbol = "-" if e.symbol is None else str(e.symbol)
    return f"{e.kind} {e.position} {symbol}"
