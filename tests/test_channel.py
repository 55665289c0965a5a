"""Deterministic indel channel: the mixing stream and event machinery."""
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rllindel import channel
from rllindel.bitseq import BitSeq
from rllindel.channel import (
    DELETION,
    INSERTION,
    ChannelEvent,
    Stream,
    apply_event,
    log_line,
    mix64,
    random_event,
    trial_seed,
)
from rllindel.errors import DataError, ValidationError
from reference import reference_random_event

MASK = 2**64 - 1


def seed_at(u: int) -> int:
    """The seed whose first splitmix64 output is u: the state mix64 maps to u, less one gamma.

    Undoes mix64's steps in reverse: x ^= x >> s by xoring in every multiple
    of s below 64, and each multiply by its inverse mod 2^64.
    """
    x = u ^ (u >> 31) ^ (u >> 62)
    x = x * pow(0x94D049BB133111EB, -1, 2**64) & MASK
    x ^= (x >> 27) ^ (x >> 54)
    x = x * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK
    x ^= (x >> 30) ^ (x >> 60)
    return (x - 0x9E3779B97F4A7C15) & MASK


class TestStream:
    def test_reference_outputs(self):
        # published reference sequence for this mixing generator, seed 1234567
        s = Stream(1234567)
        assert [s.next() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_mix64_fixed_points(self):
        assert mix64(0) == 0
        assert mix64(1) != 1

    def test_below_is_in_range(self):
        s = Stream(99)
        for bound in (1, 2, 21, 1000):
            for _ in range(200):
                assert 0 <= s.below(bound) < bound

    def test_below_rejects_a_bound_above_2_64(self, monkeypatch):
        # no 64-bit draw fits under the rejection limit of such a bound, so a
        # below that took it would draw for ever; count the draws to end it
        draws = []
        draw = channel.mix64

        def counted(x):
            assert len(draws) < 1000, "below kept drawing"
            draws.append(None)
            return draw(x)

        monkeypatch.setattr(channel, "mix64", counted)
        for bound in (2**64 + 1, 2**65, 3 * 2**64):
            with pytest.raises(ValidationError) as excinfo:
                Stream(1).below(bound)
            assert str(excinfo.value) == f"bound must be at most 2^64 (got {bound})"
        with pytest.raises(ValidationError):
            random_event(2**64, 1, INSERTION)
        assert draws == []

    # the rejection loop is written out here: Stream.below and random_event
    # share one sampler, so the reference draw cannot check it. The first
    # output of seed_at(u) is u; at u = limit below must reject and draw
    # again, at limit - 1 take it. Bounds 3 * 2^62 and 2^63 + 1 reject
    # about a quarter and a half of all outputs, 2^64 - 1 and 3 only 2^64 - 1
    @pytest.mark.parametrize(
        "bound", [1, 2, 3, 21, 1000, 2**32 + 1, 3 * 2**62, 2**63 + 1, 2**64 - 1, 2**64]
    )
    def test_below_is_rejection_sampling_over_next(self, bound):
        limit = 2**64 - 2**64 % bound
        firsts = [limit - 1, limit % 2**64, 2**64 - 1, 2**63, 1]
        for u in firsts:
            assert Stream(seed_at(u)).next() == u
        for seed in [0, 1, 2**64 - 1, 12345] + [seed_at(u) for u in firsts]:
            raw = Stream(seed)
            u = raw.next()
            while u >= limit:
                u = raw.next()
            s = Stream(seed)
            assert s.below(bound) == u % bound
            assert s.next() == raw.next()

    def test_below_2_64_is_the_raw_output(self):
        for seed in (0, 1, 2**64 - 1):
            a, b = Stream(seed), Stream(seed)
            assert [a.below(2**64) for _ in range(5)] == [b.next() for _ in range(5)]

    # 0 and 2^64 - 1 are the ends of the state range; from 2^64 - gamma the
    # first lane's state wraps to exactly 0, and later lanes wrap in turn
    @pytest.mark.parametrize(
        "seed",
        [0, 2**64 - 1, 2**64 - 0x9E3779B97F4A7C15]
        + [random.Random(seed).getrandbits(64) for seed in range(4)],
    )
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 63, 64, 65, 200])
    def test_next_packed_is_count_scalar_outputs(self, seed, count):
        packed, scalar = Stream(seed), Stream(seed)
        assert packed.next_packed(count) == sum(scalar.next() << (64 * i) for i in range(count))
        assert packed.next() == scalar.next()

    def test_trial_seed_known_values(self):
        assert trial_seed(0, 0) == 16294208416658607535
        assert trial_seed(0, 1) == 7960286522194355700

    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_trial_seed_rejects_negative_index(self):
        with pytest.raises(DataError):
            trial_seed(7, -1)


class TestChannelEvent:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ChannelEvent("flip", 1)
        with pytest.raises(DataError):
            ChannelEvent(DELETION, 0)
        with pytest.raises(DataError):
            ChannelEvent(INSERTION, 1)  # missing symbol
        with pytest.raises(DataError):
            ChannelEvent(INSERTION, 1, 2)
        with pytest.raises(DataError):
            ChannelEvent(DELETION, 1, 0)  # deletions carry no symbol

    # 2.0 and 1.0 compare equal to integers, but apply_event cannot slice with
    # them; "2" does not compare with 1 at all
    @pytest.mark.parametrize(
        "args, reason",
        [
            ((DELETION, 2.0), "position must be an integer (got 2.0)"),
            ((DELETION, "2"), "position must be an integer (got '2')"),
            ((INSERTION, 2, 1.0), "insertion symbol must be 0 or 1 (got 1.0)"),
            ((INSERTION, 2.0, 1), "position must be an integer (got 2.0)"),
        ],
    )
    def test_rejects_a_non_integral_position_or_symbol(self, args, reason):
        with pytest.raises(DataError) as excinfo:
            ChannelEvent(*args)
        assert str(excinfo.value) == reason

    def test_bool_symbol_and_position_log_as_digits(self):
        assert log_line(ChannelEvent(INSERTION, 3, True)) == "insertion 3 1"
        assert log_line(ChannelEvent(INSERTION, 3, False)) == "insertion 3 0"
        assert log_line(ChannelEvent(DELETION, True)) == "deletion 1 -"
        assert apply_event(BitSeq("00"), ChannelEvent(INSERTION, 2, True)) == BitSeq("010")

    def test_apply_insertion(self):
        s = BitSeq("0000")
        assert apply_event(s, ChannelEvent(INSERTION, 1, 1)) == BitSeq("10000")
        assert apply_event(s, ChannelEvent(INSERTION, 5, 1)) == BitSeq("00001")
        assert apply_event(s, ChannelEvent(INSERTION, 3, 1)) == BitSeq("00100")

    def test_apply_deletion(self):
        s = BitSeq("10111")
        assert apply_event(s, ChannelEvent(DELETION, 1)) == BitSeq("0111")
        assert apply_event(s, ChannelEvent(DELETION, 5)) == BitSeq("1011")

    def test_apply_range_errors(self):
        s = BitSeq("101")
        with pytest.raises(DataError, match="outside"):
            apply_event(s, ChannelEvent(INSERTION, 5, 0))
        with pytest.raises(DataError, match="outside"):
            apply_event(s, ChannelEvent(DELETION, 4))

    def test_log_line(self):
        assert log_line(ChannelEvent(INSERTION, 3, 1)) == "insertion 3 1"
        assert log_line(ChannelEvent(DELETION, 5)) == "deletion 5 -"


class TestRandomEvent:
    def test_deterministic(self):
        assert random_event(21, 7) == random_event(21, 7)

    def test_forced_kind(self):
        for seed in range(50):
            assert random_event(21, seed, DELETION).kind == DELETION
            assert random_event(21, seed, INSERTION).kind == INSERTION

    def test_positions_stay_in_range(self):
        for seed in range(300):
            e = random_event(9, seed)
            if e.kind == DELETION:
                assert 1 <= e.position <= 9
            else:
                assert 1 <= e.position <= 10
                assert e.symbol in (0, 1)

    def test_both_kinds_occur(self):
        kinds = {random_event(21, seed).kind for seed in range(64)}
        assert kinds == {DELETION, INSERTION}

    def test_rejects_empty_word(self):
        with pytest.raises(DataError):
            random_event(0, 7)

    @pytest.mark.parametrize(
        "length, seed, reason",
        [
            (2.5, 1, "length must be an integer (got 2.5)"),
            (4.0, 1, "length must be an integer (got 4.0)"),
            (4, 1.5, "seed must be an integer (got 1.5)"),
            (4, "1", "seed must be an integer (got '1')"),
        ],
    )
    def test_rejects_a_non_integral_length_or_seed(self, length, seed, reason):
        with pytest.raises(DataError) as excinfo:
            random_event(length, seed)
        assert str(excinfo.value) == reason

    def test_rejects_unknown_kind_and_empty_range(self):
        with pytest.raises(ValidationError):
            random_event(5, 7, "flip")
        with pytest.raises(ValidationError):
            Stream(7).below(0)

    @given(st.integers(min_value=0), st.integers(min_value=1, max_value=32))
    def test_apply_never_fails_on_drawn_event(self, seed, length):
        s = BitSeq([i & 1 for i in range(length)])
        e = random_event(length, seed)
        out = apply_event(s, e)
        assert len(out) == length + (1 if e.kind == INSERTION else -1)

    def test_deletion_then_reinsertion_restores(self):
        s = BitSeq("1011001")
        for pos in range(1, 8):
            deleted = apply_event(s, ChannelEvent(DELETION, pos))
            restored = apply_event(deleted, ChannelEvent(INSERTION, pos, s[pos - 1]))
            assert restored == s


def outcome(draw, *args):
    """(event type, event fields) of draw(*args), or (error type, error text) if it raises."""
    try:
        event = draw(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(event), tuple(event)


# a bound just above 2^63 rejects almost half the raw outputs, so the
# rejection loop runs; at 2^64 an insertion's bound is 2^64 + 1, which no
# 64-bit output can serve
lengths = st.one_of(
    st.integers(min_value=-2, max_value=300),
    st.sampled_from([2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**63 + 1, 3 * 2**62, 2**64 - 1, 2**64]),
)
kinds = st.sampled_from([None, INSERTION, DELETION, "flip"])


class TestDrawMatchesReference:
    @given(lengths, st.integers(min_value=-(2**65), max_value=2**65), kinds)
    def test_random_event(self, length, seed, kind):
        assert outcome(random_event, length, seed, kind) == outcome(
            reference_random_event, length, seed, kind
        )

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_bound_2_64_plus_1(self, seed):
        reason = f"bound must be at most 2^64 (got {2**64 + 1})"
        assert outcome(random_event, 2**64, seed, INSERTION) == (ValidationError, reason)
        assert outcome(reference_random_event, 2**64, seed, INSERTION) == (ValidationError, reason)

    def test_every_length_to_300_on_fixed_seeds(self):
        for length in range(1, 301):
            for seed in (0, 1, 2**64 - 1, trial_seed(7, length)):
                for kind in (None, INSERTION, DELETION):
                    assert random_event(length, seed, kind) == reference_random_event(length, seed, kind)
