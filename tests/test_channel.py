"""Deterministic indel channel: the mixing stream and event machinery."""
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
        draw = Stream.next

        def counted(stream):
            assert len(draws) < 1000, "below kept drawing"
            draws.append(None)
            return draw(stream)

        monkeypatch.setattr(Stream, "next", counted)
        for bound in (2**64 + 1, 2**65, 3 * 2**64):
            with pytest.raises(ValidationError) as excinfo:
                Stream(1).below(bound)
            assert str(excinfo.value) == f"bound must be at most 2^64 (got {bound})"
        with pytest.raises(ValidationError):
            random_event(2**64, 1, INSERTION)
        assert draws == []

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
