"""Bit sequence container, run statistics, and the little-endian integer map."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rllindel.bitseq import (
    BitSeq,
    _run_over,
    _run_patterns,
    is_rll,
    is_zero_constrained,
    le_decode,
    le_encode,
)
from rllindel.errors import DataError, ValidationError

from reference import max_run_length, max_zero_run

bits = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=64)


class TestBitSeq:
    def test_constructors_agree(self):
        assert BitSeq("0110") == BitSeq([0, 1, 1, 0]) == BitSeq(b"\x00\x01\x01\x00")
        assert BitSeq(BitSeq("01")) == BitSeq("01")

    def test_str_round_trip(self):
        s = BitSeq("100101")
        assert str(s) == "100101"
        assert BitSeq(str(s)) == s

    def test_parse_rejects_bad_character(self):
        with pytest.raises(DataError, match="position 3"):
            BitSeq.parse("01x0")

    def test_constructor_rejects_bad_symbol(self):
        with pytest.raises(DataError):
            BitSeq([0, 2])
        with pytest.raises(DataError) as from_constructor:
            BitSeq("012")
        with pytest.raises(DataError) as from_parse:
            BitSeq.parse("012")
        assert str(from_constructor.value) == str(from_parse.value)

    @pytest.mark.parametrize("text, position", [("\x00", 1), ("\x01", 1), ("01\x010", 3)])
    def test_text_bytes_0_and_1_are_no_symbols(self, text, position):
        for build in (BitSeq.parse, BitSeq):
            with pytest.raises(DataError) as excinfo:
                build(text)
            assert str(excinfo.value) == (
                f"invalid character {text[position - 1]!r} at position {position}"
            )

    @pytest.mark.parametrize("symbols, position, text", [([1.0], 1, "1.0"), ([0, 0.0], 2, "0.0")])
    def test_a_float_symbol_is_a_data_error(self, symbols, position, text):
        # 1.0 == 1, but a float is no symbol
        with pytest.raises(DataError) as excinfo:
            BitSeq(symbols)
        assert str(excinfo.value) == f"symbol at position {position} is {text}, expected 0 or 1"

    def test_bool_symbols_stay_symbols(self):
        assert BitSeq([True, False]) == BitSeq("10")

    def test_raw_bytes_name_the_first_foreign_symbol(self):
        with pytest.raises(DataError) as excinfo:
            BitSeq(b"\x00\x02")
        assert str(excinfo.value) == "symbol at position 2 is 2, expected 0 or 1"

    def test_indexing_and_slicing(self):
        s = BitSeq("10110")
        assert s[0] == 1 and s[1] == 0
        assert s[1:4] == BitSeq("011")
        assert s[-1] == 0
        assert list(s) == [1, 0, 1, 1, 0]

    def test_concat_and_repeat(self):
        assert BitSeq("10") + BitSeq("01") == BitSeq("1001")
        assert BitSeq("10") * 3 == BitSeq("101010")
        assert 2 * BitSeq("1") == BitSeq("11")

    def test_empty(self):
        empty = BitSeq("")
        assert len(empty) == 0
        assert empty + BitSeq("1") == BitSeq("1")

    def test_hashable(self):
        assert len({BitSeq("01"), BitSeq("01"), BitSeq("10")}) == 2

    @given(bits)
    def test_iter_matches_getitem(self, raw):
        s = BitSeq(raw)
        assert [s[i] for i in range(len(s))] == raw


class TestRunStatistics:
    def test_known_runs(self):
        assert max_run_length(BitSeq("")) == 0
        assert max_run_length(BitSeq("1")) == 1
        assert max_run_length(BitSeq("1100001111001111101101111")) == 5
        assert max_zero_run(BitSeq("1010001000101000011011000")) == 4
        assert max_zero_run(BitSeq("1111")) == 0

    def test_is_rll(self):
        assert is_rll(BitSeq("110011"), 2)
        assert not is_rll(BitSeq("111011"), 2)
        with pytest.raises(ValidationError):
            is_rll(BitSeq("01"), 0)

    def test_is_rll_at_a_limit_far_above_the_length(self):
        # no run of a word is longer than the word, so no 10^22-symbol run
        # pattern is built
        assert is_rll(BitSeq("0101"), 10**22)
        assert is_rll(BitSeq("0000"), 4)
        assert not is_rll(BitSeq("0000"), 3)
        assert is_rll(BitSeq(""), 5)

    def test_is_zero_constrained_at_a_limit_far_above_the_length(self):
        assert is_zero_constrained(BitSeq("0101"), 10**22)
        assert is_zero_constrained(BitSeq("0000"), 5)
        assert not is_zero_constrained(BitSeq("0000"), 4)
        assert is_zero_constrained(BitSeq(""), 2)

    def test_is_zero_constrained_ignores_ones(self):
        assert is_zero_constrained(BitSeq("111111001"), 3)
        assert not is_zero_constrained(BitSeq("10001"), 3)
        with pytest.raises(ValidationError):
            is_zero_constrained(BitSeq("01"), 1)

    @given(bits)
    def test_zero_run_at_most_run(self, raw):
        s = BitSeq(raw)
        assert max_zero_run(s) <= max_run_length(s)

    @given(bits, st.integers(min_value=1, max_value=8))
    def test_is_rll_matches_statistic(self, raw, r):
        s = BitSeq(raw)
        assert is_rll(s, r) == (max_run_length(s) <= r)

    @given(bits, st.integers(min_value=2, max_value=8))
    def test_is_zero_constrained_matches_statistic(self, raw, r):
        s = BitSeq(raw)
        assert is_zero_constrained(s, r) == (max_zero_run(s) < r)


class TestPackedRunLimit:
    def test_every_word_to_length_12_against_the_byte_searches(self):
        for size in range(13):
            for packed in range(1 << size):
                # the first symbol is the most significant bit
                data = bytes(packed >> (size - 1 - i) & 1 for i in range(size))
                for r in range(1, size + 2):
                    zeros, ones = _run_patterns(r, size)
                    assert _run_over(packed, size, r) == (zeros in data or ones in data)
        # a limit below 1 is rejected with _run_patterns' text, whatever the word
        for r in (0, -1):
            for packed in (0b0101, 0b0110):
                with pytest.raises(ValidationError) as excinfo:
                    _run_over(packed, 4, r)
                assert str(excinfo.value) == f"run limit must be at least 1 (got r={r})"


class TestLittleEndian:
    def test_known_values(self):
        assert str(le_encode(0, 3)) == "000"
        assert str(le_encode(1, 3)) == "100"
        assert str(le_encode(6, 3)) == "011"
        assert le_decode(BitSeq("011")) == 6

    def test_range_error(self):
        with pytest.raises(DataError, match="x=8"):
            le_encode(8, 3)
        with pytest.raises(DataError):
            le_encode(-1, 3)
        with pytest.raises(ValidationError):
            le_encode(0, 0)

    def test_decode_empty_is_data_error(self):
        with pytest.raises(DataError):
            le_decode(BitSeq(""))

    def test_round_trip_exhaustive(self):
        # full round trip over every width up to 16
        for k in range(1, 17):
            for x in range(1 << k):
                s = le_encode(x, k)
                assert len(s) == k
                assert le_decode(s) == x
