"""Replacement front-end, its padding word, and the NRZI transform."""
import random
import time
import tracemalloc
from itertools import accumulate, product
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllindel import front
from rllindel.bitseq import _TO_ASCII, BitSeq, _run_over, is_rll, is_zero_constrained
from rllindel.errors import DataError, ValidationError
from rllindel.front import (
    _INDEX_SIZE,
    _POINTER_INDEX,
    _POINTERS,
    FrontParams,
    _front_decode_packed,
    _nrzi_decode,
    _nrzi_encode,
    _wi_decode,
    _wi_encode,
    feasibility_bound,
    front_decode,
    front_encode,
    nrzi_decode,
    nrzi_encode,
    omega,
    wi_decode,
    wi_encode,
)

from reference import max_run_length, reference_wi_decode, reference_wi_encode


class TestOmega:
    def test_known_values_at_t4(self):
        expected = ["", "0", "00", "000", "0000", "11110", "011110", "0011110"]
        for s, text in enumerate(expected):
            assert str(omega(s, 4)) == text

    def test_length_always_s(self):
        for t in range(2, 9):
            for s in range(65):
                assert len(omega(s, t)) == s

    def test_zero_runs_stay_short(self):
        for t in range(2, 9):
            for s in range(65):
                # the pad follows the sentinel 1, so runs inside it must fit
                assert is_zero_constrained(BitSeq("1") + omega(s, t), t + 1)

    def test_range_errors(self):
        with pytest.raises(ValidationError):
            omega(3, 1)
        with pytest.raises(ValidationError):
            omega(-1, 4)

    def test_no_block_built_below_t_plus_1(self):
        # t = 10^22 is too large to build 1^t, and s <= t needs no block
        assert str(omega(0, 10**22)) == ""
        assert str(omega(3, 10**22)) == "000"


class TestFrontParams:
    def test_accepts_safe_pairs(self):
        assert FrontParams(13, 4).k == 13
        assert FrontParams(30, 5).r == 5

    def test_rejects_small_parameters(self):
        with pytest.raises(ValidationError):
            FrontParams(1, 4)
        with pytest.raises(ValidationError):
            FrontParams(5, 1)

    def test_rejects_beyond_feasibility(self):
        with pytest.raises(ValidationError, match="feasibility"):
            FrontParams(16, 4)
        # for r >= 5 the top two lengths stay out; see the collision test below
        for k in (31, 32):
            with pytest.raises(ValidationError, match="not injective"):
                FrontParams(k, 5)

    def test_run_limit_above_k(self):
        # a limit above k's bit length cannot bind, so 2^r is not built for it
        assert FrontParams(2, 8).r == 8
        assert FrontParams(13, 10**22).r == 10**22
        assert FrontParams(2**70, 72).r == 72
        with pytest.raises(ValidationError, match="feasibility"):
            FrontParams(2**70, 69)

    def test_functions_at_a_limit_far_above_k(self):
        # no limit of k or more binds, so no pattern of 10^22 symbols is built
        fp = FrontParams(13, 10**22)
        for message in ("0" * 12, "1" * 12, "010011000101"):
            u = BitSeq(message)
            x = wi_encode(u, fp)
            assert x == u + BitSeq("1")
            assert wi_decode(x, fp) == u
            assert front_decode(front_encode(u, fp), fp) == u
        assert wi_decode(BitSeq("0" * 12 + "1"), fp) == BitSeq("0" * 12)
        with pytest.raises(DataError, match="sentinel"):
            wi_decode(BitSeq("0" * 13), fp)
        with pytest.raises(DataError, match="undo step 12"):
            wi_decode(BitSeq("1" + "0" * 12), fp)

    @pytest.mark.parametrize("k, r", [(5, 3), (6, 3), (14, 4), (15, 4)])
    def test_top_two_lengths_round_trip_up_to_r4(self, k, r):
        # the greedy count parse misparses some of these words; see the
        # decode tests below
        fp = FrontParams(k, r)
        for message in ("0" * (k - 1), "1" * (k - 1), "0001" * k):
            u = BitSeq(message[: k - 1])
            assert wi_decode(wi_encode(u, fp), fp) == u


class TestReplacement:
    def test_single_replacement_vector(self):
        fp = FrontParams(10, 4)
        x = wi_encode(BitSeq("000000100"), fp)
        assert str(x) == "0101010100"
        assert wi_decode(x, fp) == BitSeq("000000100")

    def test_no_replacement_keeps_message(self):
        fp = FrontParams(10, 4)
        assert str(wi_encode(BitSeq("1") * 9, fp)) == "1111111111"

    def test_wrong_length_is_data_error(self):
        fp = FrontParams(10, 4)
        with pytest.raises(DataError):
            wi_encode(BitSeq("01"), fp)
        with pytest.raises(DataError):
            wi_decode(BitSeq("01"), fp)

    def test_decode_rejects_long_zero_run(self):
        fp = FrontParams(10, 4)
        with pytest.raises(DataError, match="zero-run"):
            wi_decode(BitSeq("0000100001"), fp)

    def test_decode_rejects_missing_sentinel(self):
        fp = FrontParams(7, 4)
        with pytest.raises(DataError, match="sentinel"):
            wi_decode(BitSeq("0001110"), fp)

    def test_decode_rejects_bad_pointer_naming_step(self):
        fp = FrontParams(10, 4)
        with pytest.raises(DataError, match="undo step 4"):
            wi_decode(BitSeq("1111111110"), fp)

    def test_decode_accepts_a_word_the_encoder_does_not_emit(self):
        # the undo checks only that the word parses: this one decodes to a
        # message whose encoding is another word
        fp = FrontParams(10, 4)
        u = wi_decode(BitSeq("1010101000"), fp)
        assert u == BitSeq("000010000")
        assert str(wi_encode(u, fp)) == "1000101000"

    def test_exhaustive_round_trip_k9_r4(self):
        fp = FrontParams(9, 4)
        seen = set()
        for mask in range(1 << 8):
            u = BitSeq([(mask >> (7 - i)) & 1 for i in range(8)])
            x = wi_encode(u, fp)
            assert len(x) == 9
            assert is_zero_constrained(x, 4)
            assert x not in seen
            seen.add(x)
            assert wi_decode(x, fp) == u

    def test_greedy_misparse_round_trips_at_top_length(self):
        # at k = 5, r = 3 the greedy count parse, which the reference keeps,
        # reads this encoder output as having no sentinel at all; the decoder
        # then tries fewer blocks and keeps the message that re-encodes
        x = _wi_encode(bytes([0, 0, 0, 1]), 5, 3)
        assert bytes(x) == bytes([0, 0, 1, 1, 0])
        with pytest.raises(DataError, match="sentinel"):
            reference_wi_decode(x, 5, 3)
        assert _wi_decode(x, 5, 3) == bytes([0, 0, 0, 1])

    @pytest.mark.parametrize("k, r", [(5, 3), (6, 3), (14, 4), (15, 4)])
    def test_top_length_decodes_exactly_the_emitted_words(self, k, r):
        # the encoder is injective here, so half of all words are emitted; the
        # decoder must return the one message of each and reject every other
        decoded = 0
        for word in map(bytes, product(b"\x00\x01", repeat=k)):
            try:
                u = _wi_decode(word, k, r)
            except DataError:
                continue
            assert _wi_encode(u, k, r) == word
            decoded += 1
        assert decoded == 1 << (k - 1)

    def test_top_length_rejects_a_word_the_greedy_parse_accepts(self):
        # the greedy parse undoes this word into a message that encodes to
        # another word, and no smaller block count gives one that encodes to it
        word = BitSeq("00010001011110").tobytes()
        assert reference_wi_decode(word, 14, 4) == BitSeq("0000100000000").tobytes()
        with pytest.raises(DataError, match="no replacement count"):
            _wi_decode(word, 14, 4)

    def test_encoder_collides_at_rejected_length_r5(self):
        # k = 31 = 2^r + r - 6 at r = 5: no parse can help, two messages share
        # one encoding (a pointer's high ones, the sentinel and a one-symbol
        # tail spell a count block)
        word = BitSeq("0010111001010011000010010011110").tobytes()
        for message in ("000000000001100000000000000000", "001011100101001100001001000001"):
            assert _wi_encode(BitSeq(message).tobytes(), 31, 5) == word
        with pytest.raises(ValidationError, match="not injective"):
            FrontParams(31, 5)

    def test_memory_follows_replacements_not_k(self):
        # k = 10^6 at r = 20 (accepted): one forbidden word in a message of
        # ones. The encoder copies the word a few times; a pointer table of k
        # entries would cost about 100 bytes a symbol.
        k, r = 10**6, 20
        FrontParams(k, r)
        data = bytearray(b"\x01" * (k - 1))
        data[k // 2 : k // 2 + r] = bytes(r)
        data = bytes(data)
        tracemalloc.start()
        try:
            word = _wi_encode(data, k, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * k
        assert word == reference_wi_encode(data, k, r)


def _largest_pointer_last(rng: random.Random, k: int, r: int) -> bytes:
    """A message x 0^r 1 of k - 1 symbols, x ending in 1 with no run of r zeros.

    Its one replacement appends the largest pointer any message of that length
    can make, so the count parse meets it right before the sentinel.
    """
    x = bytearray(rng.getrandbits(1) for _ in range(k - r - 2))
    x[-1] = 1
    while (i := x.find(bytes(r))) >= 0:
        x[i + r - 1] = 1
    return bytes(x) + bytes(r) + b"\x01"


class TestLargestPointerLast:
    """The worst case of the greedy count parse, at and one past the top accepted length.

    At k = 2^r + r - 7 the last pointer's top r - 2 symbols are not all ones,
    so the parse reads the count exactly; at 2^r + r - 6 they are, and the
    pointer, the sentinel and the one-symbol count spell one more count block.
    """

    @pytest.mark.parametrize("r", range(5, 15))
    def test_top_accepted_length_matches_the_references(self, r):
        k = (1 << r) + r - 7
        fp = FrontParams(k, r)
        rng = random.Random(f"largest pointer {r}")
        for _ in range(50):
            data = _largest_pointer_last(rng, k, r)
            word = reference_wi_encode(data, k, r)
            assert word[-r:] != b"\x01" * (r - 1) + b"\x00"
            assert wi_encode(BitSeq._wrap(data), fp).tobytes() == word
            assert wi_decode(BitSeq._wrap(word), fp).tobytes() == data
            assert reference_wi_decode(word, k, r) == data

    @pytest.mark.parametrize("r", range(5, 15))
    def test_first_rejected_length_fails_to_round_trip(self, r):
        # why FrontParams rejects this length: no message of this form round-trips
        k = (1 << r) + r - 6
        with pytest.raises(ValidationError, match="not injective"):
            FrontParams(k, r)
        rng = random.Random(f"largest pointer {r}")
        for _ in range(50):
            data = _largest_pointer_last(rng, k, r)
            word = _wi_encode(data, k, r)
            assert word[-r:] == b"\x01" * (r - 1) + b"\x00"
            assert _undo(_wi_decode, word, k, r) != data


class TestResumedSearchMatchesReference:
    """The one-pass scan against reference.reference_wi_encode, which restarts at symbol 0.

    The scan keeps the working word as a finished head, a count of pending
    zeros and the unscanned rest, so the cases that matter are long zero runs
    (the count grows past r), runs that span a deleted 1, and the end case's
    marker, whose 1 a later replacement can take.
    """

    @pytest.mark.parametrize("r", [3, 4])
    def test_every_message_at_every_accepted_length(self, r):
        for k in range(2, feasibility_bound(r) - 1):
            FrontParams(k, r)
            for mask in range(1 << (k - 1)):
                data = bytes((mask >> i) & 1 for i in range(k - 1))
                assert _wi_encode(data, k, r) == reference_wi_encode(data, k, r)

    @pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8, 12])
    def test_all_zero_and_all_one_messages(self, r):
        # every accepted length for r <= 8, and k = 4000 at r = 12
        for k in [4000] if r == 12 else range(2, feasibility_bound(r) - 1):
            FrontParams(k, r)
            for data in (bytes(k - 1), b"\x01" * (k - 1)):
                assert _wi_encode(data, k, r) == reference_wi_encode(data, k, r)

    @pytest.mark.parametrize("p_one", [1 / 2, 1 / 4, 1 / 16, 1 / 64, 1 / 256])
    @pytest.mark.parametrize("k, r", [(7, 5), (30, 5), (63, 6), (257, 8), (500, 12), (4000, 12)])
    def test_seeded_messages(self, k, r, p_one):
        rng = random.Random(f"{k} {r} {p_one}")
        for _ in range(max(20, 2000 // k)):
            data = bytes(rng.random() < p_one for _ in range(k - 1))
            assert _wi_encode(data, k, r) == reference_wi_encode(data, k, r)

    @pytest.mark.parametrize("k, r", [(500, 12), (4000, 12)])
    def test_benchmark_shaped_messages(self, k, r):
        # bits ANDed 4 and 6 times, as the benchmark draws sparse messages,
        # and 0^(k-1), whose one cascade runs on into the pointers it appends
        rng = random.Random(f"anded {k} {r}")
        messages = [bytes(k - 1)]
        for sparsity in (4, 6):
            for _ in range(10):
                value = rng.getrandbits(k - 1)
                for _ in range(sparsity - 1):
                    value &= rng.getrandbits(k - 1)
                messages.append(BitSeq(format(value, f"0{k - 1}b")).tobytes())
        for data in messages:
            assert _wi_encode(data, k, r) == reference_wi_encode(data, k, r)

    def test_run_limits_in_turn(self):
        # the pointer table serves every r: a pointer kept at one width must
        # not come back at another
        k = 4000
        rng = random.Random("run limits in turn")
        for r in (12, 13, 12, 13):
            FrontParams(k, r)
            for _ in range(3):
                data = _sparse_message(rng, k - 1, 1 / 16)
                assert _wi_encode(data, k, r) == reference_wi_encode(data, k, r)

    def test_pointer_table_stays_bounded(self):
        # at r = 20 there are 2^20 pointers; these messages make over 10^4
        # distinct ones between them
        k, r = 10**5, 20
        rng = random.Random(2)
        messages = [bytes(k - 1)] + [_sparse_message(rng, k - 1, 1 / 16) for _ in range(3)]
        for data in messages:
            assert _wi_encode(data, k, r) == reference_wi_encode(data, k, r)
            assert 0 < len(_POINTERS) <= _INDEX_SIZE

    @pytest.mark.parametrize(
        "message, word",
        [
            # the replacement at index 5 pulls the final 1s left against the
            # four zeros before it: the next forbidden word starts at 5 - r = 1
            ("100000000111", "1110011010100"),
            # the third forbidden word lies wholly in the appended pointers
            # (the end of pointer 6 and all of pointer 8) and starts right of
            # the second, which straddled the message and pointer 6
            ("010000100000", "0100110011000"),
            # end case: the message ends in 0^r, so the sentinel ends the
            # forbidden word and the zeros become the marker 100
            ("111111110000", "1111111110010"),
            # end case first: the last four zeros become the marker 100, and
            # the next forbidden word is zeros 5-8 and the marker's 1
            ("000000000000", "0001101011110"),
        ],
    )
    def test_pinned_vectors_at_k13_r4(self, message, word):
        data = BitSeq(message).tobytes()
        assert BitSeq(word).tobytes() == reference_wi_encode(data, 13, 4)
        assert str(wi_encode(BitSeq(message), FrontParams(13, 4))) == word


def _undo(decode, word: bytes, k: int, r: int):
    """The decoded bytes, or the text of the DataError the word raises."""
    try:
        return decode(word, k, r)
    except DataError as exc:
        return str(exc)


def _sparse_message(rng: random.Random, length: int, p_one: float) -> bytes:
    return bytes(rng.random() < p_one for _ in range(length))


@pytest.fixture(params=[None, 0], ids=["near-default", "near0"])
def near(request, monkeypatch):
    """Run at the default _NEAR, then at _NEAR = 0.

    At 0 every insertion point left of left's end moves the gap, so short
    words reach right and its reversal too.
    """
    if request.param is not None:
        monkeypatch.setattr(front, "_NEAR", request.param)


@pytest.mark.usefixtures("near")
class TestUndoMatchesReference:
    """The gap-buffer undo against reference.reference_wi_decode, bytes and DataError texts alike.

    The undo keeps the word as left, a reversed right and an immutable tail,
    so the cases that matter are pointers and end markers that straddle two
    of the parts, and a tail that runs out, at e == 0 among others.
    """

    @pytest.mark.parametrize("k, r", [(4, 3), (9, 3), (10, 4), (13, 4), (12, 5), (16, 6), (18, 5)])
    def test_every_word(self, k, r):
        # (9, 3) lies past the accepted lengths; the undo must still agree
        for word in map(bytes, product(b"\x00\x01", repeat=k)):
            assert _undo(_wi_decode, word, k, r) == _undo(reference_wi_decode, word, k, r), word

    @pytest.mark.parametrize("p_one", [0, 1, 1 / 16, 1 / 4, 1 / 2])
    @pytest.mark.parametrize("k, r", [(13, 4), (60, 6), (250, 8), (4000, 12)])
    def test_encoder_outputs_and_their_flips(self, k, r, p_one):
        # every one-symbol flip up to k = 250, every 37th at k = 4000
        message = _sparse_message(random.Random(f"{k} {r} {p_one}"), k - 1, p_one)
        word = _wi_encode(message, k, r)
        assert _wi_decode(word, k, r) == message
        for j in range(0, k, 37 if k > 250 else 1):
            flipped = bytearray(word)
            flipped[j] ^= 1
            flipped = bytes(flipped)
            assert _undo(_wi_decode, flipped, k, r) == _undo(reference_wi_decode, flipped, k, r), j

    @pytest.mark.parametrize(
        "k, r, message, word",
        [
            # the tail runs out twice at e == 0, the first time with a pointer
            # left that straddles left and the tail; the end marker comes last
            (13, 4, "000000000000", "0001101011110"),
            # at _NEAR = 0 a pointer straddles right and the last tail symbol
            (13, 4, "000000100000", "0010001011110"),
            # the end marker straddles left and the tail
            (12, 5, "00000000000", "000010100100"),
            (18, 5, "00001010000000000", "000010100011010100"),
            # the tail runs out at e == 0 with no marker to follow
            (12, 5, "00000100000", "100001001000"),
        ],
    )
    def test_named_words(self, k, r, message, word):
        data, u = BitSeq(word).tobytes(), BitSeq(message).tobytes()
        assert _wi_encode(u, k, r) == data
        assert _wi_decode(data, k, r) == reference_wi_decode(data, k, r) == u


class TestUndoScaling:
    def test_long_sparse_decode_within_3x_its_encode(self):
        # k = 10^6 at r = 20 (accepted) with P(1) = 1/16: about 35000
        # replacements. An undo that moves every symbol behind each insertion
        # point takes about 9x the encode here; best of three each.
        k, r = 10**6, 20
        message = _sparse_message(random.Random(1), k - 1, 1 / 16)

        def best(call):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                out = call()
                times.append(time.perf_counter() - start)
            return out, min(times)

        word, encode_s = best(lambda: _wi_encode(message, k, r))
        decoded, decode_s = best(lambda: _wi_decode(word, k, r))
        assert decoded == message
        assert decode_s < 3 * encode_s, (decode_s, encode_s)

    def test_pointer_index_stays_bounded(self):
        # at r = 20 there are 2^20 pointers; these words name over 10^4
        # distinct ones between them
        k, r = 10**5, 20
        rng = random.Random(2)
        messages = [bytes(k - 1)] + [_sparse_message(rng, k - 1, 1 / 16) for _ in range(3)]
        for message in messages:
            assert _wi_decode(_wi_encode(message, k, r), k, r) == message
            assert 0 < len(_POINTER_INDEX) <= _INDEX_SIZE


class TestNrzi:
    def test_known_vectors(self):
        x = BitSeq("1010001000101000011011000")
        y = BitSeq("1100001111001111101101111")
        assert nrzi_encode(x) == y
        assert nrzi_decode(y) == x

    def test_empty(self):
        assert nrzi_encode(BitSeq("")) == BitSeq("")
        assert nrzi_decode(BitSeq("")) == BitSeq("")

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=64))
    def test_round_trip(self, raw):
        s = BitSeq(raw)
        assert nrzi_decode(nrzi_encode(s)) == s
        assert nrzi_encode(nrzi_decode(s)) == s

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=300))
    def test_matches_running_xor(self, raw):
        # lengths past 256 take the packed prefix XOR through nine doublings
        running = [raw[0]] if raw else []
        for bit in raw[1:]:
            running.append(running[-1] ^ bit)
        assert nrzi_encode(BitSeq(raw)) == BitSeq(running)
        assert nrzi_decode(BitSeq(running)) == BitSeq(raw)

    @settings(max_examples=300)
    @given(st.sampled_from([*range(1, 71), 4015]), st.randoms(use_true_random=False))
    def test_matches_running_xor_at_short_lengths_and_n4015(self, n, rng):
        # n = 4015 is the codeword length at k = 4000, r = 12
        raw = [rng.getrandbits(1) for _ in range(n)]
        running = list(accumulate(raw, xor))
        assert nrzi_encode(BitSeq(raw)) == BitSeq(running)
        assert nrzi_decode(BitSeq(running)) == BitSeq(raw)


def _front_outcome(decode, word, k: int, r: int) -> str:
    try:
        return decode(word, k, r).hex()
    except DataError as exc:
        return f"{type(exc).__name__}: {exc}"


def _packed(data: bytes) -> int:
    return int(b"0" + data.translate(_TO_ASCII), 2)


class TestPackedFrontDecode:
    def test_zero_run_check_on_every_short_word(self):
        # NRZI's inverse of y holds 0^r exactly where the word 0y holds a run
        # of r + 1 equal symbols, r cut at len(y) + 1 as _wi_decode cuts it
        for size in range(15):
            for word in product((0, 1), repeat=size):
                y = bytes(word)
                x = _nrzi_decode(y)
                packed = _packed(y)
                for r in range(1, size + 3):
                    r = r if r <= size else size + 1
                    assert _run_over(packed, size + 1, r) == (b"\x00" * r in x), (y, r)

    @pytest.mark.parametrize("k", [5, 9, 12])
    def test_every_word_at_every_run_limit(self, k):
        # every k-symbol word, emitted or not, at every r FrontParams accepts
        # up to two past k, and at one no pattern can be built for: the same
        # message or the same error text
        limits = []
        for r in [*range(3, k + 3), 10**22]:
            try:
                FrontParams(k, r)
            except ValidationError:
                continue
            limits.append(r)
        assert limits
        for word in product((0, 1), repeat=k):
            y = bytes(word)
            for r in limits:
                want = _front_outcome(lambda w, k, r: _wi_decode(_nrzi_decode(w), k, r), y, k, r)
                assert _front_outcome(_front_decode_packed, _packed(y), k, r) == want

    @pytest.mark.parametrize("p_one", [1 / 2, 1 / 16])
    def test_encoder_outputs_and_random_words_at_k4000(self, p_one):
        k, r = 4000, 12
        rng = random.Random(f"packed front {p_one}")
        for _ in range(20):
            message = bytes(rng.random() < p_one for _ in range(k - 1))
            emitted = _nrzi_encode(_wi_encode(message, k, r))
            noise = bytes(rng.getrandbits(1) for _ in range(k))
            at = rng.randrange(k)
            # one symbol flipped makes a run of r + 1 or breaks a pointer
            flipped = emitted[:at] + bytes([emitted[at] ^ 1]) + emitted[at + 1 :]
            for y in (emitted, noise, flipped):
                want = _front_outcome(lambda w, k, r: _wi_decode(_nrzi_decode(w), k, r), y, k, r)
                assert _front_outcome(_front_decode_packed, _packed(y), k, r) == want
            assert _front_decode_packed(_packed(emitted), k, r) == message


class TestPipeline:
    def test_all_ones_alternates(self):
        fp = FrontParams(10, 4)
        assert str(front_encode(BitSeq("1") * 9, fp)) == "1010101010"

    def test_wrong_length_is_data_error(self):
        fp = FrontParams(10, 4)
        with pytest.raises(DataError):
            front_encode(BitSeq("1") * 10, fp)
        with pytest.raises(DataError):
            front_decode(BitSeq("1") * 9, fp)

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=(1 << 12) - 1))
    def test_sampled_round_trip_k13_r4(self, mask):
        fp = FrontParams(13, 4)
        u = BitSeq([(mask >> i) & 1 for i in range(12)])
        y = front_encode(u, fp)
        assert len(y) == 13
        assert is_rll(y, 4)
        assert front_decode(y, fp) == u

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=(1 << 29) - 1))
    def test_sampled_round_trip_k30_r5(self, mask):
        fp = FrontParams(30, 5)
        u = BitSeq([(mask >> i) & 1 for i in range(29)])
        y = front_encode(u, fp)
        assert len(y) == 30
        assert max_run_length(y) <= 5
        assert front_decode(y, fp) == u
