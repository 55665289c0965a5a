"""Parameter derivation, coefficient sequence, and the congruence embedder."""
import hashlib
import random
import tracemalloc
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllindel.bitseq import _FROM_ASCII, _TO_ASCII, BitSeq, _run_over, _run_patterns, is_rll
from rllindel.code import (
    _SLICED_FROM,
    CodeParams,
    _coefficients,
    _embed,
    _index_masks,
    _parity,
    _sliced_sum,
    coefficient_value,
    d_range,
    derive_params,
    embed_encode,
    encode_message,
    is_codeword,
    mu,
    params_text,
    parity_word,
    raw_params,
)
from rllindel.decoder import decode_message
from rllindel.errors import CodecError, DataError, InvariantError, ValidationError
from rllindel.front import FrontParams, nrzi_encode, wi_encode

from reference import reference_embed, reference_parity_word

EXAMPLE_CP = dict(k=14, r=4, d=6, b=31)
EXAMPLE_Y = BitSeq("10100001000010")
EXAMPLE_Z = BitSeq("001111010100001000010")


class TestDeriveParams:
    def test_example_dimensions(self):
        cp = derive_params(**EXAMPLE_CP)
        assert (cp.r_hat, cp.m, cp.n, cp.modulus) == (4, 7, 21, 32)

    def test_defaults(self):
        cp = derive_params(14, 4)
        assert cp.d == 7 and cp.b == 0

    def test_d_range(self):
        assert d_range(4) == (5, 7)
        assert d_range(5) == (9, 15)

    @pytest.mark.parametrize("r_hat", [3, 1, 0, -1])
    def test_d_range_rejects_a_small_shape(self, r_hat):
        with pytest.raises(ValidationError) as excinfo:
            d_range(r_hat)
        assert str(excinfo.value) == f"shape parameter must be at least 4 (got r_hat={r_hat})"

    def test_rejects_small_k(self):
        with pytest.raises(ValidationError, match="at least 7"):
            derive_params(6, 4)

    def test_rejects_r_below_r_hat(self):
        with pytest.raises(ValidationError, match="r_hat"):
            derive_params(14, 3)

    def test_rejects_r_above_n(self):
        # r = n is the largest limit that can bind
        assert derive_params(13, 20).n == 20
        with pytest.raises(ValidationError) as excinfo:
            derive_params(13, 21)
        assert str(excinfo.value) == "run limit r=21 exceeds the code length n=20"
        with pytest.raises(ValidationError, match="exceeds the code length n=20"):
            derive_params(13, 10**22)

    def test_rejects_d_outside_range(self):
        with pytest.raises(ValidationError):
            derive_params(14, 4, d=4)
        with pytest.raises(ValidationError):
            derive_params(14, 4, d=8)

    def test_rejects_excluded_triple(self):
        with pytest.raises(ValidationError, match=r"\(14, 4, 5\)"):
            derive_params(14, 4, d=5)
        # the same d is fine at a larger run limit
        assert derive_params(14, 5, d=5).d == 5

    def test_rejects_k_beyond_pipeline_bound(self):
        with pytest.raises(ValidationError, match="r_hat"):
            derive_params(16, 4)
        assert derive_params(16, 5).n == 24

    def test_rejects_b_outside_modulus(self):
        with pytest.raises(ValidationError):
            derive_params(14, 4, b=32)
        with pytest.raises(ValidationError):
            derive_params(14, 4, b=-1)

    def test_params_text_block(self):
        assert params_text(derive_params(**EXAMPLE_CP)) == (
            "k=14\nr_hat=4\nr=4\nd=6\nb=31\nm=7\nn=21\nmodulus=32\nd_min=5\nd_max=7\n"
        )


class TestCoefficients:
    @pytest.mark.parametrize("i", [0, -1])
    def test_index_below_1_is_rejected(self, i):
        with pytest.raises(ValidationError) as excinfo:
            coefficient_value(i, 4, 6)
        assert str(excinfo.value) == f"coefficient index must be at least 1 (got i={i})"

    @pytest.mark.parametrize("r_hat", range(4))
    def test_shape_below_4_is_rejected(self, r_hat):
        # at r_hat <= 1, index 1 would reach 1 << (i - 2), a negative shift
        with pytest.raises(ValidationError) as excinfo:
            coefficient_value(1, r_hat, 6)
        assert str(excinfo.value) == f"shape parameter must be at least 4 (got r_hat={r_hat})"

    def test_sequence_n21(self):
        cp = derive_params(14, 4, d=6)
        got = [coefficient_value(i, cp.r_hat, cp.d) for i in range(1, 23)]
        assert got == [1, 2, 4, 6, 8, 16] + list(range(17, 33))
        assert got[-1] == cp.modulus == 32

    def test_sequence_n38(self):
        cp = derive_params(30, 5, d=9)
        assert cp.n == 38
        got = [coefficient_value(i, cp.r_hat, cp.d) for i in range(1, 40)]
        assert got == [1, 2, 4, 8, 9, 16, 32] + list(range(33, 65))
        assert got[-1] == cp.modulus == 64

    def test_strictly_increasing(self):
        for r_hat in (4, 5, 6):
            lo, hi = d_range(r_hat)
            for d in range(lo, hi + 1):
                seq = [coefficient_value(i, r_hat, d) for i in range(1, 40)]
                assert all(a < b for a, b in zip(seq, seq[1:]))


class TestWeightedSum:
    def test_example_codeword(self):
        cp = derive_params(**EXAMPLE_CP)
        assert mu(cp, EXAMPLE_Z) == 127
        assert is_codeword(cp, EXAMPLE_Z)
        assert not is_codeword(cp, BitSeq("0") * 21)

    def test_works_on_raw_params(self):
        rp = raw_params(10, 4, 6, 0)
        assert rp.modulus == 21
        assert mu(rp, BitSeq("1" + "0" * 9)) == 1

    def test_length_mismatch(self):
        cp = derive_params(**EXAMPLE_CP)
        with pytest.raises(DataError):
            mu(cp, BitSeq("01"))

    def test_raw_params_validation(self):
        with pytest.raises(ValidationError):
            raw_params(10, 3, 6, 0)
        with pytest.raises(ValidationError):
            raw_params(10, 4, 4, 0)
        with pytest.raises(ValidationError):
            raw_params(10, 4, 6, 21)
        with pytest.raises(ValidationError) as excinfo:
            raw_params(0, 4, 6)
        assert str(excinfo.value) == "code length must be positive (got n=0)"

    def test_d_checked_without_building_2_to_the_r_hat(self):
        # an r_hat more than one above d's bit length names the range by its
        # powers of two; one within it keeps the numbers
        with pytest.raises(ValidationError) as excinfo:
            raw_params(5, 10**20, 5)
        assert str(excinfo.value) == (
            f"free coefficient d=5 is outside [2^{10**20 - 2} + 1, 2^{10**20 - 1} - 1] "
            f"for r_hat={10**20}"
        )
        with pytest.raises(ValidationError, match=r"outside \[2\^3 \+ 1, 2\^4 - 1\]"):
            raw_params(5, 5, 3)
        with pytest.raises(ValidationError, match=r"outside \[9, 15\]"):
            raw_params(5, 5, 4)
        assert raw_params(5, 5, 9).d == 9

    def test_raw_params_short_lengths(self):
        # below n = r_hat + 1 the modulus a_(n+1) is not 2^r_hat + k + 2
        assert [raw_params(n, 4, 6).modulus for n in range(1, 8)] == [2, 4, 6, 8, 16, 17, 18]

    def test_raw_params_agree_with_derive_params(self):
        r_hat_seen = set()
        for k in range(7, 63):
            cp = derive_params(k, 6)
            r_hat_seen.add(cp.r_hat)
            d_lo, d_hi = d_range(cp.r_hat)
            for d in range(d_lo, d_hi + 1):
                for b in (0, cp.modulus // 2, cp.modulus - 1):
                    full = derive_params(k, 6, d, b)
                    raw = raw_params(k + cp.r_hat + 3, cp.r_hat, d, b)
                    assert (raw.n, raw.r_hat, raw.d, raw.b, raw.modulus) == (
                        full.n, full.r_hat, full.d, full.b, full.modulus
                    )
        assert r_hat_seen == {4, 5, 6}


def _reference_sum(cp, data):
    """The compress pass that _sliced_sum replaces from _SLICED_FROM symbols on."""
    return sum(compress(_coefficients(cp.n, cp.r_hat, cp.d), data))


def _check_sliced(cp, data, start=0):
    # sigma weighs the message part behind start zero parity symbols
    data = bytes(start) + data
    packed = int(data.translate(_TO_ASCII), 2)
    assert _sliced_sum(cp, data, packed) == _reference_sum(cp, data)


def _summed_lengths(cp):
    """(data length, start) pairs the codec sums: words one indel off, codewords, sigma."""
    pairs = [(cp.n - 1, 0), (cp.n, 0), (cp.n + 1, 0), (cp.k, cp.m)]
    return [(length, start) for length, start in pairs if length >= 1]


# code lengths straddling the one threshold, lengths whose n - 1, n and n + 1
# straddle the mask widths 2^8 and 2^12, and the longest benchmarked block
STRADDLING = [*range(_SLICED_FROM - 2, _SLICED_FROM + 3), 256, 4015, 4096]


class TestSlicedSum:
    """_sliced_sum against sum(compress(coefficients, data))."""

    @pytest.mark.parametrize("r_hat", [4, 5, 6])
    def test_every_length_to_64(self, r_hat):
        rng = random.Random(r_hat)
        for d in d_range(r_hat):
            # and the STRADDLING code lengths, among them 256 and 4096, whose
            # n - 1 and n + 1 take mask sets of two widths
            for n in (*range(1, 65), *STRADDLING):
                cp = raw_params(n, r_hat, d)
                for length, start in _summed_lengths(cp):
                    for data in (
                        b"\x00" * length,
                        b"\x01" * length,
                        bytes(rng.getrandbits(1) for _ in range(length)),
                    ):
                        _check_sliced(cp, data, start)

    @pytest.mark.parametrize("r_hat", [4, 5, 6, 7])
    def test_every_word_at_the_head_boundary(self, r_hat):
        # the head ends at length r_hat + 1; at r_hat + 2 one affine symbol follows
        d = d_range(r_hat)[0]
        for length in (r_hat + 1, r_hat + 2):
            for n in (length - 1, length, length + 1):
                cp = raw_params(n, r_hat, d)
                for mask in range(1 << length):
                    _check_sliced(cp, format(mask, f"0{length}b").encode().translate(_FROM_ASCII))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_straddling_the_thresholds(self, data):
        n = data.draw(st.sampled_from(STRADDLING))
        r_hat = data.draw(st.integers(min_value=4, max_value=12))
        cp = raw_params(n, r_hat, data.draw(st.integers(*d_range(r_hat))))
        length, start = data.draw(st.sampled_from(_summed_lengths(cp)))
        mask = data.draw(st.integers(min_value=0, max_value=(1 << length) - 1))
        _check_sliced(cp, format(mask, f"0{length}b").encode().translate(_FROM_ASCII), start)

    def test_mu_and_sigma_either_side_of_the_threshold(self):
        # at r = 8, k = 186 .. 205 gives n = 197 .. 216: mu and the parity
        # sigma, which both weigh n symbols, switch to the sliced sum at n = 200
        rng = random.Random(8)
        for k in range(_SLICED_FROM - 14, _SLICED_FROM + 6):
            cp = derive_params(k, 8, b=rng.randrange(256 + k + 2))
            y = BitSeq(bytes(rng.getrandbits(1) for _ in range(k)))
            z = BitSeq(bytes(rng.getrandbits(1) for _ in range(cp.n)))
            assert mu(cp, z) == _reference_sum(cp, z.tobytes())
            for p_rhat in (0, 1):
                for p_m in (0, 1):
                    w = parity_word(cp, p_rhat, p_m, y) + y
                    assert _reference_sum(cp, w.tobytes()) % cp.modulus == cp.b

    def test_memory_follows_the_head_not_n(self):
        # k = 10^6 at r = 20 (accepted): the sliced sum packs the word and
        # reads r_hat + 2 coefficients, so no table of n coefficients (about
        # 40 bytes a symbol) is built
        cp = derive_params(10**6, 20)
        z = BitSeq(b"\x01" * cp.n)
        _coefficients.cache_clear()
        _index_masks.cache_clear()
        tracemalloc.start()
        try:
            weight = mu(cp, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * cp.n
        assert weight == sum(coefficient_value(i, cp.r_hat, cp.d) for i in range(1, cp.n + 1))

    def test_mask_cache_stays_bounded(self):
        # one encode and three decodes (intact, one deletion, one insertion) at
        # 40 long lengths weigh 120 word lengths; the cache keeps one mask set
        # per bit width among them, and repeat decodes build no set
        _index_masks.cache_clear()
        rng = random.Random(40)
        widths = set()
        for k in range(200, 4200, 100):
            cp = derive_params(k, 13)
            u = BitSeq(bytes(rng.getrandbits(1) for _ in range(k - 1)))
            z = encode_message(u, k, 13)
            received = (z, z[:7] + z[8:], z[:7] + BitSeq([1 - z[7]]) + z[7:])
            for word in received:
                assert decode_message(cp, word) == u
                widths.add((len(word) - 1).bit_length())
            misses = _index_masks.cache_info().misses
            for word in received:
                assert decode_message(cp, word) == u
            assert _index_masks.cache_info().misses == misses
            assert _index_masks.cache_info().currsize == len(widths)

    @pytest.mark.parametrize("k, sets", [(4000, 1), (4081, 2)])
    def test_one_mask_set_per_bit_width(self, k, sets):
        # n = 4015: n - 1, n and n + 1 all have 12 bits, so one set serves
        # them; n = 4096: n + 1 = 4097 has 13 bits and takes a second set
        cp = derive_params(k, 12)
        rng = random.Random(k)
        u = BitSeq(bytes(rng.getrandbits(1) for _ in range(k - 1)))
        _index_masks.cache_clear()
        z = encode_message(u, k, 12)
        for word in (z, z[:2000] + z[2001:], z[:3000] + BitSeq("1") + z[3000:]):
            assert decode_message(cp, word) == u
        assert _index_masks.cache_info().currsize == sets


class TestParity:
    def test_example_both_passes(self):
        cp = derive_params(**EXAMPLE_CP)
        assert str(parity_word(cp, 0, 0, EXAMPLE_Y)) == "0100000"
        assert str(parity_word(cp, 1, 0, EXAMPLE_Y)) == "0011110"

    @pytest.mark.parametrize("r_hat", range(4, 13))
    def test_one_format_matches_the_splice(self, r_hat):
        # the shortest and longest k of the band; at the longest the modulus
        # is 2^(r_hat + 1), so q uses all r_hat + 1 of its symbols
        for k in ((1 << (r_hat - 1)) - 1, (1 << r_hat) - 2):
            cp = derive_params(k, r_hat)
            for sigma in range(cp.modulus):
                for p_rhat in (0, 1):
                    for p_m in (0, 1):
                        assert _parity(cp, p_rhat, p_m, sigma) == reference_parity_word(
                            cp, p_rhat, p_m, sigma
                        )

    def test_overwide_residue_is_rejected_as_before(self):
        # an unchecked bundle whose modulus 58 exceeds 2^(r_hat + 1) = 32
        cp = CodeParams.unchecked(40, 4, 4, 6, 57)
        y = BitSeq(b"\x00" * 40)
        message = "value x=57 is outside \\[0, 2\\^5 - 1\\]"
        with pytest.raises(DataError, match=message):
            parity_word(cp, 0, 0, y)

    def test_parity_symbols_must_be_bits(self):
        cp = derive_params(**EXAMPLE_CP)
        with pytest.raises(DataError, match="parity symbols must be 0 or 1"):
            parity_word(cp, 2, 0, EXAMPLE_Y)

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=(1 << 14) - 1), st.integers(min_value=0, max_value=31))
    def test_parity_word_always_solves(self, mask, b):
        y = BitSeq([(mask >> i) & 1 for i in range(14)])
        cp = derive_params(14, 4, d=6, b=b)
        for p_rhat in (0, 1):
            for p_m in (0, 1):
                z = parity_word(cp, p_rhat, p_m, y) + y
                assert mu(cp, z) % cp.modulus == b


class TestEmbed:
    def test_example_bit_exact(self):
        cp = derive_params(**EXAMPLE_CP)
        assert embed_encode(cp, EXAMPLE_Y) == EXAMPLE_Z

    def test_output_always_in_code(self):
        cp = derive_params(13, 4, d=6, b=9)
        y = BitSeq("1100110011001")
        z = embed_encode(cp, y)
        assert is_codeword(cp, z) and is_rll(z, 4)
        assert z[cp.m :] == y

    def test_rejects_wrong_length(self):
        cp = derive_params(**EXAMPLE_CP)
        with pytest.raises(DataError):
            embed_encode(cp, BitSeq("101"))
        with pytest.raises(DataError) as excinfo:
            parity_word(cp, 0, 0, EXAMPLE_Y[1:])
        assert str(excinfo.value) == "message-part length 13 != k = 14"

    def test_rejects_non_rll_message_part(self):
        cp = derive_params(**EXAMPLE_CP)
        with pytest.raises(DataError):
            embed_encode(cp, BitSeq("11111" + "0" * 9))

    def test_excluded_triple_can_defeat_fallback(self):
        # regression: reachable only by skipping derivation validation
        cp = CodeParams.unchecked(14, 4, 4, 5, 20)
        assert (cp.m, cp.n, cp.modulus) == (7, 21, 32)
        with pytest.raises(InvariantError, match="fallback"):
            embed_encode(cp, BitSeq("10001100110100"))

    def test_separator_breaks_boundary_run(self):
        cp = derive_params(14, 4, d=6, b=0)
        for y in (BitSeq("10100001000010"), BitSeq("01011110111101")):
            z = embed_encode(cp, y)
            assert z[cp.m - 1] != y[0]


def _outcome(call, *args):
    """The codeword bytes a call returns, or the class and text of its error."""
    try:
        result = call(*args)
    except CodecError as exc:
        return type(exc), str(exc)
    return result if isinstance(result, bytes) else result.tobytes()


def _planted(k, symbol, length, where):
    """An alternating k-symbol word with one run of length symbols at the start, middle or end.

    Its other runs are at most 2 symbols long.
    """
    start = {"first": 0, "middle": (k - length) // 2, "last": k - length}[where]
    y = bytearray(i & 1 for i in range(k))
    y[start : start + length] = bytes((symbol,)) * length
    # the symbols either side close the run
    if start:
        y[start - 1] = symbol ^ 1
    if start + length < k:
        y[start + length] = symbol ^ 1
    return bytes(y)


# (k, r_hat) at code lengths n = 199, 200, 201, 262 and 4015: below, at and
# above _SLICED_FROM, from which encode_message packs the word once for NRZI
# and the weighted sum, the campaign's n and the longest benchmarked block
CROSSOVER = [(188, 8), (189, 8), (190, 8), (251, 8), (4000, 12)]


class TestPackedRunCheck:
    """embed_encode's run check on the packed word against the byte searches and the reference embed.

    _embed checks no run limit, so it is held to the reference only on message
    parts within it; encode_message's codewords are run-limited without a check.
    """

    @pytest.mark.parametrize("k", [199, 200, 4000])
    def test_planted_runs(self, k):
        r_hat = (k + 1).bit_length()
        for r in (r_hat, r_hat + 5):
            cp = derive_params(k, r, b=k % 97)
            zeros, ones = _run_patterns(r, cp.n)
            for symbol in (0, 1):
                for where in ("first", "middle", "last"):
                    for length in (r, r + 1):
                        y = _planted(k, symbol, length, where)
                        packed = int(y.translate(_TO_ASCII), 2)
                        assert _run_over(packed, k, r) == (zeros in y or ones in y) == (length > r)
                        want = _outcome(reference_embed, cp, y)
                        assert _outcome(embed_encode, cp, BitSeq(y)) == want
                        if length > r:
                            assert want == (
                                DataError,
                                f"message part violates the run-length limit r={r}",
                            )
                        else:
                            assert _outcome(_embed, cp, y, packed) == want

    @pytest.mark.parametrize("k, r_hat", CROSSOVER)
    def test_embed_encode_at_the_crossover(self, k, r_hat):
        # r >= k cannot bind a k-symbol message part; r = k - 1 rejects a constant one
        rng = random.Random(k)
        for r in (r_hat, r_hat + 3, k - 1, k, k + r_hat + 3):
            cp = derive_params(k, r, b=rng.randrange(1 << r_hat))
            words = [bytes(k), bytes((1,)) * k]
            words += [bytes(rng.getrandbits(1) for _ in range(k)) for _ in range(4)]
            words += [_planted(k, 1, min(r + 1, k), "middle"), _planted(k, 0, min(r, k), "last")]
            for y in words:
                assert _outcome(embed_encode, cp, BitSeq(y)) == _outcome(reference_embed, cp, y)

    @pytest.mark.parametrize("k, r_hat", CROSSOVER)
    def test_encode_message_at_the_crossover(self, k, r_hat):
        rng = random.Random(k)
        for r in (r_hat, r_hat + 3, k - 1, k, k + r_hat + 3):
            cp = derive_params(k, r, b=rng.randrange(1 << r_hat))
            fp = FrontParams(k, r)
            messages = [BitSeq(bytes(k - 1)), BitSeq(bytes((1,)) * (k - 1))]
            messages += [BitSeq(bytes(rng.getrandbits(1) for _ in range(k - 1))) for _ in range(3)]
            for u in messages:
                y = nrzi_encode(wi_encode(u, fp)).tobytes()
                z = encode_message(u, k, r, cp.d, cp.b)
                assert z.tobytes() == reference_embed(cp, y) and is_rll(z, r)


class TestPipelineEncode:
    def test_message_round_trip_shape(self):
        z = encode_message(BitSeq("010011000101"), 13, 4)
        cp = derive_params(13, 4)
        assert len(z) == cp.n
        assert is_codeword(cp, z) and is_rll(z, 4)

    @pytest.mark.parametrize("d", [6, 7])
    def test_round_trip_at_k14_r4(self, d):
        # the front end's top length at r = 4, the one pair derive_params
        # accepts there; (14, 4, 5) stays excluded
        cp = derive_params(14, 4, d)
        for message in ("0" * 13, "1" * 13, "0100110001011", "1010001100001"):
            u = BitSeq(message)
            z = encode_message(u, 14, 4, d)
            assert is_codeword(cp, z) and is_rll(z, 4)
            assert decode_message(cp, z) == u
            for i in range(cp.n):
                assert decode_message(cp, z[:i] + z[i + 1 :]) == u

    def test_long_word_is_packed_once(self):
        # k = 10^6 at r = 20: NRZI and the weighted sum share one packed int,
        # where packing NRZI's bytes a second time peaked at about 4.2 bytes a
        # symbol; the first encode fills the mask and pointer caches
        k, r = 10**6, 20
        rng = random.Random(10**6)
        u = BitSeq(format(rng.getrandbits(k - 1), f"0{k - 1}b").encode().translate(_FROM_ASCII))
        encode_message(u, k, r)
        tracemalloc.start()
        try:
            z = encode_message(u, k, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * k
        assert z == embed_encode(derive_params(k, r), nrzi_encode(wi_encode(u, FrontParams(k, r))))


def _raises_twice(call, *args, **kwargs) -> str:
    """Call twice; both calls must raise ValidationError with the same text, which is returned."""
    texts = []
    for _ in range(2):
        with pytest.raises(ValidationError) as info:
            call(*args, **kwargs)
        texts.append(str(info.value))
    assert texts[0] == texts[1]
    return texts[0]


class TestMemoizedValidation:
    """derive_params is memoized; its rejections are not."""

    def test_derive_params_rejects_every_time(self):
        assert "r_hat" in _raises_twice(derive_params, 14, 3)
        assert "at least 7" in _raises_twice(derive_params, 6, 4)
        assert "free coefficient" in _raises_twice(derive_params, 14, 4, d=4)
        assert "residue" in _raises_twice(derive_params, 14, 4, b=32)
        assert derive_params(14, 4) == derive_params(14, 4)

    def test_encode_message_rejects_every_time(self):
        u = BitSeq("1" * 13)
        # derive_params is the one range check: (14, 4) with the default d is served
        assert len(encode_message(u, 14, 4)) == 21
        assert "(14, 4, 5)" in _raises_twice(encode_message, u, 14, 4, d=5)
        assert "free coefficient" in _raises_twice(encode_message, u, 14, 4, d=8)
        assert "residue" in _raises_twice(encode_message, u, 14, 4, b=32)
        z = encode_message(BitSeq("1" * 12), 13, 4)
        assert decode_message(derive_params(13, 4), z) == BitSeq("1" * 12)

    def test_decode_message_serves_every_derived_bundle(self):
        # the bundle is the one range check; at (14, 4) the front end's
        # greedy count parse misparses 164 of the 8192 messages
        cp = derive_params(14, 4)
        for u in (BitSeq("0" * 13), BitSeq("1010001100001")):
            assert decode_message(cp, encode_message(u, 14, 4)) == u
        u = BitSeq("0" * 12)
        cp = derive_params(13, 4)
        assert decode_message(cp, encode_message(u, 13, 4)) == u


# sha256 over the text of every codeword, one per line, for seeded messages;
# the values were computed with the restart-from-symbol-0 front end
GOLDEN = [
    (4000, 12, 1 / 16, 20, "bb2c92ced6578fd8c29ce0570eb9046c4e44132045bce0823df4a02d3c80c305"),
    (4000, 12, 1 / 2, 20, "c5e337e80c99326f4972852b044d966a67e676a6a62c93443c20f1944d376e9b"),
    (250, 8, 1 / 2, 200, "f874f67ce21787b899508cc6ed88ed5f1ef1c4867273e7719a3682e836606673"),
    (189, 8, 1 / 2, 200, "397b86b535cd3c67890dd8b78c61ce9f8e583d80428851b2d4cfc6a348a6ad07"),
    (60, 6, 1 / 2, 500, "5a17c5141cdb4177f7a484ab63f5768e04abda1205e55b4a02141579b9ab3c80"),
]


@pytest.mark.parametrize("k, r, p_one, count, digest", GOLDEN)
def test_golden_codeword_digest(k, r, p_one, count, digest):
    rng = random.Random(f"golden {k} {r} {p_one}")
    h = hashlib.sha256()
    for _ in range(count):
        u = BitSeq(bytes(rng.random() < p_one for _ in range(k - 1)))
        h.update(str(encode_message(u, k, r)).encode() + b"\n")
    assert h.hexdigest() == digest


# as GOLDEN, at a weight d below the default and a nonzero residue b
GOLDEN_AT_D_AND_B = [
    (14, 4, 6, 9, 500, "b85cc04976eafcd56ddf8f0c2ba07ad76ca27b4d88dcc23a8942e7121f634eaf"),
    (60, 6, 17, 100, 500, "99e223affab7e9af8c16bb6d16001e8d48a3e73b43518a75b2de26aeea490878"),
    (250, 8, 65, 311, 200, "93265a6e3d2693efeebe6aa33c9e1c89d2a6990af321f4ae00ff9bfcc57906a1"),
]


@pytest.mark.parametrize("k, r, d, b, count, digest", GOLDEN_AT_D_AND_B)
def test_golden_codeword_digest_at_d_and_b(k, r, d, b, count, digest):
    rng = random.Random(f"golden {k} {r} {d} {b}")
    h = hashlib.sha256()
    for _ in range(count):
        u = BitSeq(bytes(rng.random() < 0.5 for _ in range(k - 1)))
        h.update(str(encode_message(u, k, r, d, b)).encode() + b"\n")
    assert h.hexdigest() == digest
