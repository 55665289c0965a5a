"""Single-indel correction and full message decoding."""
import hashlib
import random
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllindel.bitseq import BitSeq
from rllindel.channel import DELETION, INSERTION, ChannelEvent, apply_event, random_event
from rllindel.code import _embed, d_range, derive_params, embed_encode, encode_message, raw_params
from rllindel import decoder
from rllindel.decoder import _PACKED_FROM, _correct, _first, candidates, correct, decode_message
from rllindel.errors import CodecError, DataError, UncorrectableError, ValidationError
from rllindel.front import FrontParams, front_encode
from rllindel.oracle import enumerate_codewords

from reference import reference_candidates

CP = derive_params(13, 4, d=6, b=9)
FP = FrontParams(13, 4)
U = BitSeq("010011000101")
Z = embed_encode(CP, front_encode(U, FP))


class TestCorrect:
    def test_clean_codeword_is_identity(self):
        assert correct(CP, Z) == Z

    def test_clean_noncodeword_is_uncorrectable(self):
        w = Z[:-1] + BitSeq([Z[-1] ^ 1])
        with pytest.raises(UncorrectableError, match="full length"):
            correct(CP, w)

    def test_every_deletion_recovers(self):
        for i in range(len(Z)):
            assert correct(CP, Z[:i] + Z[i + 1 :]) == Z

    def test_every_insertion_recovers(self):
        for i in range(len(Z) + 1):
            for symbol in (0, 1):
                w = Z[:i] + BitSeq([symbol]) + Z[i:]
                assert correct(CP, w) == Z

    def test_length_gate(self):
        with pytest.raises(DataError, match="within one symbol"):
            correct(CP, Z[:-2])
        with pytest.raises(DataError, match="within one symbol"):
            correct(CP, Z + BitSeq("01"))

    def test_unexplainable_short_word(self):
        cp = derive_params(14, 4, d=6, b=3)
        with pytest.raises(UncorrectableError, match="no candidate"):
            correct(cp, BitSeq("0" * 20))

    @pytest.mark.parametrize("r_hat", [4, 5])
    def test_codes_shorter_than_the_head_reject_indels(self, r_hat):
        # the locator's head spans r_hat + 1 symbols, so it serves n >= r_hat + 2
        for n in range(1, r_hat + 2):
            cp = raw_params(n, r_hat, d_range(r_hat)[0])
            for length in (n - 1, n + 1):
                with pytest.raises(
                    ValidationError, match=rf"n >= r_hat \+ 2 = {r_hat + 2} \(got n={n}\)"
                ):
                    correct(cp, BitSeq("0" * length))
            # an intact word never reaches the locator
            assert correct(cp, BitSeq("0" * n)) == BitSeq("0" * n)


class TestDecodeMessage:
    def test_round_trip_clean(self):
        assert decode_message(CP, Z) == U

    def test_round_trip_through_events(self):
        for event in (
            ChannelEvent(DELETION, 1),
            ChannelEvent(DELETION, len(Z)),
            ChannelEvent(INSERTION, 1, 1),
            ChannelEvent(INSERTION, len(Z) + 1, 0),
            ChannelEvent(INSERTION, 9, 0),
        ):
            assert decode_message(CP, apply_event(Z, event)) == U

    @settings(max_examples=150)
    @given(
        st.integers(min_value=0, max_value=(1 << 12) - 1),
        st.integers(min_value=0),
    )
    def test_random_message_random_event(self, mask, seed):
        u = BitSeq([(mask >> i) & 1 for i in range(12)])
        z = encode_message(u, 13, 4, d=6, b=9)
        event = random_event(len(z), seed)
        assert decode_message(CP, apply_event(z, event)) == u


# (k, r) pairs spanning r_hat = 4 .. 12, each with the smallest usable run limit;
# at k = 188 the received lengths n - 1 = 198 and n + 1 = 200 straddle the
# length from which code._weight switches to the sliced weighted sum
SIZES = [(7, 4), (13, 4), (60, 6), (138, 8), (188, 8), (250, 8), (1000, 10), (4000, 12)]


def _random_params(k, r, rng):
    base = derive_params(k, r)
    d_lo, d_hi = d_range(base.r_hat)
    return derive_params(k, r, d=rng.randint(d_lo, d_hi), b=rng.randrange(base.modulus))


def _one_indel_away(z):
    """Every distinct word one deletion or one insertion away from the word z."""
    words = {z[:i] + z[i + 1 :] for i in range(len(z))}
    return words | {z[:i] + s + z[i:] for i in range(len(z) + 1) for s in (b"\x00", b"\x01")}


def _check_against_reference(cp, data):
    """correct and its candidate set agree with the reference scan on one word."""
    found = reference_candidates(cp, data)
    assert candidates(cp, data) == found
    # the single-deletion balls of distinct codewords are disjoint
    assert len(found) <= 1
    received = BitSeq(data)
    if found:
        assert correct(cp, received) == BitSeq(found.pop())
    else:
        with pytest.raises(UncorrectableError, match="no candidate"):
            correct(cp, received)


class TestLocatorMatchesReference:
    @pytest.mark.parametrize("k, r", SIZES)
    def test_every_single_indel_of_sampled_codewords(self, k, r):
        rng = random.Random(k)
        for _ in range(max(1, 60 // k)):
            cp = _random_params(k, r, rng)
            u = BitSeq([rng.getrandbits(1) for _ in range(k - 1)])
            z = encode_message(u, k, r, d=cp.d, b=cp.b).tobytes()
            for data in _one_indel_away(z):
                assert candidates(cp, data) == reference_candidates(cp, data) == {z}
                assert correct(cp, BitSeq(data)) == BitSeq(z)

    @pytest.mark.parametrize("p_one", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("k, r", SIZES)
    def test_random_words(self, k, r, p_one):
        # mostly out of model: most such words are no single indel away from any codeword
        rng = random.Random(f"{k} {p_one}")
        for _ in range(max(10, 2000 // k)):
            cp = _random_params(k, r, rng)
            for length in (cp.n - 1, cp.n + 1):
                data = bytes(rng.random() < p_one for _ in range(length))
                _check_against_reference(cp, data)

    @pytest.mark.parametrize("b", [0, 4, 24])
    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_all_words_one_symbol_off_at_k7(self, d, b):
        cp = derive_params(7, 4, d=d, b=b)
        # brute force: the deletion and insertion balls of every codeword
        explains: dict[bytes, set[bytes]] = {}
        for z in enumerate_codewords(cp):
            for data in _one_indel_away(z.tobytes()):
                explains.setdefault(data, set()).add(z.tobytes())
        for length in (cp.n - 1, cp.n + 1):
            for word in product((0, 1), repeat=length):
                data = bytes(word)
                found = reference_candidates(cp, data)
                assert found == explains.get(data, set())
                assert candidates(cp, data) == found

    @pytest.mark.parametrize("n", range(6, 14))
    def test_all_words_one_symbol_off_below_the_encoder_minimum(self, n):
        # raw codes from the shortest the locator serves, n = r_hat + 2, up to
        # just below the encoder's n = 14
        cp = raw_params(n, 4, d=6, b=5)
        for length in (n - 1, n + 1):
            for word in product((0, 1), repeat=length):
                _check_against_reference(cp, bytes(word))

    def test_removed_weight_can_equal_the_modulus(self):
        # removing the final 1 of a trailing run of ones removes a_(n+1) = M,
        # which the congruence sees as 0
        assert correct(derive_params(7, 4), BitSeq("0" * 14 + "1")) == BitSeq("0" * 14)
        cp = derive_params(7, 4, d=7, b=4)
        assert correct(cp, BitSeq("000000001111111")) == BitSeq("00000000111111")


def _unpacked(z: int, n: int) -> bytes:
    return bytes(map(int, format(z, f"0{n}b")))


def _check_packed_corrector(cp, data):
    """_correct's packed word, unpacked, is the one word of candidates and the reference."""
    found = reference_candidates(cp, data)
    assert candidates(cp, data) == found
    if len(found) == 1:
        z = _correct(cp, data, packed=True)
        assert z.bit_length() <= cp.n
        assert _unpacked(z, cp.n) == found.pop() == _correct(cp, data)
    else:
        assert not found
        with pytest.raises(UncorrectableError, match="no candidate"):
            _correct(cp, data, packed=True)


# code lengths straddling decoder._PACKED_FROM, and 4096, where n - 1 and
# n + 1 straddle a power of two
PACKED_LENGTHS = [(886, 10), (887, 10), (888, 10), (4081, 12)]


class TestPackedCorrector:
    def test_lengths_straddle_the_crossover(self):
        assert [k + 13 for k, _ in PACKED_LENGTHS[:3]] == [_PACKED_FROM - 1, _PACKED_FROM, _PACKED_FROM + 1]
        assert derive_params(4081, 12).n == 4096

    @pytest.mark.parametrize("k, r", PACKED_LENGTHS)
    def test_sampled_indels(self, k, r):
        # head edits, before index r_hat + 1, one symbol gained or lost at
        # either end, and sampled edits in the affine region
        rng = random.Random(f"packed {k}")
        for _ in range(3):
            cp = _random_params(k, r, rng)
            z = encode_message(BitSeq(bytes(rng.getrandbits(1) for _ in range(k - 1))), k, r, cp.d, cp.b)
            z = z.tobytes()
            n = cp.n
            places = [*range(cp.r_hat + 3), n - 1, n, *rng.sample(range(n), 20)]
            for i in places:
                if i < n:
                    _check_packed_corrector(cp, z[:i] + z[i + 1 :])
                for symbol in (b"\x00", b"\x01"):
                    _check_packed_corrector(cp, z[:i] + symbol + z[i:])
            assert _correct(cp, z, packed=True) == int(z.translate(bytes.maketrans(b"\x00\x01", b"01")), 2)

    @pytest.mark.parametrize("k, r", PACKED_LENGTHS)
    def test_random_words(self, k, r):
        rng = random.Random(f"packed random {k}")
        for _ in range(10):
            cp = _random_params(k, r, rng)
            for length in (cp.n - 1, cp.n + 1):
                _check_packed_corrector(cp, bytes(rng.getrandbits(1) for _ in range(length)))

    def test_removed_weight_can_equal_the_modulus(self):
        for cp, data in (
            (derive_params(7, 4), b"\x00" * 14 + b"\x01"),
            (derive_params(7, 4, d=7, b=4), bytes(map(int, "000000001111111"))),
        ):
            _check_packed_corrector(cp, data)
            assert _unpacked(_correct(cp, data, packed=True), cp.n) == data[:-1]

    def test_same_errors_as_the_bytes_corrector(self):
        cp = derive_params(887, 10)
        # full length but no codeword, and two symbols short and over
        for data in (b"\x01" + bytes(cp.n - 1), bytes(cp.n - 2), b"\x01" * (cp.n + 2)):
            with pytest.raises(DataError) as want:
                _correct(cp, data)
            with pytest.raises(type(want.value), match=f"^{want.value}$"):
                _correct(cp, data, packed=True)


def _packed(data: bytes) -> int:
    """data packed one bit per symbol, data[0] highest, as the decoder packs it."""
    return int("0" + "".join(map(str, data)), 2)


def _linear_first(data: bytes, symbol: int, lo: int, hi: int) -> dict[int, int]:
    """Each count c to the smallest j in [lo, hi] with data[:j].count(symbol) == c, by a scan."""
    count = data[:lo].count(symbol)
    first = {count: lo}
    for j in range(lo, hi):
        count += data[j] == symbol
        first.setdefault(count, j + 1)
    return first


class _CountingInt(int):
    """An int that counts the right shifts taken of it: one per locator probe."""

    shifts = 0

    def __rshift__(self, other):
        _CountingInt.shifts += 1
        return int.__rshift__(self, other)


def _probe_bound(width: int) -> int:
    # a midpoint follows every interpolated probe and halves the bracket
    return 2 * (width - 1).bit_length() if width else 0


def _adversarial_words(n: int) -> dict[str, bytes]:
    half = n // 2
    words = {"zeros": bytes(n), "ones": b"\x01" * n}
    for a in (1, half, n - 1):
        words[f"0^{a} 1^{n - a}"] = bytes(a) + b"\x01" * (n - a)
        words[f"1^{a} 0^{n - a}"] = b"\x01" * a + bytes(n - a)
    words["alternating"] = (b"\x00\x01" * half + b"\x00")[:n]
    rng = random.Random(n)
    words["P(1) = 1/64"] = bytes(rng.random() < 1 / 64 for _ in range(n))
    return words


# n = 4015 is the encoder's length at k = 4000, whose affine region starts at index 13
ADVERSARIAL = _adversarial_words(4015)


def _check_first(data: bytes, brackets, targets) -> None:
    """_first against the linear scan, within the probe bound, at each bracket and target."""
    n = len(data)
    packed = _CountingInt(_packed(data))
    for symbol in (0, 1):
        counts = [0, *accumulate(x == symbol for x in data)]
        for lo, hi in brackets:
            first = _linear_first(data, symbol, lo, hi)
            for target in targets:
                _CountingInt.shifts = 0
                got = _first(packed, n, symbol, target, lo, hi, counts[lo], counts[hi])
                assert got == first.get(target, -1), (symbol, target, lo, hi)
                assert _CountingInt.shifts <= _probe_bound(hi - lo)


class TestFirst:
    @pytest.mark.parametrize("n", range(11))
    def test_every_short_word_bracket_and_target(self, n):
        brackets = [(lo, hi) for hi in range(n + 1) for lo in range(hi + 1)]
        for word in product((0, 1), repeat=n):
            _check_first(bytes(word), brackets, range(-1, n + 2))

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_adversarial_long_words(self, name):
        data = ADVERSARIAL[name]
        n = len(data)
        _check_first(data, [(0, n), (13, n), (13, n - 1), (1000, 1001)], range(-1, n + 2))

    def test_probes_on_words_one_indel_from_random_codewords(self, monkeypatch):
        # a bisection makes 12.8 probes a search here, and this search about 3
        searches = 0

        def counted(packed, *args):
            nonlocal searches
            searches += 1
            return _first(_CountingInt(packed), *args)

        monkeypatch.setattr(decoder, "_first", counted)
        _CountingInt.shifts = 0
        rng = random.Random(4000)
        cp = derive_params(4000, 12)
        for _ in range(100):
            u = BitSeq([rng.getrandbits(1) for _ in range(3999)])
            z = encode_message(u, 4000, 12)
            received = apply_event(z, random_event(len(z), rng.getrandbits(63)))
            assert correct(cp, received) == z
        assert _CountingInt.shifts / searches < 4.5


# (n, k, sha256) for decode_message's outcomes on seeded words: one line per
# word, the decoded message's text or `ErrorClass: message`. The digests were
# taken with decode_message on bytes at every length, before it carried long
# words packed one bit per symbol; n = 899, 900 and 901 straddle the length
# from which it does (decoder._PACKED_FROM).
PINNED_OUTCOMES = [
    (69, 60, "3157da1701dee9e3a83eb3a292509f994b76b66e42830ca3637e84977a2b8ae2"),
    (262, 251, "859f6799eddcde33dc60426505e6f91a759f501e233a55b153fa93bec8d0f0f4"),
    (899, 886, "89539cc8305e252a3f34c4079524a4abd84326fbb3f2b8acd6cc2f0b326d50d7"),
    (900, 887, "45f3564a4ecccc713ca95698a73e01ba60ef5832916b9b7bbe8270151180e0b5"),
    (901, 888, "778dfc2d9117e08ace36a224480fd74254d042e20abe05a09f48a1677d204aca"),
    (4015, 4000, "ce21bc0d2c2c864bf19ec326abb880727e2e2f1646ec34751341e876d207c2fd"),
]


def _pinned_words(n, k, count=30):
    """The code and its seeded received words at length n: seven kinds, count each."""
    rng = random.Random(f"pinned decode {n}")
    r = (k + 1).bit_length()
    cp = _random_params(k, r, rng)
    assert cp.n == n

    def message():
        return BitSeq(bytes(rng.getrandbits(1) for _ in range(k - 1)))

    def indel(z):
        return apply_event(z, random_event(len(z), rng.getrandbits(63)))

    words = []
    for _ in range(count):
        words.append(encode_message(message(), k, r, cp.d, cp.b))
        words.append(indel(encode_message(message(), k, r, cp.d, cp.b)))
        words.append(indel(indel(encode_message(message(), k, r, cp.d, cp.b))))
        z = encode_message(message(), k, r, cp.d, cp.b).tobytes()
        i = rng.randrange(n)
        words.append(BitSeq(z[:i] + bytes([z[i] ^ 1]) + z[i + 1 :]))
        length = rng.choice((n - 1, n, n + 1))
        words.append(BitSeq(bytes(rng.getrandbits(1) for _ in range(length))))
        # a codeword whose message part is uniform, so the front end sees
        # words it never emits: runs of r zeros, and counts and pointers that
        # do not parse
        for received in range(2):
            y = bytes(rng.getrandbits(1) for _ in range(k))
            try:
                z = BitSeq(_embed(cp, y))
            except CodecError:
                continue
            words.append(indel(z) if received else z)
    return cp, words


def _outcome(cp, word):
    try:
        return str(decode_message(cp, word))
    except CodecError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("n, k, digest", PINNED_OUTCOMES)
def test_pinned_decode_outcomes(n, k, digest):
    cp, words = _pinned_words(n, k)
    h = hashlib.sha256()
    for word in words:
        h.update(_outcome(cp, word).encode() + b"\n")
    assert h.hexdigest() == digest
