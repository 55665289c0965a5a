"""Release gate: one check per shipped guarantee, each with a runtime budget.

Every test prints a single ``ACCEPTANCE NN <name>: PASS|FAIL`` line through
the terminal reporter (see conftest) so the verdicts stay visible in the run
log, then fails loudly if the check or its wall-clock budget is violated.
"""

from __future__ import annotations

from rllindel.analysis import (
    g_bound,
    gap_condition_check,
    h_bound,
    phi,
    psi,
    redundancy_row,
)
from rllindel.bitseq import BitSeq, le_encode
from rllindel.code import (
    coefficient_value,
    derive_params,
    embed_encode,
    parity_word,
    raw_params,
)
from rllindel.decoder import correct, decode_message
from rllindel.front import FrontParams, front_encode, nrzi_decode, nrzi_encode, omega
from rllindel.oracle import (
    check_channel_campaign,
    check_encoder_rll,
    check_front_roundtrip,
    check_sidc,
)

CAMPAIGN_SEED = 424242


def test_01_embed_known_vector(criterion):
    cp = derive_params(14, 4, d=6, b=31)
    y = BitSeq("10100001000010")
    # Warm the coefficient cache so the budget measures the operation alone.
    embed_encode(cp, y)
    with criterion(1, "embed known vector", budget=0.001):
        assert str(embed_encode(cp, y)) == "001111010100001000010"
        assert str(parity_word(cp, 0, 0, y)) == "0100000"
        assert str(parity_word(cp, 1, 0, y)) == "0011110"


def test_02_level_transform_vectors(criterion):
    x = BitSeq("1010001000101000011011000")
    y = BitSeq("1100001111001111101101111")
    nrzi_encode(x)
    with criterion(2, "level transform vectors", budget=0.001):
        assert nrzi_encode(x) == y
        assert nrzi_decode(y) == x


def test_03_padding_words(criterion):
    table = ["", "0", "00", "000", "0000", "11110", "011110", "0011110"]
    with criterion(3, "padding words", budget=1.0):
        for s, expected in enumerate(table):
            assert str(omega(s, 4)) == expected
        for t in range(2, 9):
            for s in range(65):
                assert len(omega(s, t)) == s


def test_04_coefficient_sequences(criterion):
    with criterion(4, "coefficient sequences"):
        for d in range(5, 8):
            seq = [coefficient_value(i, 4, d) for i in range(1, 23)]
            assert seq == [1, 2, 4, d, 8, 16] + list(range(17, 33))
        for d in range(9, 16):
            seq = [coefficient_value(i, 5, d) for i in range(1, 40)]
            assert seq == [1, 2, 4, 8, d, 16, 32] + list(range(33, 65))
        assert derive_params(14, 4, d=6).modulus == 32
        assert derive_params(30, 5, d=9).modulus == 64
        assert raw_params(21, 4, 5).modulus == 32


def test_05_front_end_exhaustive(criterion):
    with criterion(5, "front-end exhaustive", budget=60.0):
        for r in (4, 5):
            for k in range(2, 14):
                report = check_front_roundtrip(k, r)
                assert report.passed, report.counterexample
                assert report.stats["messages"] == 1 << (k - 1)


def test_06_deletion_balls_disjoint(criterion):
    with criterion(6, "deletion balls disjoint", budget=120.0):
        for n in (10, 12, 14):
            for d in (5, 6, 7):
                modulus = raw_params(n, 4, d).modulus
                for b in range(modulus):
                    assert check_sidc(n, 4, d, b), (n, d, b)


def test_07_encoder_membership(criterion):
    with criterion(7, "encoder membership", budget=300.0):
        for k in (7, 8):
            for r in (4, 5, 6):
                for d in (5, 6, 7):
                    report = check_encoder_rll(k, r, d)
                    assert report.passed, report.counterexample
                    assert report.stats["mode"] == "exhaustive"
                    assert report.stats["violations"] == 0
        for k, r, seed in ((14, 4, 2024), (20, 5, 2025), (30, 5, 2026)):
            report = check_encoder_rll(k, r, trials=100_000, seed=seed)
            assert report.passed, report.counterexample
            assert report.stats["mode"] == "sampled"
            assert report.stats["encodes"] >= 100_000
            assert report.stats["violations"] == 0


def test_08_decoder_totality(criterion):
    # correct() raises if the candidate filter ever keeps two distinct
    # codewords, so a clean sweep also certifies candidate uniqueness.
    with criterion(8, "decoder totality", budget=300.0):
        for k in (7, 8):
            front = FrontParams(k, 4)
            messages = [le_encode(value, k - 1) for value in range(1 << (k - 1))]
            fronts = [front_encode(u, front) for u in messages]
            for d in (5, 6, 7):
                base = derive_params(k, 4, d=d)
                for b in range(base.modulus):
                    cp = base._replace(b=b)
                    for u, y in zip(messages, fronts):
                        z = embed_encode(cp, y)
                        word = str(z)
                        variants = [word[:i] + word[i + 1 :] for i in range(len(word))]
                        variants += [
                            word[:i] + symbol + word[i:]
                            for i in range(len(word) + 1)
                            for symbol in "01"
                        ]
                        for variant in variants:
                            received = BitSeq(variant)
                            assert correct(cp, received) == z
                            assert decode_message(cp, received) == u


def test_09_redundancy_and_gap(criterion):
    with criterion(9, "redundancy and gap", budget=10.0):
        for k in range(7, 1025):
            cp = derive_params(k, (k + 1).bit_length())
            assert cp.n - (cp.k - 1) == cp.r_hat + 4
        for n in range(14, 1025):
            assert redundancy_row(n).gap < 5
        assert abs(redundancy_row(14).gap - 4.2994) <= 0.001


def test_10_bound_difference(criterion):
    with criterion(10, "bound difference"):
        for r in range(3, 21):
            difference = h_bound(r) - g_bound(r)
            assert difference == 7 * 2 ** (r - 3) + r - 6
            assert difference > 0


def test_11_parity_collision_sweep(criterion):
    with criterion(11, "parity collision sweep", budget=60.0):
        report = gap_condition_check(4)
        assert report.counterexample == "(k=14,d=5,A=32)"
        assert report.stats["c1"] == "4..6"
        assert report.stats["c2"] == "17..22"
        assert report.stats["c3"] == "32..38"
        assert report.stats["d_interval"] == "25..32"
        assert report.stats["collisions"] == 1
        assert report.stats["chain"] == "yes" and report.passed
        assert report.stats["d_interval"].split("..")[1] == report.stats["c3"].split("..")[0]
        for r_hat in range(5, 65):
            clean = gap_condition_check(r_hat)
            assert clean.counterexample is None and clean.stats["collisions"] == 0
            assert clean.passed
            d_hi = int(clean.stats["d_interval"].split("..")[1])
            assert d_hi < int(clean.stats["c3"].split("..")[0])


def test_12_bound_growth(criterion):
    with criterion(12, "bound growth"):
        values = [phi(n) for n in range(14, 1002)]
        for lower, upper in zip(values, values[1:]):
            assert upper - lower > 1e-4
        for n in range(14, 65):
            assert psi(n) > 1e-4


def test_13_channel_campaign(criterion):
    with criterion(13, "channel campaign", budget=120.0):
        first = check_channel_campaign(30, 5, trials=100_000, base_seed=CAMPAIGN_SEED)
        second = check_channel_campaign(30, 5, trials=100_000, base_seed=CAMPAIGN_SEED)
        assert first.passed and second.passed
        assert first.stats["trials"] == 100_000
        assert first.stats["failures"] == 0
        assert first.render() == second.render()
