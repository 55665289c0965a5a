"""Brute-force oracles: enumeration, disjointness, and the report format."""
import os
from pathlib import Path

import pytest

from rllindel import oracle
from rllindel.bitseq import BitSeq, is_rll
from rllindel.channel import Stream, apply_event, random_event, trial_seed
from rllindel.code import derive_params, embed_encode, raw_params
from rllindel.errors import DataError, InvariantError, ValidationError
from rllindel.front import cached_front_params, front_encode
from rllindel.oracle import (
    Report,
    _random_word,
    check_channel_campaign,
    check_encoder_rll,
    check_front_roundtrip,
    check_sidc,
    check_sidc_range,
    deletion_balls_disjoint,
    enumerate_codewords,
    enumerate_rll,
)

FIXTURES = Path(__file__).parent / "fixtures"


def frozen(name: str) -> int:
    for line in (FIXTURES / "frozen_counts.txt").read_text().splitlines():
        if line.startswith(name):
            return int(line.split("=")[1])
    raise KeyError(name)


class TestEnumerateRll:
    def test_alternating_only_at_r1(self):
        words = enumerate_rll(4, 1)
        assert [str(w) for w in words] == ["0101", "1010"]

    def test_lexicographic_and_valid(self):
        words = enumerate_rll(8, 3)
        texts = [str(w) for w in words]
        assert texts == sorted(texts)
        assert all(is_rll(w, 3) for w in words)
        assert len(set(texts)) == len(texts)

    def test_frozen_count(self):
        assert len(enumerate_rll(10, 4)) == frozen("rll_count_n10_r4")

    def test_guards(self):
        with pytest.raises(ValidationError):
            enumerate_rll(25, 4)
        with pytest.raises(ValidationError):
            enumerate_rll(0, 4)
        with pytest.raises(ValidationError):
            enumerate_rll(4, 0)


class TestEnumerateCodewords:
    def test_frozen_count(self):
        words = enumerate_codewords(raw_params(10, 4, 6, 0))
        assert len(words) == frozen("codeword_count_n10_rhat4_d6_b0")

    def test_lexicographic(self):
        texts = [str(w) for w in enumerate_codewords(raw_params(10, 4, 6, 3))]
        assert texts == sorted(texts)

    def test_residues_partition_the_space(self):
        total = 0
        rp0 = raw_params(10, 4, 6, 0)
        for b in range(rp0.modulus):
            total += len(enumerate_codewords(raw_params(10, 4, 6, b)))
        assert total == 1 << 10

    def test_guard(self):
        with pytest.raises(ValidationError):
            enumerate_codewords(raw_params(25, 4, 6, 0))


class TestDeletionBalls:
    def test_disjoint_set(self):
        ok, clash = deletion_balls_disjoint([BitSeq("0011"), BitSeq("1100")])
        assert ok and clash is None

    def test_clashing_set(self):
        # both lose one symbol to become "0"
        ok, clash = deletion_balls_disjoint([BitSeq("00"), BitSeq("01")])
        assert not ok
        assert set(map(str, clash)) == {"00", "01"}

    def test_check_sidc_true_case(self):
        assert check_sidc(10, 4, 6, 0)

    def test_check_sidc_negative_control(self):
        # constant coefficients (the classic parity-sum code) are not
        # single-deletion correcting, so the helper must find a clash
        words = [
            BitSeq([(mask >> (8 - i)) & 1 for i in range(9)])
            for mask in range(1 << 9)
            if bin(mask).count("1") % 2 == 0
        ]
        ok, _ = deletion_balls_disjoint(words)
        assert not ok

    def test_guard(self):
        with pytest.raises(ValidationError):
            check_sidc(17, 4, 6, 0)

    def test_range_gives_one_report_per_length(self):
        reports = check_sidc_range(9, 10, 4, 6)
        assert "".join(report.render() for report in reports) == (
            "CHECK sidc n=9 r_hat=4 d=6 b=all PASS\n"
            "check=sidc n=9 r_hat=4 d=6 b=all result=pass residues=20 failures=0\n"
            "CHECK sidc n=10 r_hat=4 d=6 b=all PASS\n"
            "check=sidc n=10 r_hat=4 d=6 b=all result=pass residues=21 failures=0\n"
        )

    def test_range_at_one_residue(self):
        [report] = check_sidc_range(10, 10, 4, 6, b=3)
        assert report.lines() == [
            "CHECK sidc n=10 r_hat=4 d=6 b=3 PASS",
            "check=sidc n=10 r_hat=4 d=6 b=3 result=pass residues=1 failures=0",
        ]


class TestEncoderRll:
    def test_exhaustive_small_case(self):
        report = check_encoder_rll(7, 4, 6)
        assert report.passed
        assert report.stats["mode"] == "exhaustive"
        # every run-limited message part times every residue
        assert report.stats["encodes"] == len(enumerate_rll(7, 4)) * 25

    def test_sampled_mode_valid_params(self):
        report = check_encoder_rll(14, 4, 7, trials=2000)
        assert report.passed
        assert report.stats["mode"] == "sampled"
        assert report.stats["encodes"] == 2000

    def test_excluded_triple_observed_failing(self):
        # the one rejected triple; the oracle probes it anyway and reports
        # what it saw (roughly 3% of samples defeat the parity fallback)
        report = check_encoder_rll(14, 4, 5, trials=3000)
        assert not report.passed
        assert report.stats["violations"] > 0
        assert "FAIL" in report.lines()[0]

    def test_invalid_params_still_rejected(self):
        with pytest.raises(ValidationError):
            check_encoder_rll(6, 4)


class TestFrontRoundtrip:
    def test_passes_in_safe_zone(self):
        report = check_front_roundtrip(10, 4)
        assert report.passed
        assert report.stats["messages"] == 512

    def test_rejected_pair_fails_validation_before_running(self):
        with pytest.raises(ValidationError):
            check_front_roundtrip(14, 4)

    def test_cap(self):
        with pytest.raises(ValidationError):
            check_front_roundtrip(14, 5)


class TestChannelCampaign:
    def test_small_campaign_passes(self):
        report = check_channel_campaign(13, 4, 400, 11)
        assert report.passed
        assert report.stats["failures"] == 0

    def test_render_is_reproducible(self):
        a = check_channel_campaign(13, 4, 200, 5)
        b = check_channel_campaign(13, 4, 200, 5)
        assert a.render() == b.render()

    def test_digest_is_pinned(self):
        report = check_channel_campaign(60, 6, 1000, 7)
        assert report.stats["digest"] == (
            "85df0c409a875d3e7b99fdae37dd36e92413269eb1a435b8a2886ea66cac6d61"
        )

    def test_different_seeds_differ(self):
        a = check_channel_campaign(13, 4, 200, 5)
        b = check_channel_campaign(13, 4, 200, 6)
        assert a.stats["digest"] != b.stats["digest"]


def trial_words(k, r, base_seed, index):
    """The words trial index of a campaign hands to the embedder and to the decoder."""
    cp = derive_params(k, r)
    stream = Stream(trial_seed(base_seed, index))
    y = front_encode(_random_word(stream, k - 1), cached_front_params(k, r))
    return y, apply_event(embed_encode(cp, y), random_event(cp.n, stream.next()))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShardedCampaign:
    """jobs > 1 forks contiguous trial blocks; the report must not depend on jobs."""

    @pytest.mark.parametrize("trials", [0, 1, 2, 301])
    def test_render_is_the_same_for_every_jobs(self, trials):
        serial = check_channel_campaign(13, 4, trials, 9, jobs=1).render()
        for jobs in (2, 3):
            assert check_channel_campaign(13, 4, trials, 9, jobs=jobs).render() == serial
            assert_no_child_left()

    def test_failures_straddling_block_boundaries(self, monkeypatch):
        # 301 trials split at 150 (jobs=2) and at 100 and 200 (jobs=3)
        bad = {trial_words(60, 6, 4, i)[1]: i for i in (99, 100, 149, 150, 200)}
        decode = oracle.decode_message

        def faulty(cp, received):
            index = bad.get(received)
            if index is None:
                return decode(cp, received)
            if index % 2:
                raise DataError(f"injected failure at trial {index}")
            return decode(cp, received)[::-1]

        monkeypatch.setattr(oracle, "decode_message", faulty)
        serial = check_channel_campaign(60, 6, 301, 4)
        assert serial.stats["failures"] == 5
        assert serial.counterexample.startswith("trial=99 ")
        for jobs in (2, 3):
            report = check_channel_campaign(60, 6, 301, 4, jobs=jobs)
            assert_no_child_left()
            assert report.stats["failures"] == serial.stats["failures"]
            assert report.counterexample == serial.counterexample
            assert report.render() == serial.render()

    def test_exception_in_a_middle_block_surfaces_as_in_a_serial_run(self, monkeypatch):
        # an encoder fault is not a decoding failure: it ends the campaign.
        # Trial 150 sits in the middle of three blocks; trial 250 in the last,
        # which this process runs itself, raises too but must not win
        raising = {trial_words(60, 6, 4, i)[0]: i for i in (150, 250)}
        embed = oracle.embed_encode

        def faulty(cp, y):
            if y in raising:
                raise InvariantError(f"injected at trial {raising[y]}")
            return embed(cp, y)

        monkeypatch.setattr(oracle, "embed_encode", faulty)
        with pytest.raises(InvariantError) as serial:
            check_channel_campaign(60, 6, 301, 4)
        assert str(serial.value) == "injected at trial 150"
        for jobs in (2, 3):
            with pytest.raises(InvariantError) as sharded:
                check_channel_campaign(60, 6, 301, 4, jobs=jobs)
            assert_no_child_left()
            assert str(sharded.value) == str(serial.value)

    def test_block_whose_fork_fails_runs_here(self, monkeypatch):
        serial = check_channel_campaign(13, 4, 301, 9).render()

        def no_fork():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(oracle.os, "fork", no_fork)
        assert check_channel_campaign(13, 4, 301, 9, jobs=3).render() == serial

    def test_child_that_exits_without_a_result(self, monkeypatch):
        serial = check_channel_campaign(13, 4, 301, 9).render()
        block = oracle._campaign_block
        parent = os.getpid()

        def dies_in_a_child(*args):
            if os.getpid() != parent:
                os._exit(1)
            return block(*args)

        monkeypatch.setattr(oracle, "_campaign_block", dies_in_a_child)
        for jobs in (2, 3):
            assert check_channel_campaign(13, 4, 301, 9, jobs=jobs).render() == serial
            assert_no_child_left()

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValidationError):
            check_channel_campaign(13, 4, 10, 1, jobs=0)


class TestRandomWord:
    # values drawn by the earlier inline samplers, which bench/run.py replays
    @pytest.mark.parametrize(
        "seed, index, expected",
        [
            (7, 0, "1010001001110"),
            (424242, 5, "1010010011111101010010000001111111110011011100101000111110100100"),
            (
                5,
                18,
                "0111001000101010101111001011010011010100001010011100001000001100"
                "10110001001101100101100111000110111110111101011100000110110011001",
            ),
        ],
    )
    def test_pinned_words(self, seed, index, expected):
        stream = Stream(trial_seed(seed, index))
        assert str(_random_word(stream, len(expected))) == expected


class TestReportFormat:
    def test_pass_lines(self):
        report = Report("demo", {"k": 3}, True, stats={"cases": 7})
        assert report.lines() == ["CHECK demo k=3 PASS", "check=demo k=3 result=pass cases=7"]
        assert report.render() == "CHECK demo k=3 PASS\ncheck=demo k=3 result=pass cases=7\n"

    def test_fail_line_carries_counterexample(self):
        report = Report("demo", {"k": 3}, False, counterexample="y=010")
        assert report.lines()[0] == "CHECK demo k=3 FAIL y=010"
