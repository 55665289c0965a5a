"""Brute-force oracles: enumeration, disjointness, and the report format."""
import hashlib
import os
import threading
from pathlib import Path

import pytest

import rllindel.code
from rllindel import oracle
from rllindel.analysis import forbidden_parities
from rllindel.bitseq import BitSeq, is_rll
from rllindel.channel import Stream, apply_event, log_line, random_event, trial_seed
from rllindel.code import derive_params, encode_message, raw_params
from rllindel.decoder import decode_message
from rllindel.errors import DataError, InvariantError, ValidationError
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

    def test_limit_far_above_the_length_keeps_every_word(self):
        assert enumerate_rll(5, 10**22) == enumerate_rll(5, 5)
        assert len(enumerate_rll(5, 10**22)) == 32

    def test_guards(self):
        with pytest.raises(ValidationError):
            enumerate_rll(25, 4)
        with pytest.raises(ValidationError):
            enumerate_rll(0, 4)
        with pytest.raises(ValidationError):
            enumerate_rll(4, 0)

    def test_cap_comes_before_any_pattern(self, monkeypatch):
        # at r >= n the two run patterns have n + 1 symbols each
        def patterns(r, n):
            raise AssertionError(f"built the n={n} patterns before the cap check")

        monkeypatch.setattr(oracle, "_run_patterns", patterns)
        with pytest.raises(ValidationError) as excinfo:
            enumerate_rll(3 * 10**8, 3 * 10**8)
        assert str(excinfo.value) == "exhaustive enumeration is capped at n = 24 (got n=300000000)"


class TestForbiddenParities:
    def test_frozen_count(self):
        assert len(forbidden_parities(4, 0)) == frozen("forbidden_count_rhat4_last0")


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

    def test_range_guard_comes_before_any_enumeration(self, monkeypatch):
        def enumerated(n):
            raise AssertionError(f"enumerated n={n} before the cap check")

        monkeypatch.setattr(oracle, "_words", enumerated)
        with pytest.raises(ValidationError) as excinfo:
            check_sidc_range(16, 17, 4, 6)
        assert str(excinfo.value) == "ball-disjointness check is capped at n = 16 (got n=17)"

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

    @pytest.mark.parametrize("table", ["code", "constant"])
    def test_range_matches_one_enumeration_per_residue(self, table, monkeypatch):
        # the range splits one enumeration by residue; each verdict must be
        # the one a separate enumeration of that residue's code gives. Under
        # constant coefficients a code is a set of equal-weight words, which
        # a deletion can confuse, so most residues FAIL
        if table == "constant":
            monkeypatch.setattr(rllindel.code, "_coefficients", lambda n, r_hat, d: (1,) * (n + 1))
        verdicts = []
        for n in range(9, 13):
            modulus = raw_params(n, 4, 6).modulus
            coeffs = rllindel.code._coefficients(n, 4, 6)
            words = [BitSeq(format(mask, f"0{n}b")) for mask in range(1 << n)]
            weights = [sum(a * s for a, s in zip(coeffs, w)) for w in words]
            ok = []
            for b in range(modulus):
                code = enumerate_codewords(raw_params(n, 4, 6, b))
                assert code == [w for w, weight in zip(words, weights) if weight % modulus == b]
                ok.append(deletion_balls_disjoint(code)[0])
            failed = [b for b in range(modulus) if not ok[b]]
            [report] = check_sidc_range(n, n, 4, 6)
            verdict = "FAIL" if failed else "PASS"
            assert report.lines() == [
                f"CHECK sidc n={n} r_hat=4 d=6 b=all {verdict}"
                + (f" b={failed[0]}" if failed else ""),
                f"check=sidc n={n} r_hat=4 d=6 b=all result={verdict.lower()} "
                f"residues={modulus} failures={len(failed)}",
            ]
            for b in range(modulus):
                [report] = check_sidc_range(n, n, 4, 6, b)
                assert (report.passed, report.counterexample) == (ok[b], None if ok[b] else f"b={b}")
                assert report.stats == {"residues": 1, "failures": 0 if ok[b] else 1}
                assert check_sidc(n, 4, 6, b) == ok[b]
            verdicts += ok
        assert (True in verdicts, False in verdicts) == (True, table == "constant")


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

    @pytest.mark.parametrize("k", [7, 13])
    def test_rejects_a_negative_trial_count(self, k):
        # k = 7 is exhaustive and k = 13 sampled; the count is checked in both
        with pytest.raises(ValidationError) as excinfo:
            check_encoder_rll(k, 4, trials=-3)
        assert str(excinfo.value) == "trial count must be non-negative (got trials=-3)"

    @pytest.mark.parametrize("kind", ["run-limit", "membership"])
    @pytest.mark.parametrize("k, r, d, sampled", [(7, 4, 6, {}), (14, 4, 7, {"trials": 400})])
    def test_broken_embedder_fails(self, kind, k, r, d, sampled, monkeypatch):
        # every fourth residue gets a word that breaks the run limit (a run
        # of r + 1 zeros up front) or a run-limited codeword of the next residue
        embed = oracle.embed_encode
        bad = []

        def broken(cp, y):
            if cp.b % 4 != 1:
                return embed(cp, y)
            bad.append(f"y={y} b={cp.b} {kind}")
            if kind == "run-limit":
                return BitSeq([0] * (cp.r + 1)) + embed(cp, y)[cp.r + 1 :]
            return embed(cp._replace(b=(cp.b + 1) % cp.modulus), y)

        monkeypatch.setattr(oracle, "embed_encode", broken)
        report = check_encoder_rll(k, r, d, **sampled)
        if not sampled:
            assert len(bad) == len(enumerate_rll(k, r)) * 6  # b = 1, 5, ..., 21 of 25
        assert not report.passed
        assert report.stats["violations"] == len(bad) > 0
        assert report.counterexample == bad[0]
        assert report.lines()[0] == f"CHECK encoder-rll k={k} r={r} d={d} FAIL {bad[0]}"


class TestFrontRoundtrip:
    def test_passes_in_safe_zone(self):
        report = check_front_roundtrip(10, 4)
        assert report.passed
        assert report.stats["messages"] == 512

    @pytest.mark.parametrize("k, r", [(5, 3), (6, 3), (14, 4), (15, 4)])
    def test_passes_at_top_two_lengths_up_to_r4(self, k, r):
        report = check_front_roundtrip(k, r)
        assert report.passed
        assert report.stats == {"messages": 1 << (k - 1), "failures": 0}

    @pytest.mark.parametrize(
        "fault", ["length", "zero-run", "collision", "roundtrip-mismatch", "decode-error"]
    )
    def test_broken_front_end_fails(self, fault, monkeypatch):
        # every message ending in 1 meets the fault: the encoder drops the
        # last symbol, puts 0^r up front, or repeats the previous message's
        # word; the decoder flips the last symbol or raises
        encode, decode = oracle.wi_encode, oracle.wi_decode
        bad = []

        def broken_encode(u, fp):
            x = encode(u, fp)
            if not u[-1] or fault not in ("length", "zero-run", "collision"):
                return x
            if fault == "length":
                x, problem = x[:-1], fault
            elif fault == "zero-run":
                x, problem = BitSeq([0] * fp.r) + x[fp.r :], fault
            else:
                previous = u[:-1] + BitSeq("0")
                x, problem = encode(previous, fp), f"collision-with u={previous}"
            bad.append(f"u={u} x={x} {problem}")
            return x

        def broken_decode(x, fp):
            u = decode(x, fp)
            if not u[-1]:
                return u
            if fault == "decode-error":
                bad.append(f"u={u} x={x} decode-error (injected)")
                raise DataError("injected")
            bad.append(f"u={u} x={x} roundtrip-mismatch")
            return u[:-1] + BitSeq("0")

        monkeypatch.setattr(oracle, "wi_encode", broken_encode)
        if fault in ("roundtrip-mismatch", "decode-error"):
            monkeypatch.setattr(oracle, "wi_decode", broken_decode)
        report = check_front_roundtrip(10, 4)
        assert len(bad) == 256
        assert not report.passed
        assert report.stats == {"messages": 512, "failures": 256}
        assert report.counterexample == bad[0]
        assert report.lines()[0] == f"CHECK front-roundtrip k=10 r=4 FAIL {bad[0]}"

    def test_cap(self):
        assert check_front_roundtrip(14, 5).passed
        with pytest.raises(ValidationError, match="capped at k = 15"):
            check_front_roundtrip(16, 5)
        # a pair the front end rejects fails validation before the cap
        with pytest.raises(ValidationError, match="feasibility"):
            check_front_roundtrip(16, 4)


class TestChannelCampaign:
    def test_small_campaign_passes(self):
        report = check_channel_campaign(13, 4, 400, 11)
        assert report.passed
        assert report.stats["failures"] == 0

    @pytest.mark.parametrize("d", [6, 7])
    def test_passes_at_k14_r4(self, d):
        report = check_channel_campaign(14, 4, 1000, 3, d)
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

    def test_rejects_a_negative_trial_count(self):
        with pytest.raises(ValidationError) as excinfo:
            check_channel_campaign(13, 4, -5, 1)
        assert str(excinfo.value) == "trial count must be non-negative (got trials=-5)"


def trial_words(k, r, base_seed, index):
    """The message trial index of a campaign encodes and the word its decoder receives."""
    cp = derive_params(k, r)
    stream = Stream(trial_seed(base_seed, index))
    u = _random_word(stream, k - 1)
    return u, apply_event(encode_message(u, k, r), random_event(cp.n, stream.next()))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def campaign(monkeypatch, jobs, *args):
    """check_channel_campaign(*args) split into `jobs` blocks; the test's other patches stay."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_jobs", lambda trials: jobs)
        return check_channel_campaign(*args)


class TestShardedCampaign:
    """More than one job forks contiguous trial blocks; the report must not depend on the count."""

    @pytest.mark.parametrize("trials", [0, 1, 2, 301])
    def test_render_is_the_same_for_every_jobs(self, trials, monkeypatch):
        serial = campaign(monkeypatch, 1, 13, 4, trials, 9).render()
        for jobs in (2, 3):
            assert campaign(monkeypatch, jobs, 13, 4, trials, 9).render() == serial
            assert_no_child_left()

    def test_failures_straddling_block_boundaries(self, monkeypatch):
        # 301 trials split at 150 (two jobs) and at 100 and 200 (three)
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
        serial = campaign(monkeypatch, 1, 60, 6, 301, 4)
        assert serial.stats["failures"] == 5
        assert serial.counterexample.startswith("trial=99 ")
        for jobs in (2, 3):
            report = campaign(monkeypatch, jobs, 60, 6, 301, 4)
            assert_no_child_left()
            assert report.stats["failures"] == serial.stats["failures"]
            assert report.counterexample == serial.counterexample
            assert report.render() == serial.render()

    def test_exception_in_a_middle_block_surfaces_as_in_a_serial_run(self, monkeypatch):
        # an encoder fault is not a decoding failure: it ends the campaign.
        # Trial 150 sits in the middle of three blocks; trial 250 in the last,
        # which this process runs itself, raises too but must not win
        raising = {trial_words(60, 6, 4, i)[0]: i for i in (150, 250)}
        encode = oracle.encode_message

        def faulty(u, *args):
            if u in raising:
                raise InvariantError(f"injected at trial {raising[u]}")
            return encode(u, *args)

        monkeypatch.setattr(oracle, "encode_message", faulty)
        with pytest.raises(InvariantError) as serial:
            campaign(monkeypatch, 1, 60, 6, 301, 4)
        assert str(serial.value) == "injected at trial 150"
        for jobs in (2, 3):
            with pytest.raises(InvariantError) as sharded:
                campaign(monkeypatch, jobs, 60, 6, 301, 4)
            assert_no_child_left()
            assert str(sharded.value) == str(serial.value)

    def test_block_whose_fork_fails_runs_here(self, monkeypatch):
        serial = campaign(monkeypatch, 1, 13, 4, 301, 9).render()
        forks = []

        def second_fork_fails():
            # the first block's child starts, the second's does not
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError("fork refused")
            return fork()

        fork = oracle.os.fork
        monkeypatch.setattr(oracle.os, "fork", second_fork_fails)
        assert campaign(monkeypatch, 3, 13, 4, 301, 9).render() == serial
        assert len(forks) == 2
        assert_no_child_left()

    def test_child_that_exits_without_a_result(self, monkeypatch):
        serial = campaign(monkeypatch, 1, 13, 4, 301, 9).render()
        block = oracle._campaign_block
        parent = os.getpid()

        def dies_in_a_child(*args):
            if os.getpid() != parent:
                os._exit(1)
            return block(*args)

        monkeypatch.setattr(oracle, "_campaign_block", dies_in_a_child)
        for jobs in (2, 3):
            assert campaign(monkeypatch, jobs, 13, 4, 301, 9).render() == serial
            assert_no_child_left()


class TestCampaignLog:
    """The report is read off the documented trial log, built here without the oracle."""

    def test_digest_failures_and_counterexample_come_from_the_log(self, monkeypatch):
        # 160 trials split at 80 (two jobs) and at 53 and 106 (three): trials
        # 52 and 53 straddle a boundary, and 159 lies in the block this process runs
        k, r, trials, seed = 60, 6, 160, 21
        cp = derive_params(k, r)
        injected = {52: "raise", 53: "wrong", 159: "raise"}
        lines, failing, bad = [], [], {}
        for index in range(trials):
            stream = Stream(trial_seed(seed, index))
            u = _random_word(stream, k - 1)
            event = random_event(cp.n, stream.next())
            received = apply_event(encode_message(u, k, r), event)
            ok = index not in injected and decode_message(cp, received) == u
            lines.append(f"{index} {log_line(event)} {int(ok)}\n")
            if not ok:
                failing.append(f"trial={index} u={u} event=({log_line(event)})")
                bad[received] = injected[index]
        assert len(bad) == len(injected)
        log = "".join(lines)

        def faulty(cp, received):
            if bad.get(received) == "raise":
                raise DataError("injected failure")
            if bad.get(received) == "wrong":
                return decode_message(cp, received)[::-1]
            return decode_message(cp, received)

        monkeypatch.setattr(oracle, "decode_message", faulty)
        for jobs in (1, 2, 3):
            report = campaign(monkeypatch, jobs, k, r, trials, seed)
            assert_no_child_left()
            assert not report.passed
            assert report.stats["digest"] == hashlib.sha256(log.encode()).hexdigest()
            assert report.stats["failures"] == len(failing) == 3
            assert report.counterexample == failing[0]


class TestJobs:
    """The campaign's own job count: one per usable CPU, at least _MIN_TRIALS_PER_JOB trials each."""

    @pytest.mark.parametrize(
        "cpus, trials, jobs",
        [(4, 1000, 4), (4, 199, 3), (4, 100, 2), (4, 99, 1), (4, 0, 1), (1, 1000, 1), (64, 1000, 20)],
    )
    def test_one_job_per_cpu_but_none_below_the_minimum(self, cpus, trials, jobs, monkeypatch):
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert oracle._MIN_TRIALS_PER_JOB == 50
        assert oracle._jobs(trials) == jobs

    def test_one_job_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: set(range(4)))
        assert oracle._jobs(1000) == 4
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert oracle._jobs(1000) == 1
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert oracle._jobs(1000) == 4

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_one_job_without_fork_or_affinity(self, missing, monkeypatch):
        if missing == "fork":
            monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.delattr(oracle.os, missing)
        assert oracle._jobs(1000) == 1

    def test_report_matches_a_single_job(self, monkeypatch):
        # the default job count, whatever this host gives, renders as one job does
        serial = campaign(monkeypatch, 1, 30, 5, 1000, 424242).render()
        assert check_channel_campaign(30, 5, 1000, 424242).render() == serial
        assert_no_child_left()


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

    def test_pinned_63_output_word(self):
        # a k = 4000 campaign message: 63 outputs, then the stream's next output
        stream = Stream(trial_seed(5, 18))
        word = str(_random_word(stream, 3999))
        assert hashlib.sha256(word.encode()).hexdigest() == (
            "0d6279f6a39d616612f7745c7acc29edc3716420a086c484de2def97542265e3"
        )
        assert stream.next() == 7868552283923489127


class TestReportFormat:
    def test_pass_lines(self):
        report = Report("demo", {"k": 3}, True, stats={"cases": 7})
        assert report.lines() == ["CHECK demo k=3 PASS", "check=demo k=3 result=pass cases=7"]
        assert report.render() == "CHECK demo k=3 PASS\ncheck=demo k=3 result=pass cases=7\n"

    def test_fail_line_carries_counterexample(self):
        report = Report("demo", {"k": 3}, False, counterexample="y=010")
        assert report.lines()[0] == "CHECK demo k=3 FAIL y=010"
