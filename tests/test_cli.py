"""Command-line interface: subcommands, streaming behavior, and exit codes."""
import argparse
import errno
import io
import os
import random
import resource
import select
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllindel import BitSeq, cli, encode_message
from rllindel.analysis import emit_csv, redundancy_row

CMD = [sys.executable, "-m", "rllindel"]
# the codeword of the message 010011000101 at k = 13, r = 4
CODEWORD = "10101010111011110010"


def run(*args, stdin: str = ""):
    return subprocess.run(
        CMD + list(args), input=stdin, capture_output=True, text=True, timeout=300
    )


class TestParams:
    def test_prints_block(self):
        result = run("params", "--k", "14", "--r", "4")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert "n=21" in lines and "modulus=32" in lines
        assert "d_min=5" in lines and "d_max=7" in lines

    def test_excluded_triple_exits_2(self):
        result = run("params", "--k", "14", "--r", "4", "--d", "5")
        assert result.returncode == 2
        assert "(14, 4, 5)" in result.stderr

    def test_small_k_exits_2(self):
        result = run("params", "--k", "6", "--r", "4")
        assert result.returncode == 2

    def test_missing_flag_exits_1(self):
        result = run("params", "--k", "14")
        assert result.returncode == 1

    def test_unknown_command_exits_1(self):
        result = run("frobnicate")
        assert result.returncode == 1


class TestEncodeDecode:
    def test_raw_known_vector(self):
        result = run(
            "encode", "--raw", "--k", "14", "--r", "4", "--d", "6", "--b", "31",
            stdin="10100001000010\n",
        )
        assert result.returncode == 0
        assert result.stdout == "001111010100001000010\n"

    def test_raw_decode_round_trip(self):
        result = run(
            "decode", "--raw", "--k", "14", "--r", "4", "--d", "6", "--b", "31",
            stdin="001111010100001000010\n",
        )
        assert result.returncode == 0
        assert result.stdout == "10100001000010\n"

    def test_pipeline_round_trip(self):
        message = "010011000101\n"
        encoded = run("encode", "--k", "13", "--r", "4", stdin=message)
        assert encoded.returncode == 0
        decoded = run("decode", "--k", "13", "--r", "4", stdin=encoded.stdout)
        assert decoded.returncode == 0
        assert decoded.stdout == message

    def test_multiple_lines_keep_order(self):
        stdin = "000000000000\n111111111111\n010101010101\n"
        encoded = run("encode", "--k", "13", "--r", "4", stdin=stdin)
        decoded = run("decode", "--k", "13", "--r", "4", stdin=encoded.stdout)
        assert decoded.stdout == stdin

    def test_bad_line_reported_and_skipped(self):
        result = run(
            "encode", "--raw", "--k", "14", "--r", "4",
            stdin="xx\n10100001000010\n",
        )
        assert result.returncode == 3
        assert result.stderr.startswith("ERROR 1 ")
        assert len(result.stdout.splitlines()) == 1

    def test_text_bytes_0_and_1_are_invalid_characters(self):
        # read as symbols they would encode as 010011000101 does
        result = run(
            "encode", "--k", "13", "--r", "4",
            stdin="\x00\x01\x00\x00\x01\x01\x00\x00\x00\x01\x00\x01\n01001\x01000101\n",
        )
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == (
            "ERROR 1 invalid character '\\x00' at position 1\n"
            "ERROR 2 invalid character '\\x01' at position 6\n"
        )
        assert _main(["encode", "--k", "13", "--r", "4"], "01001\x01000101\n") == 3

    def test_pipeline_round_trip_at_k14_r4(self):
        # the front end's top length at r = 4; 1010001100001 is one of the
        # messages its greedy count parse alone would misread
        messages = "1010001100001\n1111111111111\n"
        encoded = run("encode", "--k", "14", "--r", "4", "--d", "6", stdin=messages)
        assert encoded.returncode == 0
        corrupted = run("corrupt", "--seed", "2", "--op", "delete", stdin=encoded.stdout)
        decoded = run("decode", "--k", "14", "--r", "4", "--d", "6", stdin=corrupted.stdout)
        assert (decoded.returncode, decoded.stdout) == (0, messages)


class TestCorrupt:
    def test_deterministic(self):
        args = ("corrupt", "--seed", "7", "--op", "delete")
        first = run(*args, stdin="001111010100001000010\n")
        second = run(*args, stdin="001111010100001000010\n")
        assert first.returncode == 0
        assert (first.stdout, first.stderr) == (second.stdout, second.stderr)
        assert len(first.stdout.strip()) == 20
        assert first.stderr.startswith("deletion ")

    def test_insert_grows_line(self):
        result = run("corrupt", "--seed", "3", "--op", "insert", stdin="0000\n")
        assert len(result.stdout.strip()) == 5
        kind, position, symbol = result.stderr.split()
        assert kind == "insertion" and 1 <= int(position) <= 5 and symbol in "01"

    def test_missing_seed_exits_1(self):
        result = run("corrupt", "--op", "delete", stdin="0000\n")
        assert result.returncode == 1

    def test_corrupt_then_decode_recovers(self):
        message = "010011000101\n"
        encoded = run("encode", "--k", "13", "--r", "4", stdin=message)
        corrupted = run("corrupt", "--seed", "41", stdin=encoded.stdout)
        decoded = run("decode", "--k", "13", "--r", "4", stdin=corrupted.stdout)
        assert decoded.stdout == message


class TestVerify:
    def test_front_roundtrip_passes(self):
        result = run("verify", "front-roundtrip", "--k", "10", "--r", "4")
        assert result.returncode == 0
        assert result.stdout.startswith("CHECK front-roundtrip k=10 r=4 PASS")

    def test_front_roundtrip_at_the_feasibility_bound(self):
        result = run("verify", "front-roundtrip", "--k", "15", "--r", "4")
        assert result.returncode == 0
        assert result.stdout.splitlines()[1] == (
            "check=front-roundtrip k=15 r=4 result=pass messages=16384 failures=0"
        )

    def test_front_roundtrip_at_a_limit_far_above_k(self):
        # no limit of k or more binds, so the check runs without an r cap
        result = run("verify", "front-roundtrip", "--k", "13", "--r", str(10**22))
        assert result.returncode == 0
        assert result.stdout.splitlines()[1] == (
            f"check=front-roundtrip k=13 r={10**22} result=pass messages=4096 failures=0"
        )

    def test_sidc_all_residues(self):
        result = run(
            "verify", "sidc", "--n-min", "10", "--n-max", "10", "--rhat", "4", "--d", "6"
        )
        assert result.returncode == 0
        assert "residues=21" in result.stdout

    def test_encoder_rll_excluded_triple_exits_4(self):
        result = run("verify", "encoder-rll", "--k", "14", "--r", "4", "--d", "5")
        assert result.returncode == 4
        assert "FAIL" in result.stdout

    def test_gap_condition_reports_collision(self):
        result = run("verify", "gap-condition", "--rhat", "4")
        assert result.returncode == 0
        assert "(k=14,d=5,A=32)" in result.stdout

    @pytest.mark.parametrize(
        "r_hat, summary",
        [
            (
                13,
                "c1=2048..4094 c2=10237..12286 c3=18428..20478 d_interval=12289..16384",
            ),
            (
                20,
                "c1=262144..524286 c2=1310717..1572862 c3=2359292..2621438 "
                "d_interval=1572865..2097152",
            ),
        ],
    )
    def test_gap_condition_passes_above_k_4095(self, r_hat, summary):
        result = run("verify", "gap-condition", "--rhat", str(r_hat))
        assert result.returncode == 0
        assert result.stdout == (
            f"CHECK gap-condition r_hat={r_hat} PASS\n"
            f"check=gap-condition r_hat={r_hat} result=pass {summary} chain=yes collisions=0\n"
        )

    def test_campaign_reproducible(self):
        args = ("verify", "campaign", "--k", "13", "--r", "4", "--seed", "21")
        first = run(*args)
        second = run(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout


# Modules the codec commands must not load: dataclasses pulls in inspect, the
# oracles hashlib, typing costs milliseconds where site has not loaded it, and
# both verification modules cost compile time on start.
NOT_ON_CODEC_PATH = (
    "dataclasses", "inspect", "hashlib", "typing", "rllindel.oracle", "rllindel.analysis"
)
SRC = str(Path(cli.__file__).resolve().parents[1])


def loaded_after(*argvs, stdin=""):
    """Run cli.main on each argv in a fresh interpreter without site, stdin as given.

    Returns its stdout and which NOT_ON_CODEC_PATH modules it had loaded by
    the end. -S keeps site-packages hooks from loading modules of their own.
    """
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import rllindel\n"
        "import rllindel.cli\n"
        f"for argv in {[list(a) for a in argvs]!r}:\n"
        "    rllindel.cli.main(argv)\n"
        f"sys.stderr.write(' '.join(m for m in {NOT_ON_CODEC_PATH!r} if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, SRC],
        input=stdin, capture_output=True, text=True, timeout=300,
    )
    return result.stdout, result.stderr.split()


class TestImportSet:
    def test_codec_commands_load_only_the_codec(self):
        stdout, loaded = loaded_after(
            ("params", "--k", "13", "--r", "4"),
            ("encode", "--k", "13", "--r", "4"),
            ("decode", "--k", "13", "--r", "4"),
            ("corrupt", "--seed", "7"),
        )
        assert stdout.startswith("k=13\n")
        assert loaded == []

    def test_packed_decode_loads_only_the_codec(self):
        # a k = 4000 word takes decode_message's packed path
        u = BitSeq(bytes(random.Random(4000).getrandbits(1) for _ in range(3999)))
        z = encode_message(u, 4000, 12)
        stdout, loaded = loaded_after(("decode", "--k", "4000", "--r", "12"), stdin=f"{z}\n")
        assert stdout == f"{u}\n"
        assert loaded == []

    def test_campaign_still_loads_its_digest(self):
        stdout, loaded = loaded_after(("verify", "campaign", "--k", "60", "--r", "6", "--seed", "7"))
        assert "hashlib" in loaded and "rllindel.oracle" in loaded
        assert stdout.splitlines()[-1] == (
            "check=channel-campaign k=60 r=6 d=31 b=0 seed=7 result=pass trials=1000 failures=0 "
            "digest=85df0c409a875d3e7b99fdae37dd36e92413269eb1a435b8a2886ea66cac6d61"
        )

    def test_analysis_commands_load_no_typing(self):
        stdout, loaded = loaded_after(
            ("analyze", "redundancy", "--n-min", "14", "--n-max", "20"),
            ("verify", "gap-condition", "--rhat", "4"),
        )
        assert stdout.splitlines()[-1].startswith("check=gap-condition r_hat=4 result=pass ")
        assert "rllindel.analysis" in loaded and "typing" not in loaded


# Each input has a bad second line, so an ERROR line and exit code 3 fall
# in the middle of the run. Each run also sets its environment: under
# PYTHONIOENCODING=utf-8 stdin decodes strictly, and the byte 0xff (written
# here as the surrogate it is read back as) must fail only its own line.
STREAM_RUNS = {
    "encode": (("encode", "--k", "13", "--r", "4"), "010011000101\n01x\n111111111111\n", {}),
    "encode-bad-byte": (
        ("encode", "--k", "13", "--r", "4"),
        "010011000101\n01\udcff0\n010011000101\n",
        {"PYTHONIOENCODING": "utf-8"},
    ),
    "decode": (
        ("decode", "--k", "13", "--r", "4"),
        "10101010111011110010\n0101\n1010101011101111001\n",
        {},
    ),
    "corrupt": (("corrupt", "--seed", "7"), "001111010100001000010\nabc\n0000\n", {}),
}


def run_with(env_update, args, stdin, stderr=subprocess.PIPE):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(env_update)
    return subprocess.run(
        CMD + list(args), input=stdin, stdout=subprocess.PIPE, stderr=stderr,
        encoding="utf-8", errors="surrogateescape", timeout=300, env=env,
    )


class TestOutputStreams:
    @pytest.mark.parametrize("command", sorted(STREAM_RUNS))
    def test_same_bytes_with_and_without_unbuffered_stdout(self, command):
        args, stdin, env = STREAM_RUNS[command]
        buffered = run_with(env, args, stdin)
        unbuffered = run_with({**env, "PYTHONUNBUFFERED": "1"}, args, stdin)
        assert buffered.returncode == unbuffered.returncode == 3
        assert (buffered.stdout, buffered.stderr) == (unbuffered.stdout, unbuffered.stderr)
        assert len(buffered.stdout.splitlines()) == 2
        errors = [line for line in buffered.stderr.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and errors[0].startswith("ERROR 2 ")

    def test_corrupt_logs_each_line_right_after_its_output(self):
        args, stdin, _ = STREAM_RUNS["corrupt"]
        apart = run_with({"PYTHONUNBUFFERED": "1"}, args, stdin)
        merged = run_with({"PYTHONUNBUFFERED": "1"}, args, stdin, stderr=subprocess.STDOUT)
        words = apart.stdout.splitlines()
        logs = apart.stderr.splitlines()
        assert logs[1].startswith("ERROR 2 ")
        assert merged.returncode == 3
        assert merged.stdout.splitlines() == [words[0], logs[0], logs[1], words[1], logs[2]]


# Every command, with arguments and stdin (None for a command that reads
# none) on which it exits 0 when its streams are open. encode's 1000
# codewords overfill a stdout buffer, so a write inside its loop fails, not
# only the flush at the end.
EVERY_COMMAND = {
    "params": (("params", "--k", "13", "--r", "4"), None),
    "encode": (("encode", "--k", "13", "--r", "4"), "010011000101\n" * 1000),
    "decode": (("decode", "--k", "13", "--r", "4"), f"{CODEWORD}\n"),
    "corrupt": (("corrupt", "--seed", "1"), f"{CODEWORD}\n"),
    "verify": (("verify", "front-roundtrip", "--k", "10", "--r", "4"), None),
    "analyze": (("analyze", "redundancy", "--n-min", "14", "--n-max", "15"), None),
    "help": (("--help",), None),
    "encode-help": (("encode", "--help"), None),
    "verify-help": (("verify", "--help"), None),
}


def _read_only(fd: int):
    return lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), fd)


# fault: (what the child does to its fds before exec, where stdout goes --
# a pipe, /dev/full, or a pipe whose reader has gone -- the exit code, and
# the one `rllindel: error:` line on stderr, if any). A command that reads
# no stdin ignores a closed one and exits 0. stderr is not read where the
# fault takes it.
STREAM_FAULTS = {
    "closed-stdin": (lambda: os.close(0), "pipe", 1, "standard input is closed"),
    "closed-stdout": (lambda: os.close(1), "pipe", 1, "standard output is closed"),
    "closed-stderr": (lambda: os.close(2), "pipe", 0, None),
    "read-only-stdout": (_read_only(1), "pipe", 1,
                         f"cannot write standard output: {os.strerror(errno.EBADF)}"),
    "read-only-stderr": (_read_only(2), "pipe", 0, None),
    "full-stdout": (None, "full", 1, f"cannot write standard output: {os.strerror(errno.ENOSPC)}"),
    "reader-gone": (None, "gone", 1, None),
}


class TestStreamFailures:
    """A closed standard stream or a reader that leaves early stops the run with exit 1, no traceback."""

    def test_reader_leaving_early_stops_quietly(self, tmp_path):
        # 20000 codewords are far more than a pipe holds, so the run is still
        # writing when the reader closes its end
        source = tmp_path / "messages.txt"
        source.write_text("010011000101\n" * 20000)
        with open(source) as stdin, open(tmp_path / "stderr.txt", "w+") as stderr:
            proc = subprocess.Popen(
                CMD + ["encode", "--k", "13", "--r", "4"],
                stdin=stdin, stdout=subprocess.PIPE, stderr=stderr,
            )
            first = proc.stdout.readline()
            proc.stdout.close()
            status = proc.wait(timeout=300)
            stderr.seek(0)
            err = stderr.read()
        assert first == b"10101010111011110010\n"
        assert status == 1
        assert err == ""

    @pytest.mark.parametrize(
        "args, closed, stdin, message",
        [
            (("encode", "--k", "13", "--r", "4"), (0,), None, "standard input is closed"),
            (("corrupt", "--seed", "1"), (1,), "0101\n", "standard output is closed"),
            (("decode", "--k", "13", "--r", "4"), (1, 2), "0101\n", None),
            (("params", "--k", "13", "--r", "4"), (1,), None, "standard output is closed"),
            (("verify", "front-roundtrip", "--k", "10", "--r", "4"), (1,), None,
             "standard output is closed"),
            (("verify", "campaign", "--k", "60", "--r", "6", "--seed", "1"), (1, 2), None, None),
            (("analyze", "redundancy", "--n-min", "14", "--n-max", "15"), (1,), None,
             "standard output is closed"),
        ],
        ids=["stdin", "stdout", "stdout-and-stderr", "params-stdout", "verify-stdout",
             "campaign-stdout-and-stderr", "analyze-stdout"],
    )
    def test_closed_stream(self, args, closed, stdin, message):
        def close():
            for fd in closed:
                os.close(fd)

        result = subprocess.run(
            CMD + list(args),
            input=stdin,
            stdout=None if 1 in closed else subprocess.PIPE,
            stderr=None if 2 in closed else subprocess.PIPE,
            preexec_fn=close, text=True, timeout=300,
        )
        assert result.returncode == 1
        if message is not None:
            assert result.stderr == f"rllindel: error: {message}\n"

    @pytest.mark.parametrize(
        "args, stdin, status",
        [
            (("params", "--k", "6", "--r", "4"), None, 2),
            (("decode", "--k", "13", "--r", "4"), f"{CODEWORD}\n0101\n{CODEWORD}\n", 3),
            (("corrupt", "--seed", "1"), f"{CODEWORD}\n0101\n{CODEWORD}\n", 0),
        ],
        ids=["params", "decode", "corrupt"],
    )
    @pytest.mark.parametrize(
        "lose_stderr",
        [lambda: os.close(2), lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2)],
        ids=["closed", "read-only"],
    )
    def test_lost_stderr_keeps_exit_code_and_stdout(self, args, stdin, status, lose_stderr):
        expected = run(*args, stdin=stdin or "")
        assert expected.returncode == status
        result = subprocess.run(
            CMD + list(args), input=stdin, stdout=subprocess.PIPE,
            preexec_fn=lose_stderr, text=True, timeout=300,
        )
        assert result.returncode == status
        assert result.stdout == expected.stdout

    @pytest.mark.parametrize(
        "args",
        [
            ("params", "--k", "13", "--r", "4"),
            ("verify", "gap-condition", "--rhat", "4"),
            ("analyze", "redundancy", "--n-min", "14", "--n-max", "15"),
        ],
        ids=["params", "verify", "analyze"],
    )
    def test_reader_gone_before_the_first_write(self, args):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                CMD + list(args), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == ""

    @pytest.mark.parametrize("args", [("--help",), ("encode", "--help"), ("verify", "sidc", "--help")])
    def test_help_to_a_working_stdout(self, args, monkeypatch):
        # the text is argparse's own help, at the width the child sees too
        monkeypatch.setenv("COLUMNS", "80")
        parser = cli.build_parser()
        for name in args[:-1]:
            [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            parser = commands.choices[name]
        result = run(*args)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == parser.format_help()

    @pytest.mark.parametrize("fault", sorted(STREAM_FAULTS))
    @pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
    def test_every_command_under_every_stream_fault(self, command, fault, tmp_path):
        args, stdin_text = EVERY_COMMAND[command]
        preexec, stdout_target, status, error = STREAM_FAULTS[fault]
        (tmp_path / "stdin.txt").write_text(stdin_text or "")
        read_end, gone = os.pipe()
        os.close(read_end)
        full = os.open("/dev/full", os.O_WRONLY)
        stdout = {"pipe": subprocess.PIPE, "full": full, "gone": gone}[stdout_target]
        try:
            with open(tmp_path / "stdin.txt") as stdin, open(tmp_path / "stderr.txt", "w+") as err:
                result = subprocess.run(
                    CMD + list(args), stdin=stdin, stdout=stdout, stderr=err,
                    preexec_fn=preexec, timeout=300,
                )
                err.seek(0)
                stderr = err.read()
        finally:
            os.close(gone)
            os.close(full)
        if fault == "closed-stdin" and stdin_text is None:
            status, error = 0, None
        assert result.returncode == status
        assert "Traceback" not in stderr
        assert [line for line in stderr.splitlines() if line.startswith("rllindel:")] == (
            [] if error is None else [f"rllindel: error: {error}"]
        )


class TestAnalyze:
    def test_redundancy_table(self):
        result = run("analyze", "redundancy", "--n-min", "14", "--n-max", "100")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "n,r_hat,redundancy,phi,gap"
        assert lines[1] == "14,4,8,3.700616,4.299384"
        assert len(lines) == 88

    def test_blocklength_beyond_a_float(self):
        n = str(10**400)
        result = run("analyze", "redundancy", "--n-min", n, "--n-max", n)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == f"n,r_hat,redundancy,phi,gap\n{n},1329,1333,1328.771238,4.228762\n"

    def test_rows_are_the_text_of_emit_csv(self):
        result = run("analyze", "redundancy", "--n-min", "14", "--n-max", "300")
        assert result.returncode == 0
        assert result.stdout == emit_csv([redundancy_row(n) for n in range(14, 301)])

    def test_rows_are_written_as_they_are_computed(self):
        # a table built before its first write would take hours and far more
        # memory than the host has; the child is killed if the lines are late,
        # and its address space is capped at 512 MB
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        proc = subprocess.Popen(
            CMD + ["analyze", "redundancy", "--n-min", "14", "--n-max", "1000000000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=cap_memory,
        )
        deadline = time.monotonic() + 10
        try:
            head = b""
            fd = proc.stdout.fileno()
            while head.count(b"\n") < 2:
                if not select.select([fd], [], [], max(0, deadline - time.monotonic()))[0]:
                    break
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                head += chunk
            proc.stdout.close()
            status = proc.wait(timeout=max(0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert head.split(b"\n")[:2] == [b"n,r_hat,redundancy,phi,gap", b"14,4,8,3.700616,4.299384"]
        assert status == 1
        assert proc.stderr.read() == b""

    def test_below_band_exits_2(self):
        result = run("analyze", "redundancy", "--n-min", "10", "--n-max", "20")
        assert result.returncode == 2

    def test_reversed_range_exits_2(self):
        result = run("analyze", "redundancy", "--n-min", "20", "--n-max", "14")
        assert result.returncode == 2


# One or more bad-parameter calls per subcommand and suite, each with the
# reason it must print. corrupt takes no parameter the library can reject
# (any integer seeds the stream; argparse checks --op).
BAD_PARAMETERS = [
    ("params --k 6 --r 4", "message-part length must be at least 7 (got k=6)"),
    (
        "params --k 14 --r 4 --d 5",
        "(k, r, d) = (14, 4, 5) is excluded: the parity fallback cannot "
        "guarantee the run-length limit for this triple",
    ),
    ("params --k 14 --r 4 --b 99", "residue b=99 is outside [0, 31]"),
    ("encode --k 13 --r 4 --b 99", "residue b=99 is outside [0, 30]"),
    ("encode --raw --k 14 --r 3", "run limit r=3 is below r_hat=4"),
    ("decode --k 6 --r 4", "message-part length must be at least 7 (got k=6)"),
    ("decode --raw --k 14 --r 4 --d 99", "free coefficient d=99 is outside [5, 7] for r_hat=4"),
    (
        "verify front-roundtrip --k 16 --r 5",
        "exhaustive round-trip check is capped at k = 15 (got k=16)",
    ),
    (
        "verify front-roundtrip --k 16 --r 4",
        "k=16 with r=4 is rejected: it exceeds the feasibility bound 2^r + r - 5 = 15",
    ),
    (
        "verify front-roundtrip --k 31 --r 5",
        "k=31 with r=5 is rejected: for r >= 5 the front end accepts k <= 2^r + r - 7 = 30, "
        "as at 2^r + r - 6 and 2^r + r - 5 the encoder is not injective",
    ),
    ("verify front-roundtrip --k 5 --r 1", "run limit must be at least 3 (got r=1)"),
    ("verify front-roundtrip --k 3 --r 2", "run limit must be at least 3 (got r=2)"),
    (
        "verify sidc --n-min 16 --n-max 17 --rhat 4 --d 6",
        "ball-disjointness check is capped at n = 16 (got n=17)",
    ),
    (
        f"verify sidc --n-min 1 --n-max 5 --rhat {10**20} --d 5",
        f"free coefficient d=5 is outside [2^{10**20 - 2} + 1, 2^{10**20 - 1} - 1] "
        f"for r_hat={10**20}",
    ),
    ("verify sidc --n-min 5 --n-max 3 --rhat 4 --d 6", "--n-min 5 exceeds --n-max 3"),
    (
        "verify sidc --n-min 1 --n-max 3 --rhat 3 --d 6",
        "shape parameter must be at least 4 (got r_hat=3)",
    ),
    ("verify sidc --n-min 1 --n-max 3 --rhat 4 --d 6 --b -1", "residue b=-1 is outside [0, 1]"),
    ("verify encoder-rll --k 0 --r 4", "message-part length must be at least 7 (got k=0)"),
    ("verify encoder-rll --k 20 --r 3", "run limit r=3 is below r_hat=5"),
    *(
        (
            f"verify gap-condition --rhat {r_hat}",
            f"sweep supports 4 <= r_hat <= 64, the shapes of every k below 2^64 - 1 (got {r_hat})",
        )
        for r_hat in (2, 65, 10**22)
    ),
    ("verify campaign --k 6 --r 4 --seed 1", "message-part length must be at least 7 (got k=6)"),
    ("verify campaign --k 13 --r 4 --b 999 --seed 1", "residue b=999 is outside [0, 30]"),
    # no command builds a run pattern before the limit is checked against n
    *(
        (f"{command} --k 13 --r {10**22}", f"run limit r={10**22} exceeds the code length n=20")
        for command in (
            "params", "encode", "decode --raw", "verify encoder-rll", "verify campaign --seed 1"
        )
    ),
    ("analyze redundancy --n-min 3 --n-max 20", "blocklength must be at least 14 (got n=3)"),
    ("analyze redundancy --n-min 20 --n-max 14", "--n-min 20 exceeds --n-max 14"),
]


@pytest.mark.parametrize("args, reason", BAD_PARAMETERS, ids=[a for a, _ in BAD_PARAMETERS])
def test_bad_parameters_exit_2(args, reason):
    result = run(*args.split(), stdin="0101\n")
    assert result.returncode == 2
    assert result.stderr == f"parameter error: {reason}\n"
    assert result.stdout == ""


def _main(argv, stdin):
    """cli.main in this process on the given stdin text; returns the exit code."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli.main(argv)
    finally:
        sys.stdin = saved


flag = st.integers(min_value=-3, max_value=70).map(str)
lines = st.lists(
    st.one_of(st.text(alphabet="01", max_size=90), st.text(max_size=6)), max_size=4
).map(lambda items: "".join(item + "\n" for item in items))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["params", "encode", "decode", "corrupt"]))
    if command == "corrupt":
        op = draw(st.sampled_from(["insert", "delete", "random"]))
        return ["corrupt", "--seed", draw(flag), "--op", op]
    argv = [command, "--k", draw(flag), "--r", draw(flag)]
    for name in ("--d", "--b"):
        if draw(st.booleans()):
            argv += [name, draw(flag)]
    if command != "params" and draw(st.booleans()):
        argv.append("--raw")
    return argv


@settings(max_examples=300, deadline=None)
@given(invocations(), lines)
def test_main_never_raises(argv, stdin):
    assert _main(argv, stdin) in (0, 2, 3)
