"""Command-line interface: subcommands, streaming behavior, and exit codes."""
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllindel import cli

CMD = [sys.executable, "-m", "rllindel"]


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

    def test_pipeline_rejects_infeasible_pair(self):
        result = run("encode", "--k", "14", "--r", "4", stdin="1" * 13 + "\n")
        assert result.returncode == 2


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

    def test_rejected_pair_exits_2(self):
        result = run("verify", "front-roundtrip", "--k", "14", "--r", "4")
        assert result.returncode == 2

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


def loaded_after(*argvs):
    """Run cli.main on each argv in a fresh interpreter without site, stdin empty.

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
        input="", capture_output=True, text=True, timeout=300,
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
# in the middle of the run.
STREAM_RUNS = {
    "encode": (("encode", "--k", "13", "--r", "4"), "010011000101\n01x\n111111111111\n"),
    "decode": (
        ("decode", "--k", "13", "--r", "4"),
        "10101010111011110010\n0101\n1010101011101111001\n",
    ),
    "corrupt": (("corrupt", "--seed", "7"), "001111010100001000010\nabc\n0000\n"),
}


def run_with(env_update, args, stdin, stderr=subprocess.PIPE):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(env_update)
    return subprocess.run(
        CMD + list(args), input=stdin, stdout=subprocess.PIPE, stderr=stderr,
        text=True, timeout=300, env=env,
    )


class TestOutputStreams:
    @pytest.mark.parametrize("command", sorted(STREAM_RUNS))
    def test_same_bytes_with_and_without_unbuffered_stdout(self, command):
        args, stdin = STREAM_RUNS[command]
        buffered = run_with({}, args, stdin)
        unbuffered = run_with({"PYTHONUNBUFFERED": "1"}, args, stdin)
        assert buffered.returncode == unbuffered.returncode == 3
        assert (buffered.stdout, buffered.stderr) == (unbuffered.stdout, unbuffered.stderr)
        assert len(buffered.stdout.splitlines()) == 2
        errors = [line for line in buffered.stderr.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and errors[0].startswith("ERROR 2 ")

    def test_corrupt_logs_each_line_right_after_its_output(self):
        args, stdin = STREAM_RUNS["corrupt"]
        apart = run_with({"PYTHONUNBUFFERED": "1"}, args, stdin)
        merged = run_with({"PYTHONUNBUFFERED": "1"}, args, stdin, stderr=subprocess.STDOUT)
        words = apart.stdout.splitlines()
        logs = apart.stderr.splitlines()
        assert logs[1].startswith("ERROR 2 ")
        assert merged.returncode == 3
        assert merged.stdout.splitlines() == [words[0], logs[0], logs[1], words[1], logs[2]]


class TestAnalyze:
    def test_redundancy_table(self):
        result = run("analyze", "redundancy", "--n-min", "14", "--n-max", "100")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "n,r_hat,redundancy,phi,gap"
        assert lines[1] == "14,4,8,3.700616,4.299384"
        assert len(lines) == 88

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
        "verify front-roundtrip --k 14 --r 5",
        "exhaustive round-trip check is capped at k = 13 (got k=14)",
    ),
    ("verify front-roundtrip --k 5 --r 1", "run limit must be at least 3 (got r=1)"),
    ("verify front-roundtrip --k 3 --r 2", "run limit must be at least 3 (got r=2)"),
    (
        "verify sidc --n-min 16 --n-max 17 --rhat 4 --d 6",
        "ball-disjointness check is capped at n = 16 (got n=17)",
    ),
    ("verify sidc --n-min 5 --n-max 3 --rhat 4 --d 6", "--n-min 5 exceeds --n-max 3"),
    (
        "verify sidc --n-min 1 --n-max 3 --rhat 3 --d 6",
        "shape parameter must be at least 4 (got r_hat=3)",
    ),
    ("verify sidc --n-min 1 --n-max 3 --rhat 4 --d 6 --b -1", "residue b=-1 is outside [0, 1]"),
    ("verify encoder-rll --k 0 --r 4", "message-part length must be at least 7 (got k=0)"),
    ("verify encoder-rll --k 20 --r 3", "run limit r=3 is below r_hat=5"),
    ("verify gap-condition --rhat 2", "sweep supports 4 <= r_hat <= 12 (got 2)"),
    ("verify gap-condition --rhat 13", "sweep supports 4 <= r_hat <= 12 (got 13)"),
    ("verify campaign --k 6 --r 4 --seed 1", "message-part length must be at least 7 (got k=6)"),
    ("verify campaign --k 13 --r 4 --b 999 --seed 1", "residue b=999 is outside [0, 30]"),
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
