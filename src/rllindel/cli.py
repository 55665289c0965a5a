"""Command-line front door for the codec.

Subcommands cover parameter derivation, encoding and decoding (full pipeline
or the congruence layer alone), reproducible channel corruption, the
verification suites, and the redundancy table. Text protocol throughout:
one bit sequence per line on stdin and stdout, reports and event logs on
stderr where noted.

Exit codes are part of the contract: 0 success, 1 usage, 2 parameter
validation, 3 data error on at least one input line, 4 verification failure.
The library rejects input only with CodecError subclasses; main maps a
ValidationError to 2 and a DataError to 3, and the per-line commands report
a DataError for its line and carry on with the next. Every command exits 1,
without a traceback, when its standard output is closed, and a per-line
command also when its standard input is closed (with one
`rllindel: error: standard output is closed` or `input` line on stderr).
Every command also exits 1 when a write to its standard output fails: with
one `rllindel: error: cannot write standard output: <reason>` line on
stderr, or silently when the reader of its output leaves early (a broken
pipe); main alone catches both. The help texts are held to the same rules:
argparse prints them through _Parser._print_message, inside main's try.
Every stdout write goes through _to_stdout and every stderr line through
_to_stderr, which swaps a closed or unwritable stderr for the null device,
so the run and its exit code go on and nothing meant for stderr reaches
stdout.

Start-up is part of every command's cost, so this module loads only the
codec: the channel, the oracles and the analysis are imported by the
handlers that use them.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable

from .bitseq import BitSeq
from .code import derive_params, embed_encode, encode_message, params_text
from .decoder import correct, decode_message
from .errors import DataError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STREAM = 1
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_VERIFY = 4

_CAMPAIGN_TRIALS = 1000


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on a usage problem and writes through _to_stdout and _to_stderr."""

    def error(self, message):
        _to_stderr(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(EXIT_USAGE)

    def _print_message(self, message, file=None):
        # help and usage go to stdout, flushed so a failed write surfaces in main
        if file is sys.stdout:
            _to_stdout(message, flush=True)
        elif message:
            _to_stderr(message.rstrip("\n"))


class _StdoutError(Exception):
    """A write to stdout failed other than by a broken pipe; the text is the reason."""


def _to_stdout(text: str, flush: bool = False) -> None:
    """Write text to stdout, then flush it if asked; any failure but a broken pipe raises _StdoutError."""
    try:
        sys.stdout.write(text)
        if flush:
            sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _StdoutError(exc.strerror or exc) from None


def _to_stderr(line: str) -> None:
    """Write one line to stderr; a closed (None) or unwritable stderr becomes the null device."""
    try:
        sys.stderr.write(f"{line}\n")
    except (AttributeError, OSError):
        sys.stderr = open(os.devnull, "w")


def _for_each_line(transform: Callable[[int, str], object], logged: bool = False) -> int:
    """Write transform(number, line) for each stdin line as one stdout line.

    Each line takes one write, so an unbuffered stdout makes one system call
    per line. With logged, transform returns (result, log) and the log line
    goes to stderr right after its result. A DataError is reported as
    `ERROR number reason` on stderr and the next line goes on. A byte stdin's
    encoding cannot decode becomes a lone surrogate, which fails its line as
    an invalid character, whatever error handler stdin was opened with. A
    closed stdin ends the run with EXIT_STREAM; main has already checked
    stdout, and it handles a failed write.
    """
    if sys.stdin is None:
        _to_stderr("rllindel: error: standard input is closed")
        return EXIT_STREAM
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(errors="surrogateescape")
    failed = False
    for number, raw in enumerate(sys.stdin, start=1):
        try:
            result = transform(number, raw.strip())
        except DataError as exc:
            failed = True
            _to_stderr(f"ERROR {number} {exc}")
            continue
        if logged:
            result, log = result
            _to_stdout(f"{result}\n")
            _to_stderr(log)
        else:
            _to_stdout(f"{result}\n")
    return EXIT_DATA if failed else EXIT_OK


def _cmd_params(args) -> int:
    cp = derive_params(args.k, args.r, args.d, args.b)
    _to_stdout(params_text(cp))
    return EXIT_OK


def _cmd_encode(args) -> int:
    cp = derive_params(args.k, args.r, args.d, args.b)
    if args.raw:
        def transform(number: int, text: str) -> BitSeq:
            return embed_encode(cp, BitSeq.parse(text))
    else:
        def transform(number: int, text: str) -> BitSeq:
            return encode_message(BitSeq.parse(text), args.k, args.r, args.d, args.b)
    return _for_each_line(transform)


def _cmd_decode(args) -> int:
    cp = derive_params(args.k, args.r, args.d, args.b)
    if args.raw:
        def transform(number: int, text: str) -> BitSeq:
            return correct(cp, BitSeq.parse(text))[cp.m :]
    else:
        def transform(number: int, text: str) -> BitSeq:
            return decode_message(cp, BitSeq.parse(text))
    return _for_each_line(transform)


def _cmd_corrupt(args) -> int:
    from .channel import DELETION, INSERTION, log_line, random_event, trial_seed

    kind = {"insert": INSERTION, "delete": DELETION, "random": None}[args.op]

    def transform(number: int, text: str) -> tuple[str, str]:
        # isascii reads a flag the str keeps; a line of 0s and 1s alone is left empty by translate
        if not text.isascii() or text.encode().translate(None, b"01"):
            BitSeq.parse(text)  # raises the DataError that names the first foreign character
        # random_event rejects the null word
        event = random_event(len(text), trial_seed(args.seed, number - 1), kind)
        i = event.position - 1
        if event.kind == INSERTION:
            return text[:i] + "01"[event.symbol] + text[i:], log_line(event)
        return text[:i] + text[i + 1 :], log_line(event)

    return _for_each_line(transform, logged=True)


def _emit_reports(reports) -> int:
    ok = True
    for report in reports:
        _to_stdout(report.render())
        ok = ok and report.passed
    return EXIT_OK if ok else EXIT_VERIFY


def _verify_front_roundtrip(args) -> int:
    from .oracle import check_front_roundtrip

    return _emit_reports([check_front_roundtrip(args.k, args.r)])


def _check_range(args) -> None:
    if args.n_min > args.n_max:
        raise ValidationError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")


def _verify_sidc(args) -> int:
    from .oracle import check_sidc_range

    _check_range(args)
    return _emit_reports(check_sidc_range(args.n_min, args.n_max, args.rhat, args.d, args.b))


def _verify_encoder_rll(args) -> int:
    from .oracle import DEFAULT_SAMPLE_SEED, check_encoder_rll

    seed = DEFAULT_SAMPLE_SEED if args.seed is None else args.seed
    return _emit_reports([check_encoder_rll(args.k, args.r, args.d, seed=seed)])


def _verify_gap_condition(args) -> int:
    from .analysis import gap_condition_check

    return _emit_reports([gap_condition_check(args.rhat)])


def _verify_campaign(args) -> int:
    from .oracle import check_channel_campaign

    report = check_channel_campaign(args.k, args.r, _CAMPAIGN_TRIALS, args.seed, args.d, args.b)
    return _emit_reports([report])


def _cmd_analyze(args) -> int:
    from .analysis import CSV_HEADER, csv_line, redundancy_row

    _check_range(args)
    # one write per row, as it is computed; the first row, computed before
    # any write, rejects a range below the band
    rows = map(redundancy_row, range(args.n_min, args.n_max + 1))
    _to_stdout(CSV_HEADER + csv_line(next(rows)))
    for row in rows:
        _to_stdout(csv_line(row))
    return EXIT_OK


def _add_code_flags(parser: argparse.ArgumentParser, with_raw: bool = False) -> None:
    parser.add_argument("--k", type=int, required=True, help="message-part length")
    parser.add_argument("--r", type=int, required=True, help="maximum run length")
    parser.add_argument("--d", type=int, help="solved-position weight (default: top of range)")
    parser.add_argument("--b", type=int, help="congruence residue (default: 0)")
    if with_raw:
        parser.add_argument(
            "--raw",
            action="store_true",
            help="congruence layer only: run-limited words in, codewords out",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rllindel",
        description="Run-length-limited codec correcting one insertion or deletion.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("params", help="derive and print code parameters")
    _add_code_flags(p)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("encode", help="encode stdin lines into codewords")
    _add_code_flags(p, with_raw=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode stdin lines, fixing one indel")
    _add_code_flags(p, with_raw=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser(
        "corrupt",
        help="apply one seeded random indel per line; event log on stderr",
    )
    p.add_argument("--seed", type=int, required=True, help="base seed; line i uses trial i-1")
    p.add_argument(
        "--op",
        choices=("insert", "delete", "random"),
        default="random",
        help="event kind (default: random)",
    )
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("verify", help="run a verification suite")
    suites = p.add_subparsers(dest="suite", required=True, metavar="suite")

    s = suites.add_parser(
        "front-roundtrip",
        help="exhaustive front-end round trip over all messages",
    )
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.set_defaults(func=_verify_front_roundtrip)

    s = suites.add_parser(
        "sidc",
        help="single-deletion ball disjointness by enumeration",
    )
    s.add_argument("--n-min", type=int, required=True)
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--rhat", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--b", type=int, help="single residue (default: all residues)")
    s.set_defaults(func=_verify_sidc)

    s = suites.add_parser(
        "encoder-rll",
        help="encoder outputs stay run-limited codewords (exhaustive for k <= 10)",
    )
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--d", type=int)
    s.add_argument("--seed", type=int)
    s.set_defaults(func=_verify_encoder_rll)

    s = suites.add_parser(
        "gap-condition",
        help="parity-collision sweep over one blocklength band",
    )
    s.add_argument("--rhat", type=int, required=True)
    s.set_defaults(func=_verify_gap_condition)

    s = suites.add_parser(
        "campaign",
        help=f"{_CAMPAIGN_TRIALS} seeded encode-corrupt-decode trials",
    )
    _add_code_flags(s)
    s.add_argument("--seed", type=int, required=True)
    s.set_defaults(func=_verify_campaign)

    p = sub.add_parser("analyze", help="emit analysis tables as CSV")
    tables = p.add_subparsers(dest="table", required=True, metavar="table")
    t = tables.add_parser(
        "redundancy",
        help="redundancy and bound gap per blocklength",
    )
    t.add_argument("--n-min", type=int, required=True)
    t.add_argument("--n-max", type=int, required=True)
    t.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # every command writes its results to stdout, and --help its text
        if sys.stdout is None:
            _to_stderr("rllindel: error: standard output is closed")
            return EXIT_STREAM
        args = parser.parse_args(argv)
        status = args.func(args)
        # a reader that left or a full disk must fail this flush, not the one at exit
        _to_stdout("", flush=True)
        return status
    except (BrokenPipeError, _StdoutError) as exc:
        # a reader that left is no error to report
        if isinstance(exc, _StdoutError):
            _to_stderr(f"rllindel: error: cannot write standard output: {exc}")
        # the output still buffered goes to the null device at exit, so its
        # flush cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STREAM
    except ValidationError as exc:
        _to_stderr(f"parameter error: {exc}")
        return EXIT_VALIDATION
    except DataError as exc:
        _to_stderr(f"data error: {exc}")
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
