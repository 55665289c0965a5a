"""Brute-force verification oracles: exhaustive at desk scale, sampled beyond.

Every reconciled design choice in the codec is arbitrated here by direct
enumeration rather than by trusting a derivation. Guards are hard caps with
explicit errors: an "exhaustive" verdict must mean exhaustive, so oversized
requests fail instead of silently sampling.

The exhaustive suites take their words from one generator, _words: every
n-symbol word as bytes, one byte per symbol, in lexicographic order.
enumerate_rll is a filter over it that keeps the words without a run longer
than r, so it keeps that order and, like the other suites, walks all 2^n
words under the one enumeration cap. A word's weighted sum is code._weight,
the codec's one weighted sum. The sidc check enumerates each code length
once and splits the words by residue, whether it checks every residue or
only one.

Report is the one report type of the verification layer; the gap-condition
sweep in analysis returns it too. It renders as two text lines: a
human-readable `CHECK <name> <params> PASS|FAIL [counterexample]` line and a
machine-readable `key=value` summary line. The counterexample is printed
whenever it is set: the suites here set it only when they fail, the sweep
also to the collision it expects.

The channel campaign picks its own job count: one per usable CPU, but none
with fewer than _MIN_TRIALS_PER_JOB trials, and one where os.fork or
os.sched_getaffinity is missing or another thread runs. It splits its trials
into that many contiguous index blocks and runs all but the last in forked
child processes at once. A block's one result is its trial log, a line
`index kind position symbol outcome` per trial, and a child writes only
that text to its pipe. Every trial seeds itself from (base seed, index),
and the parent joins the blocks' logs in index order; the digest, the
failure count (the lines whose outcome is 0) and the counterexample (the
first failing trial, run again) are read off the joined log, so the report
is the same however many blocks run. If any block yields no log, all
trials run once more serially in this process, which raises or reports
exactly as a serial run; there is no other failure path.
"""
from __future__ import annotations

import hashlib
import os
import threading
from itertools import product

from .bitseq import BitSeq, _run_patterns, is_rll, is_zero_constrained, le_encode
from .channel import ChannelEvent, Stream, apply_event, log_line, random_event, trial_seed
from .code import (
    _EXCLUDED_TRIPLE,
    CodeParams,
    _weight,
    derive_params,
    embed_encode,
    encode_message,
    is_codeword,
    raw_params,
)
from .decoder import decode_message
from .errors import CodecError, InvariantError, ValidationError
from .front import FrontParams, wi_decode, wi_encode

DEFAULT_SAMPLE_TRIALS = 100_000
DEFAULT_SAMPLE_SEED = 0x1D5EED

_ENUM_CAP = 24
_SIDC_CAP = 16
_ROUNDTRIP_CAP = 15
# Fewest trials worth a forked campaign job. Forking, piping and reaping one
# child cost 1.4-1.6 ms (median of 30; up to 3.4 ms) on one pinned CPU of a
# 2-vCPU host (Python 3.11.7), the time of 28-56 trials at the cheapest
# parameters (k = 7, 28-49 us a trial; k = 60 takes 37-63 us); a k = 4000
# trial (145-200 us) pays for a fork in 7-11.
_MIN_TRIALS_PER_JOB = 50


class Report:
    """Outcome of one oracle run, renderable in the two-line report format."""

    def __init__(
        self,
        name: str,
        params: dict,
        passed: bool,
        counterexample: str | None = None,
        stats: dict | None = None,
    ) -> None:
        self.name = name
        self.params = params
        self.passed = passed
        self.counterexample = counterexample
        self.stats = {} if stats is None else stats

    def lines(self) -> list[str]:
        ptext = " ".join(f"{key}={value}" for key, value in self.params.items())
        head = f"CHECK {self.name} {ptext} {'PASS' if self.passed else 'FAIL'}"
        if self.counterexample:
            head += f" {self.counterexample}"
        summary = [f"check={self.name}", ptext, f"result={'pass' if self.passed else 'fail'}"]
        summary += [f"{key}={value}" for key, value in self.stats.items()]
        return [head, " ".join(summary)]

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"


def _words(n: int):
    """Every n-symbol word as bytes, one byte per symbol, in lexicographic order."""
    return map(bytes, product((0, 1), repeat=n))


def enumerate_rll(n: int, r: int) -> list[BitSeq]:
    """All length-n words with maximum run-length <= r, in lexicographic order."""
    if n < 1:
        raise ValidationError(f"length must be positive (got n={n})")
    # the cap comes first: at r >= n, _run_patterns builds two words of n + 1 symbols
    if n > _ENUM_CAP:
        raise ValidationError(f"exhaustive enumeration is capped at n = {_ENUM_CAP} (got n={n})")
    # _run_patterns rejects r < 1
    zeros, ones = _run_patterns(r, n)
    return [BitSeq._wrap(word) for word in _words(n) if zeros not in word and ones not in word]


def _codes(params: CodeParams, residues) -> dict[int, list[BitSeq]]:
    """Each residue's length-n codewords, lexicographically, from one pass over all words."""
    n = params.n
    if n > _ENUM_CAP:
        raise ValidationError(f"exhaustive enumeration is capped at n = {_ENUM_CAP} (got n={n})")
    modulus = params.modulus
    codes = {residue: [] for residue in residues}
    for word in _words(n):
        code = codes.get(_weight(params, word) % modulus)
        if code is not None:
            code.append(BitSeq._wrap(word))
    return codes


def enumerate_codewords(params: CodeParams) -> list[BitSeq]:
    """All length-n words whose weighted sum hits the residue, lexicographically.

    Takes a CodeParams from derive_params or, for code lengths below the
    encoder minimum, from raw_params.
    """
    return _codes(params, [params.b])[params.b]


def deletion_balls_disjoint(words) -> tuple[bool, tuple[BitSeq, BitSeq] | None]:
    """Check that no two distinct words share a single-deletion result.

    Returns (True, None) or (False, (word_a, word_b)) for the first clash.
    Shared helper so negative controls can probe arbitrary word sets.
    """
    seen: dict[bytes, bytes] = {}
    for w in words:
        data = w.tobytes()
        for i in range(len(data)):
            key = data[:i] + data[i + 1 :]
            prev = seen.get(key)
            if prev is not None and prev != data:
                return False, (BitSeq._wrap(prev), BitSeq._wrap(data))
            seen[key] = data
    return True, None


def check_sidc(n: int, r_hat: int, d: int, b: int) -> bool:
    """True iff the single-deletion balls of all distinct codewords are disjoint."""
    return check_sidc_range(n, n, r_hat, d, b)[0].passed


def check_sidc_range(n_min: int, n_max: int, r_hat: int, d: int, b: int | None = None) -> list[Report]:
    """One sidc report per code length n_min..n_max, over every residue or only b.

    Each length's words are enumerated once and split by residue. An n_max
    above the cap is rejected before any length is enumerated.
    """
    if n_max > _SIDC_CAP:
        raise ValidationError(
            f"ball-disjointness check is capped at n = {_SIDC_CAP} (got n={n_max})"
        )
    reports = []
    for n in range(n_min, n_max + 1):
        params = raw_params(n, r_hat, d, 0 if b is None else b)
        residues = range(params.modulus) if b is None else [b]
        codes = _codes(params, residues)
        failed = [residue for residue in residues if not deletion_balls_disjoint(codes[residue])[0]]
        reports.append(
            Report(
                name="sidc",
                params={"n": n, "r_hat": r_hat, "d": d, "b": "all" if b is None else b},
                passed=not failed,
                counterexample=f"b={failed[0]}" if failed else None,
                stats={"residues": len(residues), "failures": len(failed)},
            )
        )
    return reports


def _random_word(stream: Stream, bits: int) -> BitSeq:
    """bits random symbols: symbol j is bit j of the next ceil(bits/64) outputs, first lowest.

    The outputs come from one Stream.next_packed draw, which mixes them all
    in one lane-parallel big-int pass, so the draw is O(bits) and not
    O(bits^2/64) as OR-ing scalar outputs into a growing int would be.
    """
    value = stream.next_packed((bits + 63) // 64)
    return le_encode(value & ((1 << bits) - 1), bits)


def check_encoder_rll(
    k: int,
    r: int,
    d: int | None = None,
    trials: int = DEFAULT_SAMPLE_TRIALS,
    seed: int = DEFAULT_SAMPLE_SEED,
) -> Report:
    """Verify that every encoder output lands in the code and within the run limit.

    Exhaustive over all run-limited message parts and all residues for k <= 10;
    sampled with a fixed-seed stream otherwise. For the excluded parameter
    triple the run is sampled and the report simply states what was observed.
    A negative trial count is rejected in either mode.
    """
    if trials < 0:
        raise ValidationError(f"trial count must be non-negative (got trials={trials})")
    if (k, r, d) == _EXCLUDED_TRIPLE:
        # the one deliberately excluded triple still gets probed by the oracle (r_hat = r)
        cp0 = CodeParams.unchecked(k, r, r, d, 0)
    else:
        cp0 = derive_params(k, r, d, 0)
    if k <= 10:
        mode = "exhaustive"
        words = enumerate_rll(k, r)
        total = len(words) * cp0.modulus
        pairs = ((y, b) for y in words for b in range(cp0.modulus))
    else:
        mode = "sampled"
        total = trials
        pairs = _sampled_pairs(Stream(seed), k, r, cp0.modulus, trials)
    violations = []
    for y, b in pairs:
        bad = _embed_violates(cp0._replace(b=b), y)
        if bad:
            violations.append(f"y={y} b={b} {bad}")
    return Report(
        name="encoder-rll",
        params={"k": k, "r": r, "d": cp0.d},
        passed=not violations,
        counterexample=violations[0] if violations else None,
        stats={"mode": mode, "encodes": total, "violations": len(violations)},
    )


def _sampled_pairs(stream: Stream, k: int, r: int, modulus: int, trials: int):
    """trials (run-limited word, residue) pairs: a word redrawn until run-limited, then b."""
    for _ in range(trials):
        y = _random_word(stream, k)
        while not is_rll(y, r):
            y = _random_word(stream, k)
        yield y, stream.below(modulus)


def _embed_violates(cp: CodeParams, y: BitSeq) -> str | None:
    try:
        z = embed_encode(cp, y)
    except InvariantError:
        return "fallback-parity-run"
    if not is_rll(z, cp.r):
        return "run-limit"
    if not is_codeword(cp, z):
        return "membership"
    return None


def check_front_roundtrip(k: int, r: int) -> Report:
    """Exhaustively round-trip every message through the replacement front-end.

    Asserts output length, the zero-run constraint, pairwise distinctness, and
    decode-encode identity over all 2^(k-1) messages. k is capped at
    _ROUNDTRIP_CAP; r is not, as no limit above k binds.
    """
    fp = FrontParams(k, r)
    if k > _ROUNDTRIP_CAP:
        raise ValidationError(
            f"exhaustive round-trip check is capped at k = {_ROUNDTRIP_CAP} (got k={k})"
        )
    problems = []
    seen: dict[BitSeq, BitSeq] = {}
    for data in _words(k - 1):
        u = BitSeq._wrap(data)
        x = wi_encode(u, fp)
        problem = None
        if len(x) != k:
            problem = "length"
        elif not is_zero_constrained(x, r):
            problem = "zero-run"
        elif x in seen:
            problem = f"collision-with u={seen[x]}"
        else:
            seen[x] = u
            try:
                if wi_decode(x, fp) != u:
                    problem = "roundtrip-mismatch"
            except CodecError as exc:
                problem = f"decode-error ({exc})"
        if problem:
            problems.append(f"u={u} x={x} {problem}")
    return Report(
        name="front-roundtrip",
        params={"k": k, "r": r},
        passed=not problems,
        counterexample=problems[0] if problems else None,
        stats={"messages": 1 << (k - 1), "failures": len(problems)},
    )


def check_channel_campaign(
    k: int,
    r: int,
    trials: int,
    base_seed: int,
    d: int | None = None,
    b: int | None = None,
) -> Report:
    """Seeded end-to-end trials: encode, corrupt with one random indel, decode.

    Each trial derives its own stream from (base_seed, index), draws a random
    message, transmits it through the channel, and checks message recovery.
    It logs one line `index kind position symbol outcome`, the outcome 1 if
    the message came back and 0 if not. The report digest is the sha256 of
    the log in trial order, so two runs with equal arguments must render
    byte-identically. A negative trial count is rejected.

    The trial indices are split into _jobs(trials) contiguous blocks; every
    block but the last runs in a child forked with os.fork, the last in this
    process. The blocks' logs are joined in index order and the report is
    read off the joined log: the digest, the failure count (the lines whose
    outcome is 0) and the counterexample, built by running the first failing
    trial again. So the report is the same for every job count. If any block
    yields no log (its child failed or never started, or the last block
    raised), every trial runs once more serially in this process, which
    raises or reports exactly as a single job.
    """
    if trials < 0:
        raise ValidationError(f"trial count must be non-negative (got trials={trials})")
    cp = derive_params(k, r, d, b)
    jobs = _jobs(trials)
    bounds = [(trials * j // jobs, trials * (j + 1) // jobs) for j in range(jobs)]
    blocks = _campaign_blocks(cp, base_seed, bounds) if jobs > 1 else None
    # one job, or a block gave no log: every trial runs here, as one serial block
    log = "".join(blocks or [_campaign_block(cp, base_seed, 0, trials)])
    # a line's last field is its outcome, 0 for a failed trial
    failed = [int(line.split(" ", 1)[0]) for line in log.splitlines() if line.endswith(" 0")]
    counterexample = None
    if failed:
        # the trial seeds itself, so running it again gives the same message and event
        u, event, _ = _trial(cp, base_seed, failed[0])
        counterexample = f"trial={failed[0]} u={u} event=({log_line(event)})"
    digest = hashlib.sha256(log.encode()).hexdigest()
    return Report(
        name="channel-campaign",
        params={"k": k, "r": r, "d": cp.d, "b": cp.b, "seed": base_seed},
        passed=not failed,
        counterexample=counterexample,
        stats={"trials": trials, "failures": len(failed), "digest": digest},
    )


def _jobs(trials: int) -> int:
    """One job per usable CPU, but none with fewer than _MIN_TRIALS_PER_JOB trials.

    One job where os.fork or os.sched_getaffinity is missing, or where
    another thread runs: a forked child holds only the forking thread.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), max(1, trials // _MIN_TRIALS_PER_JOB))


def _trial(cp: CodeParams, base_seed: int, index: int) -> tuple[BitSeq, ChannelEvent, bool]:
    """Trial index: (its message, its channel event, whether the message decoded back)."""
    stream = Stream(trial_seed(base_seed, index))
    u = _random_word(stream, cp.k - 1)
    event = random_event(cp.n, stream.next())
    received = apply_event(encode_message(u, cp.k, cp.r, cp.d, cp.b), event)
    try:
        ok = decode_message(cp, received) == u
    except CodecError:
        ok = False
    return u, event, ok


def _campaign_block(cp: CodeParams, base_seed: int, lo: int, hi: int) -> str:
    """Trials lo..hi-1 as their log lines `index kind position symbol outcome`, joined."""
    lines = []
    for index in range(lo, hi):
        _, event, ok = _trial(cp, base_seed, index)
        lines.append(f"{index} {log_line(event)} {int(ok)}\n")
    return "".join(lines)


def _campaign_blocks(cp: CodeParams, base_seed: int, bounds: list):
    """_campaign_block over each (lo, hi) of bounds, in order; all but the last run forked.

    None if any block yields no log: its child failed or could not start, or it raised here.
    """
    pending = []  # (pid, pipe read end) of each started child, in block order
    try:
        for lo, hi in bounds[:-1]:
            pending.append(_fork_block(cp, base_seed, lo, hi))
        last = _campaign_block(cp, base_seed, *bounds[-1])
        results = []
        while pending:
            results.append(_collect(*pending.pop(0)))
    except Exception:  # the caller's serial rerun raises it again
        return None
    finally:
        for pid, fd in pending:
            os.close(fd)
            os.waitpid(pid, 0)
    return None if None in results else results + [last]


def _fork_block(cp: CodeParams, base_seed: int, lo: int, hi: int):
    """(pid, pipe read end) of a child running _campaign_block(lo, hi).

    A failed os.pipe or os.fork raises, after the pipe it opened is closed.
    """
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            with open(wfd, "wb") as pipe:
                pipe.write(_campaign_block(cp, base_seed, lo, hi).encode())
            status = 0
        finally:
            # the child never returns into its caller (a forked test runner must not run on)
            os._exit(status)
    os.close(wfd)
    return pid, rfd


def _collect(pid: int, fd: int) -> str | None:
    """The block log a child wrote to its pipe, or None if it failed; closes the pipe, reaps."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return None if status else data.decode()
