"""Brute-force verification oracles: exhaustive at desk scale, sampled beyond.

Every reconciled design choice in the codec is arbitrated here by direct
enumeration rather than by trusting a derivation. Guards are hard caps with
explicit errors: an "exhaustive" verdict must mean exhaustive, so oversized
requests fail instead of silently sampling.

Reports render as two text lines: a human-readable
`CHECK <name> <params> PASS|FAIL [counterexample]` line and a machine-readable
`key=value` summary line.

The channel campaign can split its trials into contiguous index blocks and
run them in forked child processes at once. Every trial seeds itself from
(base seed, index), and the parent joins the blocks' results in index order,
so the report, digest included, is the same however many blocks run. If any
block yields no result, all trials run once more serially in this process,
which raises or reports exactly as a serial run; there is no other failure
path.
"""
from __future__ import annotations

import hashlib
import os

from .bitseq import BitSeq, is_rll, is_zero_constrained, le_encode
from .channel import Stream, apply_event, log_line, random_event, trial_seed
from .code import (
    CodeParams,
    _coefficients,
    derive_params,
    embed_encode,
    is_codeword,
    raw_params,
)
from .decoder import decode_message
from .errors import CodecError, InvariantError, ValidationError
from .front import FrontParams, cached_front_params, front_encode, wi_decode, wi_encode

DEFAULT_SAMPLE_TRIALS = 100_000
DEFAULT_SAMPLE_SEED = 0x1D5EED

_ENUM_CAP = 24
_SIDC_CAP = 16
_ROUNDTRIP_CAP = 13


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
        if not self.passed and self.counterexample:
            head += f" {self.counterexample}"
        summary = [f"check={self.name}", ptext, f"result={'pass' if self.passed else 'fail'}"]
        summary += [f"{key}={value}" for key, value in self.stats.items()]
        return [head, " ".join(summary)]

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"


def enumerate_rll(n: int, r: int) -> list[BitSeq]:
    """All length-n words with maximum run-length <= r, in lexicographic order."""
    if n < 1:
        raise ValidationError(f"length must be positive (got n={n})")
    if r < 1:
        raise ValidationError(f"run limit must be positive (got r={r})")
    if n > _ENUM_CAP:
        raise ValidationError(f"exhaustive enumeration is capped at n = {_ENUM_CAP} (got n={n})")
    out: list[BitSeq] = []
    buf = bytearray(n)

    def extend(i: int, prev: int, run: int) -> None:
        if i == n:
            out.append(BitSeq._wrap(bytes(buf)))
            return
        for symbol in (0, 1):
            if symbol == prev and run == r:
                continue
            buf[i] = symbol
            extend(i + 1, symbol, run + 1 if symbol == prev else 1)

    extend(0, -1, 0)
    return out


def enumerate_codewords(params: CodeParams) -> list[BitSeq]:
    """All length-n words whose weighted sum hits the residue, lexicographically.

    Takes a CodeParams from derive_params or, for code lengths below the
    encoder minimum, from raw_params.
    """
    n = params.n
    if n > _ENUM_CAP:
        raise ValidationError(f"exhaustive enumeration is capped at n = {_ENUM_CAP} (got n={n})")
    coeffs = _coefficients(n, params.r_hat, params.d)
    weights = [coeffs[n - 1 - j] for j in range(n)]
    b, modulus = params.b, params.modulus
    out: list[BitSeq] = []
    for mask in range(1 << n):
        total = 0
        rest = mask
        while rest:
            low = rest & -rest
            total += weights[low.bit_length() - 1]
            rest ^= low
        if total % modulus == b:
            out.append(le_encode(mask, n)[::-1])  # most significant symbol first
    return out


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
    if n > _SIDC_CAP:
        raise ValidationError(f"ball-disjointness check is capped at n = {_SIDC_CAP} (got n={n})")
    ok, _ = deletion_balls_disjoint(enumerate_codewords(raw_params(n, r_hat, d, b)))
    return ok


def check_sidc_range(n_min: int, n_max: int, r_hat: int, d: int, b: int | None = None) -> list[Report]:
    """One sidc report per code length n_min..n_max, over every residue or only b."""
    reports = []
    for n in range(n_min, n_max + 1):
        modulus = raw_params(n, r_hat, d, 0).modulus
        residues = range(modulus) if b is None else [b]
        failures = 0
        counterexample = None
        for residue in residues:
            if not check_sidc(n, r_hat, d, residue):
                failures += 1
                if counterexample is None:
                    counterexample = f"b={residue}"
        reports.append(
            Report(
                name="sidc",
                params={"n": n, "r_hat": r_hat, "d": d, "b": "all" if b is None else b},
                passed=failures == 0,
                counterexample=counterexample,
                stats={"residues": len(residues), "failures": failures},
            )
        )
    return reports


def _random_word(stream: Stream, bits: int) -> BitSeq:
    """bits random symbols: symbol j is bit j of the next ceil(bits/64) outputs, first lowest."""
    value = 0
    for w in range((bits + 63) // 64):
        value |= stream.next() << (64 * w)
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
    """
    if (k, r, d) == (14, 4, 5):
        # the one deliberately excluded triple still gets probed by the oracle (r_hat = 4)
        cp0 = CodeParams.unchecked(k, 4, r, d, 0)
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
    violations = 0
    counterexample = None
    for y, b in pairs:
        bad = _embed_violates(cp0._replace(b=b), y)
        if bad:
            violations += 1
            if counterexample is None:
                counterexample = f"y={y} b={b} {bad}"
    return Report(
        name="encoder-rll",
        params={"k": k, "r": r, "d": cp0.d},
        passed=violations == 0,
        counterexample=counterexample,
        stats={"mode": mode, "encodes": total, "violations": violations},
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
    decode-encode identity over all 2^(k-1) messages.
    """
    fp = cached_front_params(k, r)
    if k > _ROUNDTRIP_CAP:
        raise ValidationError(
            f"exhaustive round-trip check is capped at k = {_ROUNDTRIP_CAP} (got k={k})"
        )
    failures = 0
    counterexample = None
    seen: dict[BitSeq, BitSeq] = {}
    total = 1 << (k - 1)
    for mask in range(total):
        u = le_encode(mask, k - 1)[::-1]  # most significant symbol first
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
            failures += 1
            if counterexample is None:
                counterexample = f"u={u} x={x} {problem}"
    return Report(
        name="front-roundtrip",
        params={"k": k, "r": r},
        passed=failures == 0,
        counterexample=counterexample,
        stats={"messages": total, "failures": failures},
    )


def check_channel_campaign(
    k: int,
    r: int,
    trials: int,
    base_seed: int,
    d: int | None = None,
    b: int | None = None,
    jobs: int = 1,
) -> Report:
    """Seeded end-to-end trials: encode, corrupt with one random indel, decode.

    Each trial derives its own stream from (base_seed, index), draws a random
    message, transmits it through the channel, and checks message recovery.
    The report digest hashes every event-log line and outcome in trial order,
    so two runs with equal arguments must render byte-identically.

    jobs > 1 splits the trial indices into that many contiguous blocks and
    runs every block but the last in a child forked with os.fork (POSIX
    only; call it from a process without other threads), the last in this
    process. The blocks' log text is hashed in index order, their failures
    summed and the lowest-index counterexample kept, so the report is the
    same for every jobs. If any block yields no result (its child failed or
    never started, or the last block raised), every trial runs once more
    serially in this process, which raises or reports exactly as jobs=1.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1 (got jobs={jobs})")
    cp = derive_params(k, r, d, b)
    fp = cached_front_params(k, r)
    bounds = [(trials * j // jobs, trials * (j + 1) // jobs) for j in range(jobs)]
    digest = hashlib.sha256()
    failures = 0
    counterexample = None
    blocks = _campaign_blocks(cp, fp, base_seed, bounds) if jobs > 1 else None
    # jobs=1, or a block gave no result: every trial runs here, as one serial block
    for text, block_failures, first in blocks or [_campaign_block(cp, fp, base_seed, 0, trials)]:
        digest.update(text.encode())
        failures += block_failures
        counterexample = counterexample or first
    return Report(
        name="channel-campaign",
        params={"k": k, "r": r, "d": cp.d, "b": cp.b, "seed": base_seed},
        passed=failures == 0,
        counterexample=counterexample,
        stats={"trials": trials, "failures": failures, "digest": digest.hexdigest()},
    )


def _campaign_block(cp: CodeParams, fp: FrontParams, base_seed: int, lo: int, hi: int):
    """Trials lo..hi-1: (their digest lines as one text, failure count, first counterexample)."""
    lines = []
    failures = 0
    counterexample = None
    for index in range(lo, hi):
        stream = Stream(trial_seed(base_seed, index))
        u = _random_word(stream, fp.k - 1)
        z = embed_encode(cp, front_encode(u, fp))
        event = random_event(cp.n, stream.next())
        received = apply_event(z, event)
        try:
            ok = decode_message(cp, received) == u
        except CodecError:
            ok = False
        if not ok:
            failures += 1
            if counterexample is None:
                counterexample = f"trial={index} u={u} event=({log_line(event)})"
        lines.append(f"{index} {log_line(event)} {int(ok)}\n")
    return "".join(lines), failures, counterexample


def _campaign_blocks(cp: CodeParams, fp: FrontParams, base_seed: int, bounds: list):
    """_campaign_block over each (lo, hi) of bounds, in order; all but the last run forked.

    None if any block yields no result: its child failed or never started, or it raised here.
    """
    pending = []  # (pid, pipe read end), or None where no child started, in block order
    try:
        for lo, hi in bounds[:-1]:
            pending.append(_fork_block(cp, fp, base_seed, lo, hi))
        last = _campaign_block(cp, fp, base_seed, *bounds[-1])
        results = []
        while pending:
            child = pending.pop(0)
            results.append(child and _collect(*child))
    except Exception:  # the caller's serial rerun raises it again
        return None
    finally:
        for child in filter(None, pending):
            os.close(child[1])
            os.waitpid(child[0], 0)
    return None if None in results else results + [last]


def _fork_block(cp: CodeParams, fp: FrontParams, base_seed: int, lo: int, hi: int):
    """(pid, pipe read end) of a child running _campaign_block(lo, hi), or None if none started."""
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            text, failures, first = _campaign_block(cp, fp, base_seed, lo, hi)
            with open(wfd, "wb") as pipe:
                pipe.write(f"{failures}\n{first or ''}\n{text}".encode())
            status = 0
        finally:
            # the child never returns into its caller (a forked test runner must not run on)
            os._exit(status)
    os.close(wfd)
    return pid, rfd


def _collect(pid: int, fd: int) -> tuple | None:
    """The block result a child wrote to its pipe, or None if it failed; closes the pipe, reaps."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        return None
    failures, first, text = data.decode().split("\n", 2)
    return text, int(failures), first or None
