"""End-to-end and per-layer benchmark of the rllindel codec.

Run from the repository root:

    python3 bench/run.py --workload k60-clean --seed 1 --seconds 26 --trace 0

One process drives the codec as a closed loop: each request starts when the
previous one has finished, and there are no threads. `--trace 0` measures the
user paths with tracing off: a fresh interpreter's set-up, the `encode`,
`corrupt` and `decode` commands as child processes fed from files, the
library calls `encode_message` / `decode_message`, and `verify campaign`.
`--trace 1` calls each layer's public function from this file, records a span
around every call, and reports per-layer times and shares. Every output is
checked; the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`, and any failed check makes the exit code
nonzero. End-to-end timings are scaled to a reference speed of the host
(benchlib.Pace); the run record keeps the raw values beside them.

Each run also writes a run record, `<workload>.seed<seed>.trace<t>.json`, to
`--out` (default `bench/_results`), and a traced run writes its spans beside
it as `.spans.csv`. `--compare BASE CHANGE` reads two such directories and
prints one verdict row per (metric, workload).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchlib
from benchlib import NoSpans, Pace, Spans, percentile, quartiles
from workloads import WORKLOADS, generate, received_text, zero_runs_at_least

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

sys.path.insert(0, str(SRC))
try:
    from rllindel.bitseq import BitSeq
    from rllindel.channel import Stream, apply_event, log_line, random_event, trial_seed
    from rllindel.code import derive_params, embed_encode, encode_message
    from rllindel.decoder import correct, decode_message
    from rllindel.errors import CodecError, UncorrectableError
    from rllindel.front import FrontParams, front_encode, nrzi_decode, nrzi_encode, wi_decode, wi_encode
    from rllindel.oracle import check_channel_campaign
except ImportError as exc:
    raise SystemExit(f"error: cannot import rllindel from {SRC}: {exc}")

CHILD_TIMEOUT = 150
SETUP_SPAWNS = 7
CAMPAIGN_TRIALS = 1000

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Shares of --seconds given to each phase of the untraced run; set-up and
# the memory child take the rest. A phase also runs until its minimum work is
# done, so p99 always has ten samples beyond it. The shares are sized so
# that the minimum work of k4000-sparse fits them at --seconds 26.
UNTRACED_SHARES = {
    "lib_encode": 0.23,
    "lib_decode": 0.26,
    "cli_encode": 0.07,
    "cli_corrupt": 0.06,
    "cli_decode": 0.07,
    "campaign": 0.23,
}
MIN_CLI_ROUNDS = 3
BLOCK_S = 0.03
MONITOR_S = 0.05
REF_PASSES = 4
BLOCK_REF_PASSES = 1
MIN_PASSES = 3

SETUP_CODE = """
import sys
from rllindel import BitSeq, derive_params, encode_message
from rllindel.decoder import decode_message
k, r, text = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
u = BitSeq.parse(text)
if decode_message(derive_params(k, r), encode_message(u, k, r)) != u:
    raise SystemExit(1)
"""

# Encodes and decodes the "message received" pairs on stdin, keeping every
# output as a caller would, then prints its own peak resident set in KiB.
# VmHWM belongs to the process image; getrusage's ru_maxrss would also carry
# the parent's peak from before exec.
MEMORY_CODE = """
import sys
from rllindel import BitSeq, derive_params, encode_message
from rllindel.decoder import decode_message
k, r = int(sys.argv[1]), int(sys.argv[2])
cp = derive_params(k, r)
kept = []
for line in sys.stdin:
    text, received = line.split()
    u = BitSeq.parse(text)
    z = encode_message(u, k, r)
    out = decode_message(cp, BitSeq.parse(received))
    if out != u:
        raise SystemExit(1)
    kept.append((z, out))
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


class Run:
    """Counts, checks and the run record of one benchmark run."""

    def __init__(self, workload, seed: int, seconds: int, trace: int) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.phases: dict[str, dict] = {}
        self.samples: dict[str, dict] = {}
        self.metrics: dict[str, float] = {}
        self.raw: dict[str, float] = {}
        self.extra: dict[str, object] = {}
        self.pace = Pace()
        # every CPU the benchmark may use, before main pins it to one
        self.cpus = os.sched_getaffinity(0)

    def check(self, ok: bool, what: str, count: int = 1) -> bool:
        """Count `count` attempted operations, all failed unless ok."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.misses) < 20:
                self.misses.append(what)
        return ok

    def phase(self, name: str, **lengths) -> None:
        self.phases[name] = lengths

    def latency(self, name: str, samples_ns: list, p) -> float:
        """Percentile p of samples in µs; p99 needs ten samples beyond it."""
        n = len(samples_ns)
        b = benchlib.beyond(n, p)
        highest = benchlib.highest_percentile(n)
        self.samples[name] = {
            "n": n, "percentile": float(p), "beyond": b,
            "highest_supported": None if highest is None else float(highest),
        }
        if p != 50 and b < benchlib.MIN_BEYOND:
            raise RuntimeError(f"{name}: {n} samples leave {b} beyond p{p}, fewer than 10")
        return percentile(samples_ns, p) / 1000

    def paced(self, name: str, scaled: list, raw: list, reduce) -> None:
        """Report reduce(scaled) as the metric and keep reduce(raw) in the record."""
        self.metrics[name] = reduce(scaled)
        self.raw[name] = reduce(raw)

    def record(self) -> dict:
        units = LAYER_UNITS if self.trace else E2E_UNITS
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "trace": self.trace,
            "seconds": self.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "phases": self.phases,
            "samples": self.samples,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed / max(1, self.attempted),
            "misses": self.misses,
            "extra": self.extra,
            "raw_metrics": self.raw,
            "reference_ns": {
                "nominal": benchlib.REF_NS,
                "count": len(self.pace.samples),
                "quartiles": quartiles(self.pace.samples) if self.pace.samples else None,
            },
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()},
        }


def until(budget: float, minimum: int):
    """Yield 0, 1, 2, ... until `minimum` items ran and `budget` seconds passed."""
    end = time.perf_counter() + budget
    i = 0
    while i < minimum or time.perf_counter() < end:
        yield i
        i += 1


def paced_passes(run: Run, phase: str, budget: float, n: int, step) -> tuple[list, list]:
    """Time step(j) for every item j in passes until MIN_PASSES ran and `budget` seconds passed.

    step returns the nanoseconds of the call it timed, or None if the call
    failed. Calls run in blocks of about BLOCK_S with a reference sample
    between blocks, and each block is scaled by Pace.factor of the samples
    on either side. Each item's time is the median over the passes, which
    leaves out the host's stalls and the blocks that straddle a change of
    its speed. Returns the per-item times, scaled and raw.
    """
    times: list = [[] for _ in range(n)]
    raw_times: list = [[] for _ in range(n)]
    now = time.perf_counter
    start = now()
    end = start + budget
    before = run.pace.sample(BLOCK_REF_PASSES)

    def flush(block) -> None:
        nonlocal before
        after = run.pace.sample(BLOCK_REF_PASSES)
        f = Pace.factor([before, after])
        for j, ns in block:
            times[j].append(ns * f)
            raw_times[j].append(ns)
        before = after

    # each pass visits the items in a fresh order, so a slow spell of the
    # host falls on different items from pass to pass
    order = list(range(n))
    shuffle = random.Random(run.seed).shuffle
    passes = 0
    while passes < MIN_PASSES or now() < end:
        shuffle(order)
        block = []
        block_end = now() + BLOCK_S
        for j in order:
            ns = step(j)
            if ns is not None:
                block.append((j, ns))
            if now() >= block_end:
                flush(block)
                block = []
                block_end = now() + BLOCK_S
        flush(block)
        passes += 1
    run.phase(phase, passes=passes, items=n, seconds=now() - start)
    median = statistics.median
    return [median(t) for t in times if t], [median(t) for t in raw_times if t]


def paced_child(run: Run, argv: list[str], stdin_path=None, stdout_path=None, stderr_path=None,
                cpus=None):
    """Run one child to completion; returns (exit code, scaled wall, raw wall).

    By default the child shares this process's CPU, so one pass of the
    reference loop every MONITOR_S while it runs samples the speed the child
    gets. Given `cpus`, the child may run on any of them, and each sample
    runs on the CPU the child last ran on. A child that outlives
    CHILD_TIMEOUT is killed and reaped, and the run fails.
    """
    pinned = os.sched_getaffinity(0)
    # the CPU the child was last seen on is not known before it starts
    refs = [] if cpus else [run.pace.sample(REF_PASSES)]
    with open(stdin_path or os.devnull, "rb") as fin, \
            open(stdout_path or os.devnull, "wb") as fout, \
            open(stderr_path or os.devnull, "wb") as ferr:
        if cpus:
            os.sched_setaffinity(0, cpus)  # the child inherits the mask
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, env=child_env(), cwd=ROOT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], MONITOR_S)[0]:
                    if time.perf_counter() - start > CHILD_TIMEOUT:
                        raise subprocess.TimeoutExpired(argv, CHILD_TIMEOUT)
                    if cpus:
                        cpu = last_cpu(proc.pid)
                        if cpu in cpus:
                            os.sched_setaffinity(0, {cpu})
                    refs.append(run.pace.sample())
            finally:
                os.close(pidfd)
            code = proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    refs.append(run.pace.sample(REF_PASSES))
    os.sched_setaffinity(0, pinned)
    return code, wall * Pace.factor(refs), wall


def last_cpu(pid: int):
    """The CPU a process last ran on (field 39 of /proc/<pid>/stat), or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "rllindel", *map(str, args)]


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines))


def read_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def cycle(items: list, count: int) -> list:
    return [items[i % len(items)] for i in range(count)]


def parse_event(line: str):
    """(kind, position, symbol) from an event-log line `kind position symbol`."""
    kind, position, symbol = line.split()
    return kind, int(position), 0 if symbol == "-" else int(symbol)


def one_indel_matches(before: str, after: str, log: str) -> bool:
    """True iff `after` is `before` with exactly the indel the log line names."""
    try:
        kind, position, symbol = parse_event(log)
    except ValueError:
        return False
    if kind == "insertion":
        ok_pos = 1 <= position <= len(before) + 1
    elif kind == "deletion":
        ok_pos = 1 <= position <= len(before)
    else:
        return False
    i = position - 1
    expected = before[:i] + str(symbol) + before[i:] if kind == "insertion" else before[:i] + before[i + 1 :]
    return ok_pos and after == expected


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def measure_setup(run: Run, message: str) -> None:
    """Median wall time of fresh interpreters that import, derive, encode and decode once."""
    argv = [sys.executable, "-c", SETUP_CODE, str(run.w.k), str(run.w.r), message]
    paced_child(run, argv)  # leaves bytecode caches as every later spawn finds them
    scaled, raw = [], []
    for _ in range(SETUP_SPAWNS):
        code, wall, raw_wall = paced_child(run, argv)
        run.check(code == 0, f"setup child exited {code}")
        scaled.append(wall)
        raw.append(raw_wall)
    run.phase("setup", items=SETUP_SPAWNS, seconds=sum(raw))
    run.paced("setup_s", scaled, raw, statistics.median)


def lib_phases(run: Run, words) -> tuple[list[str], list[str]]:
    """encode_message and decode_message per call; returns codeword and received texts."""
    w = run.w
    n_words = len(words)
    messages = [BitSeq.parse(wd.message) for wd in words]
    # the inputs live for the whole run; frozen, the collector does not rescan
    # them, so a collection costs what the codec's own garbage costs
    gc.freeze()
    codewords = [None] * n_words

    def encode_step(j):
        try:
            t0 = time.perf_counter_ns()
            z = encode_message(messages[j], w.k, w.r)
            t1 = time.perf_counter_ns()
        except CodecError as exc:
            run.check(False, f"encode word {j}: {exc!r}")
            return None
        if codewords[j] is None:
            codewords[j] = z
        run.check(z == codewords[j], f"encode word {j} not repeatable")
        return t1 - t0

    scaled, raw = paced_passes(run, "lib_encode", UNTRACED_SHARES["lib_encode"] * run.seconds, n_words, encode_step)
    for p in (50, 99):
        name = f"encode_p{p}_us"
        run.paced(name, scaled, raw, lambda v: run.latency(name, v, p))

    cp = derive_params(w.k, w.r)
    z_texts = [str(z) if z is not None else "" for z in codewords]
    rx_texts = [received_text(z, wd) for z, wd in zip(z_texts, words)]
    received = [BitSeq.parse(t) for t in rx_texts]
    gc.freeze()

    def decode_step(j):
        try:
            t0 = time.perf_counter_ns()
            u = decode_message(cp, received[j])
            t1 = time.perf_counter_ns()
        except CodecError as exc:
            run.check(False, f"decode word {j}: {exc!r}")
            return None
        run.check(u == messages[j], f"decode word {j} gave a wrong message")
        return t1 - t0

    scaled, raw = paced_passes(run, "lib_decode", UNTRACED_SHARES["lib_decode"] * run.seconds, n_words, decode_step)
    for p in (50, 99):
        name = f"decode_p{p}_us"
        run.paced(name, scaled, raw, lambda v: run.latency(name, v, p))
    return z_texts, rx_texts


def cli_rounds(run: Run, phase: str, argv_for, lines: list[str], verify) -> None:
    """Run one CLI child per round on `lines`; lines/s is the median over rounds."""
    WORK.mkdir(exist_ok=True)
    src, out, err = WORK / f"{phase}.in", WORK / f"{phase}.out", WORK / f"{phase}.err"
    write_lines(src, lines)
    rates, raw = [], []
    start = time.perf_counter()
    for i in until(UNTRACED_SHARES[phase] * run.seconds, MIN_CLI_ROUNDS):
        code, wall, raw_wall = paced_child(run, argv_for(i), src, out, err)
        rates.append(len(lines) / wall)
        raw.append(len(lines) / raw_wall)
        got, log = read_lines(out), read_lines(err)
        bad = verify(i, got, log)
        if code != 0:
            bad = max(bad, 1)
        run.check(True, "", len(lines) - bad)
        if bad:
            run.check(False, f"{phase} round {i}: exit {code}, {bad} bad lines", bad)
    run.phase(phase, items=len(rates), seconds=time.perf_counter() - start)
    run.paced(phase.replace("cli_", "") + "_lines_per_s", rates, raw, statistics.median)


def expect_lines(expected: list[str]):
    """A cli_rounds check: bad lines are ERROR lines plus outputs that differ from expected."""

    def verify(i, got, log):
        errors = sum(1 for line in log if line.startswith("ERROR"))
        wrong = sum(1 for a, b in zip(got, expected) if a != b) + abs(len(got) - len(expected))
        return min(len(expected), errors + wrong)

    return verify


def cli_phases(run: Run, words, z_texts, rx_texts) -> None:
    w = run.w
    code_flags = ("--k", w.k, "--r", w.r)
    messages = cycle([wd.message for wd in words], w.cli_lines["encode"])
    expected = cycle(z_texts, w.cli_lines["encode"])
    cli_rounds(run, "cli_encode", lambda i: cli("encode", *code_flags), messages, expect_lines(expected))

    sent = cycle(z_texts, w.cli_lines["corrupt"])

    def verify_corrupt(i, got, log):
        if len(got) != len(sent) or len(log) != len(sent):
            return len(sent)
        return sum(1 for a, b, e in zip(sent, got, log) if not one_indel_matches(a, b, e))

    cli_rounds(
        run, "cli_corrupt", lambda i: cli("corrupt", "--seed", run.seed * 1000 + i),
        sent, verify_corrupt,
    )

    received = cycle(rx_texts, w.cli_lines["decode"])
    decoded = cycle([wd.message for wd in words], w.cli_lines["decode"])
    cli_rounds(run, "cli_decode", lambda i: cli("decode", *code_flags), received, expect_lines(decoded))


def parse_report(text: str) -> dict:
    """key=value pairs of a report's summary line (the one starting `check=`)."""
    for line in text.splitlines():
        if line.startswith("check="):
            return dict(part.split("=", 1) for part in line.split() if "=" in part)
    return {}


def campaign_phase(run: Run) -> None:
    """`verify campaign` over consecutive seeds, then the first seed once more.

    The campaign children run on every CPU the benchmark was given, so a
    campaign that spreads its trials over cores reads faster.
    """
    w = run.w
    WORK.mkdir(exist_ok=True)
    out = WORK / "campaign.out"
    base = run.seed * 1000
    seeds = []
    rates, raw = [], []
    digests: dict[int, str] = {}
    start = time.perf_counter()
    budget = UNTRACED_SHARES["campaign"] * run.seconds
    end = start + budget
    wall = 0.0
    # stop early enough that one more seed and the repeat both fit the budget
    while not seeds or time.perf_counter() + 2 * wall <= end:
        t0 = time.perf_counter()
        seeds.append(base + len(seeds))
        campaign_once(run, seeds[-1], out, digests, rates, raw)
        wall = time.perf_counter() - t0
    # a seed run twice must reproduce its digest
    campaign_once(run, base, out, digests, rates, raw)
    run.phase("campaign", items=len(rates), seconds=time.perf_counter() - start)
    run.paced("campaign_trials_per_s", rates, raw, statistics.median)


def campaign_once(run: Run, seed: int, out: Path, digests: dict, rates: list, raw: list) -> None:
    argv = cli("verify", "campaign", "--k", run.w.k, "--r", run.w.r, "--seed", seed)
    code, wall, raw_wall = paced_child(run, argv, stdout_path=out, cpus=run.cpus)
    rates.append(CAMPAIGN_TRIALS / wall)
    raw.append(CAMPAIGN_TRIALS / raw_wall)
    report = parse_report(out.read_text())
    ok = (
        code == 0
        and report.get("result") == "pass"
        and report.get("trials") == str(CAMPAIGN_TRIALS)
        and report.get("failures") == "0"
        and digests.setdefault(seed, report.get("digest")) == report.get("digest")
    )
    run.check(ok, f"campaign seed {seed}: exit {code}, {report}", CAMPAIGN_TRIALS)


def measure_memory(run: Run, words, rx_texts) -> None:
    """Peak resident set of a fresh interpreter that encodes and decodes the first memory_words words.

    It is measured apart from this process, whose timing store grows with
    the number of passes and so with the codec's speed.
    """
    count = run.w.memory_words
    WORK.mkdir(exist_ok=True)
    src, out = WORK / "memory.in", WORK / "memory.out"
    write_lines(src, [f"{wd.message} {rx}" for wd, rx in zip(words[:count], rx_texts)])
    argv = [sys.executable, "-c", MEMORY_CODE, str(run.w.k), str(run.w.r)]
    code, _, wall = paced_child(run, argv, src, out)
    text = out.read_text().strip()
    run.phase("memory", items=count, seconds=wall)
    if run.check(code == 0 and text.isdigit(), f"memory child exited {code}", count):
        run.metrics["peak_rss_mb"] = int(text) / 1024


def untraced(run: Run) -> None:
    words = generate(run.w, run.seed, run.w.words)
    measure_setup(run, words[0].message)
    z_texts, rx_texts = lib_phases(run, words)
    measure_memory(run, words, rx_texts)
    cli_phases(run, words, z_texts, rx_texts)
    campaign_phase(run)


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

OVERHEAD_WORDS = 500


def traced_word(sp, wid: int, wd, k: int, r: int, cp, channel_seed: int):
    """One word through encode, the corrupt path and decode, one span per layer call.

    Mirrors encode_message, the corrupt command's per-line work and
    decode_message, each with its text I/O. Returns the decoded message
    text, the codeword and the corrected word.
    """
    root = sp.open("word", wid)
    enc = sp.open("encode", wid, root)
    u = sp.call("bitseq.parse", wid, enc, BitSeq.parse, wd.message)
    cpw = sp.call("code.derive_params", wid, enc, derive_params, k, r)
    fp = sp.call("front.params", wid, enc, FrontParams, k, r)
    x = sp.call("front.wi_encode", wid, enc, wi_encode, u, fp)
    y = sp.call("front.nrzi_encode", wid, enc, nrzi_encode, x)
    z = sp.call("code.embed_encode", wid, enc, embed_encode, cpw, y)
    z_text = sp.call("bitseq.format", wid, enc, str, z)
    sp.close(enc)
    cor = sp.open("corrupt", wid, root)
    event = sp.call("channel.random_event", wid, cor, random_event, len(z), trial_seed(channel_seed, wid))
    sp.call("channel.apply_event", wid, cor, apply_event, z, event)
    sp.close(cor)
    dec = sp.open("decode", wid, root)
    rx = sp.call("bitseq.parse", wid, dec, BitSeq.parse, received_text(z_text, wd))
    kind = "intact" if len(rx) == cp.n else ("insertion" if len(rx) < cp.n else "deletion")
    zc = sp.call("decoder.correct." + kind, wid, dec, correct, cp, rx)
    xc = sp.call("front.nrzi_decode", wid, dec, nrzi_decode, zc[cp.m :])
    fpd = sp.call("front.params", wid, dec, FrontParams, cp.k, cp.r)
    uc = sp.call("front.wi_decode", wid, dec, wi_decode, xc, fpd)
    out = sp.call("bitseq.format", wid, dec, str, uc)
    sp.close(dec)
    sp.close(root)
    return out, z, zc


def traced_words(run: Run, sp: Spans, words, cp) -> None:
    """Every word traced; the first OVERHEAD_WORDS also run untraced, to price the tracing."""
    w = run.w
    channel_seed = run.seed * 7919
    plain = NoSpans()
    plain_ns = traced_ns = 0
    uncorrectable = fallbacks = 0
    start = time.perf_counter()
    count = 0

    def untraced_ns(i, wd):
        t0 = time.perf_counter_ns()
        try:
            traced_word(plain, i, wd, w.k, w.r, cp, channel_seed)
        except CodecError:
            pass
        return time.perf_counter_ns() - t0

    for i, wd in enumerate(words):
        count += 1
        priced = i < OVERHEAD_WORDS
        # alternate which side runs first so warm caches favour neither
        if priced and i % 2:
            plain_ns += untraced_ns(i, wd)
        t0 = time.perf_counter_ns()
        try:
            out, z, zc = traced_word(sp, i, wd, w.k, w.r, cp, channel_seed)
        except UncorrectableError as exc:
            uncorrectable += 1
            run.check(False, f"traced word {i}: {exc!r}")
            continue
        except CodecError as exc:
            run.check(False, f"traced word {i}: {exc!r}")
            continue
        if priced:
            traced_ns += time.perf_counter_ns() - t0
            if not i % 2:
                plain_ns += untraced_ns(i, wd)
        # parity position r_hat holds 1 only when the first parity draft was discarded
        fallbacks += z[cp.r_hat - 1]
        run.check(out == wd.message and zc == z, f"traced word {i} decoded wrongly")
        probe = sp.open("probe", i)
        sp.call("decoder.correct.intact", i, probe, correct, cp, z)
        sp.close(probe)
    run.phase("traced_words", items=count, seconds=time.perf_counter() - start)
    run.metrics["trace.overhead_share"] = traced_ns / plain_ns - 1
    run.metrics["decoder.uncorrectable"] = uncorrectable
    run.metrics["code.fallback_share"] = fallbacks / count


def layer_metrics(run: Run, sp: Spans) -> None:
    """Per-name latencies and per-layer shares from the word and probe spans."""
    rows = sp.rows
    roots = sp.roots()
    selfs = sp.self_times()
    durations: dict[str, list[int]] = {}
    in_words: dict[str, int] = {}
    layer_self: dict[str, int] = {}
    in_stage: dict[str, dict[str, int]] = {"encode": {}, "decode": {}}
    stage_total = {"encode": 0, "decode": 0}
    word_total = 0
    for index, (name, _, parent, start, end) in enumerate(rows):
        root_name = rows[roots[index]][0]
        if root_name not in ("word", "probe"):
            continue
        durations.setdefault(name, []).append(end - start)
        if root_name != "word":
            continue
        if parent < 0:
            word_total += end - start
            continue
        in_words[name] = in_words.get(name, 0) + 1
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0) + selfs[index]
        if name in stage_total:
            stage_total[name] += end - start
        stage = rows[parent][0]
        if stage in in_stage:
            in_stage[stage][name] = in_stage[stage].get(name, 0) + end - start

    def lat(name, p):
        return run.latency(f"{name}.p{p}_us", durations.get(name, []), p)

    m = run.metrics
    for name in ("bitseq.parse", "bitseq.format", "front.nrzi_encode", "front.nrzi_decode",
                 "code.derive_params", "decoder.correct.intact", "channel.random_event",
                 "channel.apply_event"):
        m[f"{name}.p50_us"] = lat(name, 50)
    for name in ("front.wi_encode", "front.wi_decode", "code.embed_encode",
                 "decoder.correct.deletion", "decoder.correct.insertion"):
        m[f"{name}.p50_us"] = lat(name, 50)
        m[f"{name}.p99_us"] = lat(name, 99)
    for layer in ("bitseq", "front", "code", "decoder", "channel"):
        m[f"{layer}.share"] = layer_self.get(layer, 0) / word_total
    m["front.wi_encode.encode_share"] = in_stage["encode"].get("front.wi_encode", 0) / stage_total["encode"]
    m["decoder.decode_share"] = sum(
        v for k, v in in_stage["decode"].items() if k.startswith("decoder.")
    ) / stage_total["decode"]
    searched = in_words.get("decoder.correct.deletion", 0) + in_words.get("decoder.correct.insertion", 0)
    m["decoder.search_share"] = searched / (searched + in_words.get("decoder.correct.intact", 0))
    run.extra["encode_costs"] = {k: v / stage_total["encode"] for k, v in sorted(in_stage["encode"].items())}
    run.extra["decode_costs"] = {k: v / stage_total["decode"] for k, v in sorted(in_stage["decode"].items())}


def traced_cli(run: Run, words, cp) -> None:
    """CLI per-line time minus the untraced library per-line time for the same lines."""
    w = run.w
    fp = FrontParams(w.k, w.r)
    n_lines = w.cli_lines
    messages = cycle([wd.message for wd in words], n_lines["encode"])
    z_all = [str(encode_message(BitSeq.parse(wd.message), w.k, w.r)) for wd in words[: n_lines["decode"]]]
    sent = cycle(z_all, n_lines["corrupt"])
    received = cycle([received_text(z, wd) for z, wd in zip(z_all, words)], n_lines["decode"])
    seed = run.seed * 1000

    def lib_encode(lines):
        for text in lines:
            str(embed_encode(cp, front_encode(BitSeq.parse(text), fp)))

    def lib_corrupt(lines):
        for number, text in enumerate(lines, start=1):
            s = BitSeq.parse(text)
            event = random_event(len(s), trial_seed(seed, number - 1), None)
            str(apply_event(s, event))
            log_line(event)

    def lib_decode(lines):
        for text in lines:
            str(decode_message(cp, BitSeq.parse(text)))

    WORK.mkdir(exist_ok=True)
    for sub, lines, lib, args in (
        ("encode", messages, lib_encode, ("--k", w.k, "--r", w.r)),
        ("corrupt", sent, lib_corrupt, ("--seed", seed)),
        ("decode", received, lib_decode, ("--k", w.k, "--r", w.r)),
    ):
        src = WORK / f"traced_{sub}.in"
        write_lines(src, lines)
        code, _, wall = paced_child(run, cli(sub, *args), src)
        run.check(code == 0, f"traced cli {sub}: exit {code}", len(lines))
        t0 = time.perf_counter()
        lib(lines)
        lib_wall = time.perf_counter() - t0
        run.phase(f"traced_cli_{sub}", items=len(lines), seconds=wall + lib_wall)
        run.metrics[f"cli.{sub}.self_us_per_line"] = (wall - lib_wall) / len(lines) * 1e6


def traced_campaign(run: Run, sp: Spans) -> None:
    """Campaign time per trial, and the share left after a traced codec pass over the same trials."""
    w = run.w
    trials = w.traced_trials
    base = run.seed * 1000
    t0 = time.perf_counter()
    report = check_channel_campaign(w.k, w.r, trials, base)
    wall = time.perf_counter() - t0
    run.check(report.passed, f"in-process campaign: {report.lines()[-1]}", trials)
    trial_us = wall / trials * 1e6
    # the campaign's own trials, replayed with a span per codec call
    cp = derive_params(w.k, w.r)
    fp = FrontParams(w.k, w.r)
    first = len(sp.rows)
    for index in range(trials):
        stream = Stream(trial_seed(base, index))
        value = 0
        for word in range((w.k + 62) // 64):
            value |= stream.next() << (64 * word)
        value &= (1 << (w.k - 1)) - 1
        u = BitSeq(bytes((value >> j) & 1 for j in range(w.k - 1)))
        root = sp.open("trial", index)
        y = sp.call("front.front_encode", index, root, front_encode, u, fp)
        z = sp.call("code.embed_encode", index, root, embed_encode, cp, y)
        event = sp.call("channel.random_event", index, root, random_event, cp.n, stream.next())
        rx = sp.call("channel.apply_event", index, root, apply_event, z, event)
        out = sp.call("decoder.decode_message", index, root, decode_message, cp, rx)
        sp.close(root)
        run.check(out == u, f"campaign replay trial {index} decoded wrongly")
    codec_ns = sum(end - start for _, _, parent, start, end in sp.rows[first:] if parent >= 0)
    run.phase("traced_campaign", items=trials, seconds=time.perf_counter() - t0)
    run.metrics["oracle.campaign.trial_us"] = trial_us
    run.metrics["oracle.campaign.self_share"] = 1 - codec_ns / 1000 / trials / trial_us


def traced(run: Run, out_dir: Path) -> None:
    w = run.w
    words = generate(w, run.seed, w.traced_words)
    cp = derive_params(w.k, w.r)
    sp = Spans()
    traced_campaign(run, sp)
    traced_cli(run, words, cp)
    traced_words(run, sp, words, cp)
    layer_metrics(run, sp)
    run.metrics["front.long_zero_runs_per_msg"] = statistics.fmean(
        zero_runs_at_least(wd.message, w.r) for wd in words
    )
    sp.write_csv(out_dir / f"{w.name}.seed{run.seed}.trace1.spans.csv")


# ---------------------------------------------------------------------------
# comparison of two result sets


def load_set(directory: Path) -> dict:
    """{(workload, metric): {seed: value}} from the run records in a directory."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        for name, metric in rec["metrics"].items():
            out.setdefault((rec["workload"], name), {})[rec["seed"]] = metric["value"]
    return out


def spread_text(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(base_dir: Path, change_dir: Path) -> int:
    meta = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    base, change = load_set(base_dir), load_set(change_dir)
    print(f"{'workload':<14} {'metric':<34} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change/base':>11}  verdict")
    for workload, metric in sorted(set(base) & set(change), key=lambda key: (key[0], key[1] not in E2E_UNITS, key[1])):
        m = meta.get(metric)
        if m is None:
            continue
        a, b = base[(workload, metric)], change[(workload, metric)]
        qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        verdict = benchlib.classify(a, b, m["better"], m.get("bound"))
        print(f"{workload:<14} {metric:<34} {spread_text(qa):>34} {spread_text(qb):>34} "
              f"{ratio:>11.4f}  {verdict} (base {qa[1]:.6g} {m['unit']}, n={len(a)}/{len(b)})")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH / "_results", help="run record directory")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "CHANGE"),
                        help="compare two run record directories and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    # children inherit the CPU, so the reference loop samples the speed they
    # get; campaign children get run.cpus back
    os.sched_setaffinity(0, {max(run.cpus)})
    args.out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        traced(run, args.out)
    else:
        untraced(run)
    record = run.record()
    name = f"{run.w.name}.seed{run.seed}.trace{run.trace}.json"
    (args.out / name).write_text(json.dumps(record, indent=1) + "\n")
    units = LAYER_UNITS if run.trace else E2E_UNITS
    for metric, value in run.metrics.items():
        print(f"{run.w.name} {metric} {value:.6g} {units[metric]}")
    print(f"{run.w.name} failed_share {record['failed_share']:.6g} share "
          f"({run.failed} of {run.attempted})")
    for miss in run.misses:
        print(f"miss: {miss}")
    ok = run.failed == 0
    print(json.dumps({
        "correct": ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in run.metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
