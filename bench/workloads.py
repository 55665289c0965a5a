"""Benchmark workloads and their seeded input generators.

A workload fixes the code parameters (k, r), how messages are drawn, and how
the channel treats each codeword. The generators use only `random.Random`
seeded from the benchmark's `--seed`, so one seed always yields the same
messages and the same channel events, and the codec sees nothing but the
generated bits.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    k: int
    r: int
    # each message bit is 1 with probability 2**-sparsity
    sparsity: int
    # share of received words hit by one indel; the rest arrive intact
    indel_share: float
    # words generated for the untraced and for the traced run
    words: int
    traced_words: int
    # lines fed to one CLI child, per subcommand
    cli_lines: dict
    # trials of the in-process campaign the traced run times
    traced_trials: int
    # words the memory child encodes and decodes
    memory_words: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="k60-clean",
            why="short blocks on a mostly clean channel, so per-word fixed costs "
            "(text I/O, parameter checks, the congruence check) dominate",
            k=60, r=6, sparsity=1, indel_share=0.1,
            words=24000, traced_words=24000,
            cli_lines={"encode": 12000, "corrupt": 12000, "decode": 12000},
            traced_trials=1000, memory_words=4000,
        ),
        Workload(
            name="k4000-random",
            why="long uniform blocks, every word hit by one indel, so the "
            "decoder's candidate scan and the embedder dominate",
            k=4000, r=12, sparsity=1, indel_share=1.0,
            words=1000, traced_words=2000,
            cli_lines={"encode": 400, "corrupt": 6000, "decode": 250},
            traced_trials=100, memory_words=100,
        ),
        Workload(
            name="k4000-sparse",
            why="as k4000-random but message bits are 1 with probability 1/16, "
            "so the front end's sequence replacement dominates encode",
            k=4000, r=12, sparsity=4, indel_share=1.0,
            words=1000, traced_words=2000,
            cli_lines={"encode": 200, "corrupt": 6000, "decode": 200},
            traced_trials=100, memory_words=100,
        ),
        Workload(
            name="campaign-k250",
            why="the verify campaign user path at a mid block length, where the "
            "codec does most of each trial and the oracle's own loop the rest",
            k=250, r=8, sparsity=1, indel_share=1.0,
            words=4000, traced_words=4000,
            cli_lines={"encode": 4000, "corrupt": 4000, "decode": 3000},
            traced_trials=1000, memory_words=2000,
        ),
    )
}


@dataclass(frozen=True)
class Word:
    """One message and what the channel does to its codeword.

    kind is None for an intact word, else "insertion" or "deletion" at the
    1-based `position` of the codeword (an inserted symbol goes before it).
    """

    message: str
    kind: str | None
    position: int
    symbol: int


def message_text(rng: random.Random, length: int, sparsity: int) -> str:
    """A message of `length` bits, each 1 with probability 2**-sparsity."""
    value = rng.getrandbits(length)
    for _ in range(sparsity - 1):
        value &= rng.getrandbits(length)
    return format(value, f"0{length}b")


def generate(w: Workload, seed: int, count: int) -> list[Word]:
    """`count` words for workload w, fully determined by (w, seed, count).

    Exactly round(indel_share * count) words carry an indel, chosen at
    random; they alternate insertion and deletion so each kind gets half.
    """
    rng = random.Random(f"{w.name}:{seed}")
    n = w.k + (w.k + 1).bit_length() + 3  # codeword length k + r_hat + 3
    hit = sorted(rng.sample(range(count), round(w.indel_share * count)))
    kinds = {index: ("insertion", "deletion")[j % 2] for j, index in enumerate(hit)}
    words = []
    for index in range(count):
        text = message_text(rng, w.k - 1, w.sparsity)
        kind = kinds.get(index)
        position = symbol = 0
        if kind == "insertion":
            position, symbol = 1 + rng.randrange(n + 1), rng.getrandbits(1)
        elif kind == "deletion":
            position = 1 + rng.randrange(n)
        words.append(Word(text, kind, position, symbol))
    return words


def received_text(codeword: str, word: Word) -> str:
    """The codeword as the channel delivers it to the decoder."""
    i = word.position - 1
    if word.kind == "insertion":
        return codeword[:i] + "01"[word.symbol] + codeword[i:]
    if word.kind == "deletion":
        return codeword[:i] + codeword[i + 1 :]
    return codeword


def zero_runs_at_least(text: str, r: int) -> int:
    """Zero runs of length >= r in a message: what sets the front end's replacement count."""
    return sum(1 for run in text.split("1") if len(run) >= r)
