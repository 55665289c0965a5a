"""Simple reference implementations that the tests compare the codec against.

Each function here is the plain, slow form of something the package does
faster: the O(n) scan over every edit that decoder.candidates replaces, the
restart-from-symbol-0 replacement loop that front._wi_encode replaces, the
one-bytearray undo loop that front._wi_decode replaces, the
solve-then-splice parity that code._parity replaces, the symbol-by-symbol
embedder that code._embed replaces, the enumeration sweep over every
parity word, modulus and collision value that analysis.gap_condition_check's
interval arithmetic replaces, the Stream-driven event draw that
channel.random_event's lean draw replaces, the parse-apply-format line that
the corrupt command's text splice replaces, and the run statistics the
run-limit predicates are checked against. The package never imports this
module.
"""
from __future__ import annotations

from itertools import accumulate
from operator import add, mul

from rllindel.analysis import rho
from rllindel.bitseq import _TO_ASCII, BitSeq, is_rll, le_encode
from rllindel.channel import (
    DELETION,
    INSERTION,
    ChannelEvent,
    Stream,
    apply_event,
    log_line,
    trial_seed,
)
from rllindel.code import CodeParams, _coefficients, coefficient_value, d_range
from rllindel.errors import DataError, InvariantError, ValidationError
from rllindel.front import _FORBIDDEN_ONE, omega
from rllindel.oracle import Report, _words


def reference_candidates(cp, data: bytes) -> set[bytes]:
    """All codewords one insertion or deletion away from data, by scanning every edit.

    data has length n-1 (a symbol was lost: try inserting 0 and 1 before each
    index) or n+1 (a symbol was gained: try deleting each one). A candidate's
    weight is the prefix before the edit at its own coefficients, plus the
    inserted symbol, plus the suffix after the edit at coefficients shifted one
    place, so the scan is O(n). This is the reference that
    decoder.candidates is tested against.
    """
    coeffs = _coefficients(cp.n, cp.r_hat, cp.d)
    length = len(data)
    grow = length < cp.n
    # pre[p]: weight of data[:p] in place
    pre = [0, *accumulate(map(mul, coeffs, data))]
    # rest[p]: weight of data[p:] moved one place right (grow) or left
    moved = coeffs[1:] if grow else (0, *coeffs)
    rest = [*accumulate(map(mul, moved[length - 1 :: -1], data[::-1]))][::-1] + [0]
    out: set[bytes] = set()
    if grow:
        for p, weight in enumerate(map(add, pre, rest)):
            if weight % cp.modulus == cp.b:
                out.add(data[:p] + b"\x00" + data[p:])
            if (weight + coeffs[p]) % cp.modulus == cp.b:
                out.add(data[:p] + b"\x01" + data[p:])
    else:
        for p, weight in enumerate(map(add, pre, rest[1:])):
            if weight % cp.modulus == cp.b:
                out.add(data[:p] + data[p + 1 :])
    return out


def reference_wi_encode(data: bytes, k: int, r: int) -> bytes:
    """The replacement front end, restarting its search at symbol 0 after every replacement.

    Each search runs over a fresh copy of the working word with the sentinel
    appended, so s replacements cost O(s k). This is the reference that
    front._wi_encode, a one-pass scan, is tested against.
    """
    pattern = b"\x00" * r + _FORBIDDEN_ONE
    v = bytearray(data)
    s = 0
    while True:
        idx = bytes(v + _FORBIDDEN_ONE).find(pattern)
        if idx < 0:
            break
        if s >= k:
            raise InvariantError(
                f"replacement loop overran s={s} at (k={k}, r={r}); parameters must be rejected"
            )
        p = idx + 1
        if p + r <= len(v):
            del v[idx : idx + r + 1]
            v.extend(le_encode(p + 3, r).tobytes())
        else:
            del v[idx:]
            v.append(1)
            v.extend(b"\x00" * (r - 2))
        s += 1
    out = bytes(v) + _FORBIDDEN_ONE + omega(s, r - 1).tobytes()
    if len(out) != k:
        raise InvariantError(f"encoded length {len(out)} != k={k} at (k={k}, r={r})")
    return out


def reference_wi_decode(data: bytes, k: int, r: int) -> bytes:
    """The replacement undo on one bytearray, one replacement at a time.

    Each undo reads the pointer off the end of the working word, deletes it
    and inserts 0^r 1 in the middle, moving every symbol behind the
    insertion point, so s undos cost O(s k). This is the reference that
    front._wi_decode, a gap buffer over the received word, is tested
    against, bytes and DataError texts alike.
    """
    if b"\x00" * r in data:
        raise DataError(f"word violates the zero-run constraint for r={r}")
    block = b"\x01" * (r - 1) + b"\x00"
    i = len(data)
    nblocks = 0
    while i >= r and data[i - r : i] == block:
        i -= r
        nblocks += 1
    a = 0
    while i >= 1 and data[i - 1] == 0:
        i -= 1
        a += 1
    if i == 0:
        raise DataError("no sentinel symbol found while parsing the replacement count")
    s = a + r * nblocks
    if s == 0:
        return data[: i - 1]
    v = bytearray(data[: i - 1])
    pattern = b"\x00" * r + _FORBIDDEN_ONE
    marker = b"\x01" + b"\x00" * (r - 2)
    for step in range(s, 0, -1):
        if len(v) >= r:
            # the pointer is le_encode(p + 3, r): its text read backwards is binary
            p = int(v[-r:][::-1].translate(_TO_ASCII), 2) - 3
            if 1 <= p <= len(v) - r + 1:
                del v[-r:]
                v[p - 1 : p - 1] = pattern
                continue
        if v.endswith(marker):
            del v[1 - r :]
            v.extend(b"\x00" * r)
            continue
        raise DataError(
            f"undo step {step}: trailing symbols match neither a valid pointer nor the end marker"
        )
    return bytes(v)


def reference_parity_word(cp, p_rhat: int, p_m: int, sigma: int) -> bytes:
    """The m parity symbols for message-part weight sigma, spliced around a solved word.

    The solve gives q = le_encode(residue, r_hat + 1) for the weights
    (2^0 .. 2^(r_hat-2), 2^(r_hat-1), 2^r_hat); q is then split after its
    r_hat - 1 low symbols to take p_rhat, and p_m is appended. This is the
    reference that code._parity, one format of the parity's value, is
    tested against.
    """
    a_m = coefficient_value(cp.m, cp.r_hat, cp.d)
    residue = (cp.b - cp.d * p_rhat - a_m * p_m - sigma) % cp.modulus
    q = le_encode(residue, cp.r_hat + 1).tobytes()
    split = cp.r_hat - 1
    return q[:split] + bytes((p_rhat,)) + q[split:] + bytes((p_m,))


def reference_embed(cp, y: bytes) -> bytes:
    """The codeword for message part y, with every run counted and every symbol weighed.

    The reference that code.embed_encode, which checks the run limit on y's
    packing, and code._embed, which from 200 symbols on weighs y on its
    packing, are tested against: the same parity drafts and the same errors,
    found one symbol at a time.
    """
    r = cp.r
    if max_run_length(BitSeq(y)) > r:
        raise DataError(f"message part violates the run-length limit r={r}")
    # y sits at positions m+1 .. n, whose coefficients are a_(m+1) .. a_n
    sigma = sum(a for a, symbol in zip(_coefficients(cp.n, cp.r_hat, cp.d)[cp.m :], y) if symbol)
    for p_rhat in (0, 1):
        p = reference_parity_word(cp, p_rhat, y[0] ^ 1, sigma)
        if max_run_length(BitSeq(p)) <= r:
            return p + y
    raise InvariantError(
        f"fallback parity still violates the run-length limit at "
        f"(k={cp.k}, r={r}, d={cp.d}, b={cp.b})"
    )


def reference_gap_condition(r_hat: int) -> Report:
    """The gap-condition sweep by enumeration: every parity word, modulus and collision value.

    Filters all 2^(r_hat + 3) parity words for the forbidden ones, takes the
    modulus of every k in the band, and tests every collision value against
    every modulus, so its cost grows as 2^(2 r_hat). The families are the
    maximal runs of consecutive collision values. This is the reference that
    analysis.gap_condition_check, interval arithmetic per weight difference,
    is tested against; it reports the same way and raises the same errors.
    """
    d_lo, d_hi = d_range(r_hat)
    k_lo, k_hi = (1 << (r_hat - 1)) - 1, (1 << r_hat) - 2
    diffs = set()
    for last in (0, 1):
        words = (BitSeq._wrap(data) for data in _words(r_hat + 3) if data[-1] == last)
        words = [word for word in words if not is_rll(word, r_hat)]
        first_pass = [p for p in words if p[r_hat - 1] == 0]
        fallback = [p for p in words if p[r_hat - 1] == 1]
        for p1 in fallback:
            for p0 in first_pass:
                diffs.add(rho(r_hat, p1) - rho(r_hat, p0))
    moduli = {
        k: CodeParams.unchecked(k, r_hat, r_hat, d_lo, 0).modulus for k in range(k_lo, k_hi + 1)
    }
    by_value = {}  # each collision value A -> the weights d that reach it
    for d in range(d_lo, d_hi + 1):
        for diff in diffs:
            by_value.setdefault(diff + d, []).append(d)
    hits = {
        (k, d, a)
        for k, modulus in moduli.items()
        for a, ds in by_value.items()
        if a % modulus == 0
        for d in ds
    }
    values = sorted(by_value)
    runs = list(zip(
        [a for a in values if a - 1 not in by_value],
        [a for a in values if a + 1 not in by_value],
    ))
    if len(runs) != 3:
        raise InvariantError(f"collision values form {len(runs)} runs, not three families")
    c1, c2, c3 = runs
    dd = (moduli[k_lo], moduli[k_hi])
    chain = (
        0 < c1[0] <= c1[1] < c2[0] <= c2[1] < dd[0] <= dd[1] <= c3[0] <= c3[1] < 2 * dd[0]
    ) and (dd[1] == c3[0]) == (r_hat == 4)
    collisions = sorted(hits)
    families = zip(("c1", "c2", "c3", "d_interval"), (c1, c2, c3, dd))
    return Report(
        name="gap-condition",
        params={"r_hat": r_hat},
        passed=chain and hits == ({(14, 5, 32)} if r_hat == 4 else set()),
        counterexample=";".join(f"(k={k},d={d},A={a})" for k, d, a in collisions) or None,
        stats={
            **{name: f"{lo}..{hi}" for name, (lo, hi) in families},
            "chain": "yes" if chain else "no",
            "collisions": len(collisions),
        },
    )


def reference_random_event(length: int, seed: int, kind: str | None = None) -> ChannelEvent:
    """One event for a word of the given length, drawn through a Stream and a validating ChannelEvent.

    The kind is drawn uniformly unless forced, the position is uniform over
    the valid range for the kind and an insertion's symbol is uniform over
    {0, 1}. This is the reference that channel.random_event, which steps
    splitmix64 on a local state and builds the event unchecked, is tested
    against. Its Stream.below and random_event share one rejection sampler,
    so test_channel.py checks Stream.below on its own against Stream.next.
    """
    if length < 1:
        raise DataError(f"length must be at least 1 (got {length})")
    stream = Stream(seed)
    if kind is None:
        kind = DELETION if stream.next() & 1 else INSERTION
    elif kind not in (INSERTION, DELETION):
        raise ValidationError(f"unknown event kind {kind!r}")
    if kind == INSERTION:
        position = 1 + stream.below(length + 1)
        return ChannelEvent(INSERTION, position, stream.next() & 1)
    return ChannelEvent(DELETION, 1 + stream.below(length))


def reference_corrupt_line(text: str, base_seed: int, number: int, kind: str | None) -> tuple[str, str]:
    """Line number of a corrupt run: (the corrupted line, its event log line).

    The line is parsed into a BitSeq, hit by apply_event and formatted back
    to text. This is the reference that the corrupt command's transform,
    which splices the text line itself, is tested against.
    """
    s = BitSeq.parse(text)
    event = reference_random_event(len(s), trial_seed(base_seed, number - 1), kind)
    return str(apply_event(s, event)), log_line(event)


def max_run_length(s: BitSeq) -> int:
    """Length of the longest block of equal consecutive symbols (0 for the null word)."""
    best = 0
    cur = 0
    prev = -1
    for b in s._data:
        if b == prev:
            cur += 1
        else:
            prev = b
            cur = 1
        if cur > best:
            best = cur
    return best


def max_zero_run(s: BitSeq) -> int:
    """Length of the longest block of consecutive 0 symbols (0 if there are none)."""
    best = 0
    cur = 0
    for b in s._data:
        if b:
            cur = 0
        else:
            cur += 1
            if cur > best:
                best = cur
    return best
