"""The congruence code and its systematic-like embedding encoder.

A codeword of length n is any word z whose weighted sum mu(z) = sum a_i z_i
is congruent to b modulo a_(n+1), where the strictly increasing coefficient
sequence is shaped by a parameter r_hat:

    a_i = 2^(i-1)              for i < r_hat
    a_i = d                    for i = r_hat  (d free within its range)
    a_i = 2^(i-2)              for i in {r_hat+1, r_hat+2}
    a_i = 2^r_hat + i-r_hat-2  for i in [r_hat+3, n+1]

The affine formula already holds at i = r_hat+2, since a_(r_hat+2) = 2^r_hat,
so every coefficient step a_(i+1) - a_i from i = r_hat+2 on is 1; the decoder
relies on this. It also makes the weighted sum cheap on long words: with the
word packed one bit per symbol into an int, the affine part weighs
(2^r_hat - r_hat - 1) times its c ones plus the sum of their 0-based
indices. Index i of a length-L word sits at bit L - 1 - i of the int, so
that index sum is (L - 1) * c - sum_t 2^t * popcount(affine & M_t), where
the mask M_t marks the bits with bit t set. Indexed from the word's end, the
masks do not depend on L, so one set, cached per bit width, serves every
length of that width.
That is ceil(log2 n) ANDs and popcounts in place of one pass over n
coefficients (_sliced_sum), and it reads only the r_hat + 2 head
coefficients. _weight is the codec's one weighted sum: below the measured
crossover of 200 symbols it makes the plain pass over a full coefficient
table, from there on it takes the sliced sum, so no word of _SLICED_FROM
symbols or more builds a table of its own length.

Strict monotonicity of the coefficients is what makes a single insertion or
deletion uniquely reversible (see decoder). The encoder embeds a run-length-
limited message part y of length k behind an m-symbol parity part p chosen so
the concatenation z = p y lands in the code: the parity positions excluding
r_hat and m carry the weights (2^0 .. 2^(r_hat-2), 2^(r_hat-1), 2^r_hat), so
a single little-endian solve always produces a fitting parity. Position m is
a separator fixed to the complement of y_1; if the first parity draft carries
a run longer than r, flipping position r_hat and re-solving repairs it for
every valid parameter set except the excluded triple (k, r, d) = (14, 4, 5).

Bytes inside: _embed takes the message part as raw bytes, one byte per
symbol, and returns the codeword's bytes. It builds the two forbidden runs
once, weighs the message part once, and lays out each m-symbol parity draft
with one format of its little-endian value, p_rhat and p_m shifted into
place. Only the public functions check lengths and build a BitSeq, one per
call; encode_message chains the front end's bytes functions into _embed and
wraps once. The message part's run limit is checked only where the part
comes from outside, in embed_encode; on encode_message's path the front end
guarantees it. Where the word is packed: embed_encode packs its message part
once at every length, checks the run limit on that int (bitseq._run_over,
about ceil(log2 r) shifts and ANDs) and hands it to _weight, since m zero
parity symbols ahead of y leave y's packing unchanged. encode_message packs
nothing below _SLICED_FROM symbols, as _weight takes the bytes; from there
on it packs the front end's word once, one bit per symbol, and
front._nrzi_packed runs NRZI on that int and unpacks it once for the output,
and the int goes on to _weight. The m-symbol parity drafts stay bytes and
are searched.

One CodeParams type describes every code. Its unchecked constructor is the
only place that derives m = r_hat + 3, n = m + k and the modulus a_(n+1),
taken from the coefficient formula itself, so it also holds at the short
lengths the enumeration oracles probe. derive_params and raw_params validate
their inputs and then call it.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress

from .bitseq import _FROM_ASCII, _TO_ASCII, BitSeq, _run_over, _run_patterns
from .errors import DataError, InvariantError, ValidationError, _require_int
from .front import _message, _nrzi_encode, _nrzi_packed, _wi_encode

# The word length from which _sliced_sum, with the word's packing counted,
# beats one compress pass over the coefficients. Measured with timeit on one
# pinned CPU (2-vCPU host, Python 3.11), where the two costs cross between
# n = 180 and 220. A caller that holds the word packed already saves the
# pack, but at n = 161 the two still cost about the same (2.05 us for the
# pass, 2.21 us for the sliced sum), so one crossover serves every caller.
_SLICED_FROM = 200

# the one (k, r, d) whose parity fallback can break the run limit; its r_hat is r
_EXCLUDED_TRIPLE = (14, 4, 5)


class CodeParams(namedtuple("CodeParams", "k r_hat r d b m n modulus")):
    """Parameter bundle for one code instance, an immutable named tuple.

    derive_params validates (k, r, d, b) for the embedding encoder and
    raw_params validates a bare (n, r_hat, d, b) code definition; both build
    the bundle through unchecked, the one place that derives m, n and the
    modulus. Calling unchecked directly skips validation and is reserved for
    oracle runs that deliberately probe excluded parameter sets; so is
    _replace, which copies the bundle with fields changed and checks nothing.
    """

    __slots__ = ()

    @classmethod
    def unchecked(cls, k: int, r_hat: int, r: int, d: int, b: int) -> "CodeParams":
        """Build the bundle with m = r_hat + 3, n = m + k and modulus a_(n+1), unvalidated."""
        m = r_hat + 3
        n = m + k
        return cls(k, r_hat, r, d, b, m, n, coefficient_value(n + 1, r_hat, d))


def _check_r_hat(r_hat: int) -> None:
    if r_hat < 4:
        raise ValidationError(f"shape parameter must be at least 4 (got r_hat={r_hat})")


def d_range(r_hat: int) -> tuple[int, int]:
    """Valid closed range for the free coefficient d at a given r_hat >= 4."""
    _check_r_hat(r_hat)
    return (1 << (r_hat - 2)) + 1, (1 << (r_hat - 1)) - 1


def _check_d(d: int, r_hat: int) -> None:
    # every d in range has r_hat - 1 bits, so an r_hat more than one above
    # d's bit length is rejected without building 2^r_hat, which can be too
    # large to hold or to print
    if r_hat - 2 > d.bit_length():
        raise ValidationError(
            f"free coefficient d={d} is outside [2^{r_hat - 2} + 1, 2^{r_hat - 1} - 1] "
            f"for r_hat={r_hat}"
        )
    d_lo, d_hi = d_range(r_hat)
    if not d_lo <= d <= d_hi:
        raise ValidationError(
            f"free coefficient d={d} is outside [{d_lo}, {d_hi}] for r_hat={r_hat}"
        )


def _check_b(cp: CodeParams) -> CodeParams:
    if not 0 <= cp.b < cp.modulus:
        raise ValidationError(f"residue b={cp.b} is outside [0, {cp.modulus - 1}]")
    return cp


@lru_cache(maxsize=256, typed=True)
def derive_params(k: int, r: int, d: int | None = None, b: int | None = None) -> CodeParams:
    """Derive and validate the full parameter bundle from (k, r) and optional (d, b).

    r_hat is the unique shape parameter with k in [2^(r_hat-1) - 1, 2^r_hat - 2];
    m = r_hat + 3, n = m + k, modulus = a_(n+1) = 2^r_hat + k + 2. d defaults
    to the top of its valid range and b to 0. Results are memoized per
    argument tuple; a rejection is not cached, so it is raised again on every
    call with the same text.

    This is the pipeline's only range check. It admits r_hat <= r <= n. The
    upper end only checks the argument's range: a limit above the code
    length cannot bind, and the functions that test or build runs cut r at
    their word length, so none of them needs it. r >= r_hat gives
    k <= 2^r - 2, within the front end's range: k <= 2^r + r - 5 for r <= 4
    and k <= 2^r + r - 7 for r >= 5. Of the two lengths at r <= 4 where the
    front end's decoder confirms its parse by re-encoding, 2^r + r - 6 and
    2^r + r - 5, only (k, r) = (14, 4) is reached, with d = 6 or 7.
    """
    for name, value in (("k", k), ("r", r), ("d", d), ("b", b)):
        if value is not None:
            _require_int(value, name, ValidationError)
    if k < 7:
        raise ValidationError(f"message-part length must be at least 7 (got k={k})")
    r_hat = (k + 1).bit_length()
    if d is None:
        d = d_range(r_hat)[1]
    else:
        _check_d(d, r_hat)
    if r < r_hat:
        raise ValidationError(f"run limit r={r} is below r_hat={r_hat}")
    if r > k + r_hat + 3:
        raise ValidationError(f"run limit r={r} exceeds the code length n={k + r_hat + 3}")
    if (k, r, d) == _EXCLUDED_TRIPLE:
        raise ValidationError(
            f"(k, r, d) = {_EXCLUDED_TRIPLE} is excluded: the parity fallback cannot "
            "guarantee the run-length limit for this triple"
        )
    return _check_b(CodeParams.unchecked(k, r_hat, r, d, 0 if b is None else b))


def raw_params(n: int, r_hat: int, d: int, b: int = 0) -> CodeParams:
    """Definition-level parameters for enumeration oracles (no encoder attached).

    Allows code lengths below the encoder's minimum. Only n, r_hat, d, b and
    the modulus are meaningful; k = n - r_hat - 3 and r = r_hat merely fill
    the bundle.
    """
    for name, value in (("n", n), ("r_hat", r_hat), ("d", d), ("b", b)):
        _require_int(value, name, ValidationError)
    if n < 1:
        raise ValidationError(f"code length must be positive (got n={n})")
    _check_r_hat(r_hat)
    _check_d(d, r_hat)
    return _check_b(CodeParams.unchecked(n - r_hat - 3, r_hat, r_hat, d, b))


def coefficient_value(i: int, r_hat: int, d: int) -> int:
    """The i-th coefficient of the shape-(r_hat, d) sequence, i >= 1 and r_hat >= 4 (d unchecked)."""
    if i < 1:
        raise ValidationError(f"coefficient index must be at least 1 (got i={i})")
    _check_r_hat(r_hat)
    if i < r_hat:
        return 1 << (i - 1)
    if i == r_hat:
        return d
    if i <= r_hat + 2:
        return 1 << (i - 2)
    return (1 << r_hat) + i - r_hat - 2


@lru_cache(maxsize=None)
def _coefficients(n: int, r_hat: int, d: int) -> tuple[int, ...]:
    return tuple(coefficient_value(i, r_hat, d) for i in range(1, n + 2))


@lru_cache(maxsize=None)
def _index_masks(bits: int) -> tuple[int, ...]:
    """Mask t, for t < bits, sets every bit j < 2^bits whose bit t is set.

    Bit 0 is the word's last symbol, so index i of a length-L word with
    L <= 2^bits sits at bit L - 1 - i, and one set serves every such length:
    the indices of the c ones of affine sum to
    (L - 1) * c - sum_t 2^t * popcount(affine & M_t). The cache needs no
    bound: the sets of all widths up to bits hold less than twice this set.
    """
    return tuple(int(("1" * 2**t + "0" * 2**t) * 2 ** (bits - 1 - t), 2) for t in range(bits))


def _sliced_sum(cp: CodeParams, data: bytes, packed: int) -> int:
    """sum(compress(coefficients, data)) in O(log n) big-int steps, for len(data) <= n + 1.

    packed is data one bit per symbol with data[0] most significant, that is
    int(data.translate(_TO_ASCII), 2). The head symbols, the first r_hat + 2,
    are summed directly over the head table a_1 .. a_(r_hat+2). From 0-based
    index r_hat + 1 on, the coefficient at index i is base + i with
    base = 2^r_hat - r_hat - 1, so each of the c ones after the head (the
    affine part) weighs base plus its index, and, with L = len(data), the
    index sum is (L - 1) * c - sum_t 2^t * popcount(affine & mask_t).
    """
    r_hat = cp.r_hat
    length = len(data)
    affine = packed & ((1 << max(length - r_hat - 2, 0)) - 1)
    weight = sum(compress(_coefficients(r_hat + 1, r_hat, cp.d), data))
    # each one weighs base + L - 1 less its bit position
    weight += ((1 << r_hat) - r_hat - 2 + length) * affine.bit_count()
    for t, mask in enumerate(_index_masks((length - 1).bit_length())):
        weight -= (affine & mask).bit_count() << t
    return weight


def _weight(cp: CodeParams, data: bytes, packed: int | None = None) -> int:
    """The weighted sum of data placed at positions 1 .. len(data) <= n + 1.

    Below _SLICED_FROM symbols one compress pass over the coefficients is
    cheapest; from there on _sliced_sum takes over, and packs the word unless
    the caller passes it packed already.
    """
    if len(data) < _SLICED_FROM:
        return sum(compress(_coefficients(cp.n, cp.r_hat, cp.d), data))
    if packed is None:
        packed = int(data.translate(_TO_ASCII), 2)
    return _sliced_sum(cp, data, packed)


def mu(cp: CodeParams, z: BitSeq) -> int:
    """Weighted sum of z under the coefficient sequence (exact integer)."""
    n = cp.n
    if len(z) != n:
        raise DataError(f"word length {len(z)} != n = {n}")
    return _weight(cp, z.tobytes())


def is_codeword(cp: CodeParams, z: BitSeq) -> bool:
    """True iff mu(z) is congruent to b modulo a_(n+1)."""
    return mu(cp, z) % cp.modulus == cp.b


def _parity(cp: CodeParams, p_rhat: int, p_m: int, sigma: int) -> bytes:
    """The m parity symbols that bring the message-part weight sigma to residue b.

    The solved value q of positions (1 .. r_hat-1, r_hat+1, r_hat+2), which
    weigh (2^0 .. 2^(r_hat-2), 2^(r_hat-1), 2^r_hat), is laid out as q's low
    r_hat - 1 bits, p_rhat, q's top two bits and p_m. Well defined because
    the modulus never exceeds 2^(r_hat+1).
    """
    # a_m = 2^r_hat + 1, as m = r_hat + 3 lies in the affine part
    q = (cp.b - cp.d * p_rhat - ((1 << cp.r_hat) + 1) * p_m - sigma) % cp.modulus
    split = cp.r_hat - 1
    # le_encode's range check; only an unchecked bundle's modulus exceeds 2^(r_hat + 1)
    if q >> (split + 2):
        raise DataError(f"value x={q} is outside [0, 2^{split + 2} - 1]")
    # the parity's little-endian value, with a 1 above its m bits so that the
    # binary text, reversed and less its last character, has exactly m symbols
    value = q & ((1 << split) - 1) | p_rhat << split | q >> split << (split + 1)
    value |= (p_m | 2) << (split + 3)
    return format(value, "b")[:0:-1].encode().translate(_FROM_ASCII)


def parity_word(cp: CodeParams, p_rhat: int, p_m: int, y: BitSeq) -> BitSeq:
    """The assembled m-symbol parity part for the given separator/fallback symbols.

    The message part y sits at positions m+1 .. n, so its weight is that of
    y behind m zero parity symbols.
    """
    if len(y) != cp.k:
        raise DataError(f"message-part length {len(y)} != k = {cp.k}")
    if p_rhat not in (0, 1) or p_m not in (0, 1):
        raise DataError("parity symbols must be 0 or 1")
    return BitSeq._wrap(_parity(cp, p_rhat, p_m, _weight(cp, bytes(cp.m) + y.tobytes())))


def _embed(cp: CodeParams, y: bytes, packed: int | None = None) -> bytes:
    """The codeword's symbols for a k-symbol message part y within the run limit.

    The caller answers for y's run limit: embed_encode checks the message
    part it is given, and on encode_message's path the front end leaves no
    run of r zeros, which NRZI turns into runs of at most r. packed, if
    given, is y packed one bit per symbol, which is also the packing of the
    m zero parity symbols and y that _weight takes.
    """
    zeros, ones = _run_patterns(cp.r, cp.n)
    p_m = y[0] ^ 1
    sigma = _weight(cp, bytes(cp.m) + y, packed)
    # the first draft fixes position r_hat to 0, the fallback flips it to 1
    for p_rhat in (0, 1):
        p = _parity(cp, p_rhat, p_m, sigma)
        if zeros not in p and ones not in p:
            return p + y
    raise InvariantError(
        f"fallback parity still violates the run-length limit at "
        f"(k={cp.k}, r={cp.r}, d={cp.d}, b={cp.b})"
    )


def embed_encode(cp: CodeParams, y: BitSeq) -> BitSeq:
    """Embed a run-length-limited message part behind a solved parity part.

    The message part comes from outside the pipeline, so its length and run
    limit are checked here, the run limit on its packing (bitseq._run_over),
    which _weight then takes as well. The first parity draft fixes position
    r_hat to 0; if the draft carries a run longer than r, position r_hat is
    flipped to 1 and the congruence is re-solved with the same message-part
    weight. The separator p_m = y_1 xor 1 keeps parity and message runs from
    merging, so the result is a codeword within the run-length limit.
    """
    if len(y) != cp.k:
        raise DataError(f"message-part length {len(y)} != k = {cp.k}")
    data = y.tobytes()
    packed = int(data.translate(_TO_ASCII), 2)
    if _run_over(packed, cp.k, cp.r):
        raise DataError(f"message part violates the run-length limit r={cp.r}")
    return BitSeq._wrap(_embed(cp, data, packed))


def encode_message(u: BitSeq, k: int, r: int, d: int | None = None, b: int | None = None) -> BitSeq:
    """Full pipeline: message of length k-1 to codeword of length n = k + r_hat + 3."""
    cp = derive_params(k, r, d, b)
    # _wi_encode checks that its output, the message part, has length k
    x = _wi_encode(_message(u, k), k, r)
    if cp.n < _SLICED_FROM:
        return BitSeq._wrap(_embed(cp, _nrzi_encode(x)))
    # from here on _weight takes a packed word: NRZI packs it once for both
    return BitSeq._wrap(_embed(cp, *_nrzi_packed(x)))


def params_text(cp: CodeParams) -> str:
    """Key=value serialization of the bundle plus the valid d range."""
    d_min, d_max = d_range(cp.r_hat)
    pairs = (*zip(cp._fields, cp), ("d_min", d_min), ("d_max", d_max))
    return "".join(f"{key}={value}\n" for key, value in pairs)
