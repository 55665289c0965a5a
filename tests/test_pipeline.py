"""The fused encode and decode pipelines against the chain of public layer functions."""
import random

import pytest

from rllindel import BitSeq, decode_message, derive_params, encode_message
from rllindel.bitseq import is_rll
from rllindel.channel import apply_event, random_event
from rllindel.code import coefficient_value, embed_encode, mu
from rllindel.decoder import correct
from rllindel.front import FrontParams, nrzi_decode, nrzi_encode, wi_decode, wi_encode

# one (k, r) per band, at the smallest run limit the code accepts (r = r_hat),
# and n = 199 and 200 on either side of the length from which encode_message
# packs the word once for NRZI and the weighted sum
SHAPES = [(7, 4), (13, 4), (60, 6), (188, 8), (189, 8), (250, 8), (4000, 12)]


def cases(k: int, r: int, count: int):
    """(message, residue b, received word) triples for seeded messages.

    Messages alternate between uniform ones and sparse ones (P(1) = 1/16,
    so the front end makes replacements). Each message is taken at b = 0 and
    at the b whose first parity draft is 0^(r_hat + 2) p_m, a run longer
    than r = r_hat, so its codeword takes the fallback parity. Each codeword
    is received intact and with one seeded indel.
    """
    rng = random.Random(f"pipeline {k} {r}")
    fp = FrontParams(k, r)
    base = derive_params(k, r)
    a_m = coefficient_value(base.m, base.r_hat, base.d)
    for i in range(count):
        p_one = 0.5 if i % 2 else 1 / 16
        u = BitSeq(bytes(rng.random() < p_one for _ in range(k - 1)))
        y = nrzi_encode(wi_encode(u, fp))
        sigma = mu(base, BitSeq(bytes(base.m)) + y)
        for b in (0, (sigma + a_m * (y[0] ^ 1)) % base.modulus):
            z = encode_message(u, k, r, b=b)
            for received in (z, apply_event(z, random_event(len(z), rng.getrandbits(64)))):
                yield u, b, received


@pytest.mark.parametrize("k, r", SHAPES)
def test_fused_pipelines_match_the_layer_chain(k, r):
    fp = FrontParams(k, r)
    count = 8 if k == 4000 else 40
    fallbacks = 0
    for u, b, received in cases(k, r, count):
        cp = derive_params(k, r, b=b)
        z = encode_message(u, k, r, b=b)
        # no check on encode_message's path: the front end and NRZI keep runs within r
        assert is_rll(z, r)
        assert z == embed_encode(cp, nrzi_encode(wi_encode(u, fp)))
        # position r_hat holds p_rhat, which is 1 only in a fallback parity
        fallbacks += z[cp.r_hat - 1]
        got = decode_message(cp, received)
        assert got == wi_decode(nrzi_decode(correct(cp, received)[cp.m :]), fp)
        assert got == u
    # each message gives one fallback codeword, received twice
    assert fallbacks >= 2 * count


def test_one_bitseq_per_pipeline_call(monkeypatch):
    built = []
    wrap = BitSeq._wrap.__func__

    def counting(cls, data):
        built.append(data)
        return wrap(cls, data)

    monkeypatch.setattr(BitSeq, "_wrap", classmethod(counting))
    for k, r in SHAPES:
        for u, b, received in cases(k, r, 4):
            cp = derive_params(k, r, b=b)
            built.clear()
            encode_message(u, k, r, b=b)
            assert len(built) == 1
            built.clear()
            decode_message(cp, received)
            assert len(built) == 1
