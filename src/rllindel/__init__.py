"""Run-length-limited codes that correct a single insertion or deletion.

The pipeline has three layers. A sequence-replacement front-end turns
arbitrary messages into zero-run-limited words and an NRZI transform turns
those into run-length-limited words. A congruence embedder then prepends a
short parity so the codeword's weighted sum hits a fixed residue, which is
what makes one insertion or deletion uniquely reversible. The decoder walks
the layers backward, correcting the indel first.

The package namespace holds the codec itself. Brute-force oracles
(`oracle`), redundancy analysis (`analysis`), the seeded channel (`channel`)
and the per-layer functions are imported from their modules; `cli` exposes
everything as a command-line tool.
"""
from .bitseq import BitSeq
from .code import CodeParams, derive_params, encode_message
from .decoder import correct, decode_message
from .errors import CodecError, DataError, InvariantError, UncorrectableError, ValidationError
from .front import FrontParams

__version__ = "0.1.0"

__all__ = [
    "BitSeq",
    "CodeParams",
    "CodecError",
    "DataError",
    "FrontParams",
    "InvariantError",
    "UncorrectableError",
    "ValidationError",
    "correct",
    "decode_message",
    "derive_params",
    "encode_message",
    "__version__",
]
