"""Exception taxonomy shared by every module.

Every rejection the package makes is a CodecError subclass. The split matters
for the CLI exit-code contract: parameter problems (ValidationError) exit 2,
malformed or uncorrectable data (DataError) exit 3.

Which class a check raises follows from what it rejects:

* a size, limit, cap or shape argument (a run limit, a width, a bound, r_hat,
  a tail parameter, an event kind, an enumeration or sweep cap) raises
  ValidationError;
* a word, symbol, value or position that does not fit (a BitSeq symbol, an
  integer too wide for its word, an event position, a word too short to
  corrupt) raises DataError.

InvariantError marks conditions the construction guarantees cannot happen for
valid parameters; one firing is a bug or a deliberately excluded parameter set.
"""


class CodecError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CodecError):
    """A parameter bundle violates one of its documented constraints."""


class DataError(CodecError):
    """An input sequence is malformed for the requested operation."""


class UncorrectableError(DataError):
    """No candidate codeword explains the received word."""


class InvariantError(CodecError):
    """An internal guarantee failed; must never fire for valid parameters."""
