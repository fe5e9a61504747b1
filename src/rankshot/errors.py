"""Exception types shared across the package, the enumeration guard and
the prime field size bound."""

import math

ENUM_GUARD = 1 << 20           # codewords: bounds the Python codeword lists
STACK_GUARD_BYTES = 1 << 26    # 64 MiB: bounds an int64 stack built from them
Q_GUARD = 1 << 31              # prime q: products of two residues and their
                               # difference stay inside int64


class ConfigError(Exception):
    """A configuration document is malformed or internally inconsistent."""


class GuardError(Exception):
    """An exhaustive operation would exceed its enumeration guard."""


def guard_enumeration(count: int, word_shape: tuple = ()) -> None:
    """Refuse to enumerate *count* codewords when that is too large.

    A non-empty *word_shape* says the caller is about to allocate an
    int64 stack of shape (count, *word_shape); its size is checked too,
    before anything is enumerated or allocated.
    """
    stack_bytes = 8 * count * math.prod(word_shape) if word_shape else 0
    if count > ENUM_GUARD or stack_bytes > STACK_GUARD_BYTES:
        raise GuardError(
            f"enumerating {count} codewords with {stack_bytes} stack bytes exceeds the "
            f"enumeration guard of {ENUM_GUARD} codewords or {STACK_GUARD_BYTES} stack bytes"
        )
