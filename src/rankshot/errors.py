"""Exception types shared across the package, the enumeration guard,
the bounds on the prime field size q and the reader of JSON integers."""

import math
import operator

ENUM_GUARD = 1 << 20           # codewords: bounds the Python codeword lists
STACK_GUARD_BYTES = 1 << 26    # 64 MiB: bounds the int64 arrays a build holds at once
Q_GUARD = 1 << 31              # prime q: products of two residues and their
                               # difference stay inside int64
INT64_MAX = (1 << 63) - 1


class ConfigError(Exception):
    """A configuration document is malformed or internally inconsistent."""


class GuardError(Exception):
    """An exhaustive operation would exceed its enumeration guard."""


def guard_enumeration(count: int, word_shape: tuple = (), transient: int = 0) -> None:
    """Refuse to enumerate *count* codewords when that is too large.

    A non-empty *word_shape* says the caller is about to allocate an
    int64 stack of shape (count, *word_shape), and *transient* how many
    more int64 entries per codeword its build holds beside that stack at
    its peak.  Their sum is checked too, before anything is enumerated or
    allocated.
    """
    stack_bytes = 8 * count * math.prod(word_shape) if word_shape else 0
    held_bytes = stack_bytes + 8 * count * transient
    if count > ENUM_GUARD or held_bytes > STACK_GUARD_BYTES:
        raise GuardError(
            f"enumerating {count} codewords with {stack_bytes} stack bytes "
            f"({held_bytes} bytes held while building) exceeds the enumeration guard "
            f"of {ENUM_GUARD} codewords or {STACK_GUARD_BYTES} bytes held"
        )


def json_int(value, what: str) -> int:
    """*value* as an int, for a count, dimension or seed read from JSON.

    A bool, float or str raises TypeError rather than being coerced:
    int() would truncate 2.7 to 2 or parse "12", and iterating "12"
    would read it as the list [1, 2].
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def int64_products_fit(terms: int, q: int) -> bool:
    """Whether terms * (q - 1)^2 + q stays inside int64.

    It bounds one entry of a matrix product over F_q, a sum of *terms*
    products of two residues mod q, taken in int64 before its reduction,
    and that entry subtracted from or added to one more residue.
    """
    return terms * (q - 1) ** 2 + q <= INT64_MAX
