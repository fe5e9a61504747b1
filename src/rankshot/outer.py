"""Reed-Solomon outer codes and the per-level symbol maps.

Outer codes are evaluation codes: a message (f_0 .. f_{k-1}) encodes to
the values of the polynomial at the points x_i = g^i, i < n, where g is
the alphabet field's canonical generator element, so encode is one
matvec by the Vandermonde generator x_i^l, l < k.  The codes are MDS
with minimum Hamming distance n - k + 1 and decoded either by an
exhaustive nearest-codeword decoder (reference semantics; the codebook,
the F_q-span of the encodings of the single-digit messages built by
linalg.span_codebook, is held in codeword order, so the first minimum
of its scan is the smallest codeword tuple, and a received codeword is
read from the codebook without a scan) or by the Welch-Berlekamp
decoder, which handles errors and erasures up to 2e + f <= d - 1 and
reports failure beyond that.

Welch-Berlekamp asks, on the n_live positions left after f erasures,
for E of degree <= e = floor((n_live - k) / 2) and Q of degree
< e + k with y_i E(x_i) = Q(x_i).  That is the Gabidulin decoder's
system R v = G w with a Vandermonde matrix for the Moore matrix: R's
columns are y_i x_i^l, l <= e, and G's x_i^l, l < e + k, on the live
points.  G has full column rank (distinct points, e + k <= n_live), so
linalg.split_constant_block splits it into solve rows B and check rows
C, and linalg.solve_split takes v = E, the first kernel vector of C R,
and w = Q = B R v.  The all-points split is kept with the code; a
decode with erasures splits its live rows for that call and keeps
nothing, since there are up to 2^n erasure patterns.  One exact
division Q = E p with deg p < k ends the decode, and any kernel vector
gives the same answer.  If a codeword p lies within the radius, its
error locator and p times it solve the system, so the kernel is not
empty; and for any solution, Q - pE has degree < e + k and vanishes at
the >= n_live - e >= e + k live points where the word agrees with p,
so it is zero and the division finds p.  Conversely an exact quotient p
of degree < k makes every live disagreement y_i != p(x_i) a root of E
(y_i E(x_i) = p(x_i) E(x_i)), of which there are at most e, so
2e + f <= d - 1 holds for p.  So the outputs are exactly the
bounded-distance decoder's.

A SymbolMap carries level messages between width-w coefficient tuples
over F_{q^M} and symbols of the level alphabet, which for w > 1 is a
freshly constructed degree-w extension of F_{q^M}.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fields import ExtensionField, check_word, matvec, poly_divmod
from .linalg import (
    element_ints, single_digit_messages, solve_split, span_codebook, split_constant_block,
)


def _product_index(symbols, size: int) -> int:
    """Index of *symbols* in itertools.product(range(size), repeat=len(symbols))."""
    index = 0
    for s in symbols:
        index = index * size + s
    return index


def _base_digits(size: int, q: int) -> int:
    """Number of base-q digits of the elements of a field of *size* elements."""
    digits = 0
    while size > 1:
        size //= q
        digits += 1
    return digits


class SymbolMap:
    """Bijection between width-w tuples over a base field and the symbols
    of the level alphabet."""

    def __init__(self, base_field, width: int):
        if width < 1:
            raise ValueError("symbol width must be >= 1")
        self.base = base_field
        self.width = width
        self.alphabet = base_field if width == 1 else ExtensionField(base_field, degree=width)

    def to_symbol(self, tup) -> int:
        if len(tup) != self.width:
            raise ValueError(f"tuple must have width {self.width}")
        if self.width == 1:
            sym = int(tup[0])
            if not 0 <= sym < self.alphabet.size:
                raise ValueError("coefficient out of range")
            return sym
        return self.alphabet.from_coords(tup)

    def to_tuple(self, sym: int) -> tuple:
        if self.width == 1:
            if not 0 <= sym < self.alphabet.size:
                raise ValueError("symbol out of range")
            return (int(sym),)
        return self.alphabet.coords(sym)


class OuterCode:
    """An [n, k, n-k+1] Reed-Solomon code over a given alphabet field."""

    def __init__(self, field, n: int, k: int):
        if n < 1:
            raise ValueError("block length must be >= 1")
        if not 0 <= k <= n:
            raise ValueError("dimension must satisfy 0 <= k <= n")
        if n >= field.size:
            raise ValueError(f"block length {n} needs an alphabet larger than {field.size}")
        points = tuple(field.pow(field.gen, i) for i in range(n))
        if len(set(points)) != n:
            raise ValueError(
                "evaluation points collide: the alphabet generator has order "
                f"less than {n}"
            )
        self.field = field
        self.n = n
        self.k = k
        self.points = points
        # x_i^l for l < k (the generator), l <= e and l < e + k (every
        # Welch-Berlekamp system's columns), e = (n - k) // 2 the radius
        # with no erasures, whose split is kept
        e = (n - k) // 2
        self._powers = tuple(tuple(field.pow(x, l) for l in range(e + max(k, 1)))
                             for x in points)
        self._split = split_constant_block(field, [row[:e + k] for row in self._powers])
        self._codebook = None

    @property
    def d_min(self) -> int:
        return self.n - self.k + 1

    def encode(self, message) -> tuple:
        """The codeword of *message*: the Vandermonde generator x_i^l,
        l < k, times the message.  A symbol that is not an element of
        the alphabet is refused (fields.check_word)."""
        if len(message) != self.k:
            raise ValueError(f"message must have length {self.k}")
        try:
            check_word(self.field, message)
        except ValueError:
            raise ValueError(f"message symbols must lie in [0, {self.field.size})") from None
        k = self.k
        return matvec(self.field, [row[:k] for row in self._powers], message)

    def codewords(self) -> list:
        """All (message, codeword) pairs, in codeword order (guarded).

        One span_codebook call over the encodings of the messages with a
        single base-q digit builds the codewords, as base-q coordinate
        stacks, and their product-order message indices; each message is
        read from itertools.product at its index.

        The one enumeration also indexes the code from word to message,
        exactly, since encoding is a bijection.  Any k positions of an
        MDS codeword determine it, so the first k symbols of the
        codewords run through every k-tuple once, and codeword order puts
        the codeword whose first k symbols have product index j at row j.
        """
        if self._codebook is None:
            f, k = self.field, self.k
            q = f.characteristic
            width = _base_digits(f.size, q)
            place = q ** np.arange(width, dtype=np.int64)
            rows = (np.array(self.encode(msg), dtype=np.int64)[:, None] // place % q
                    for msg in single_digit_messages(k, width, q))
            stack, index = span_codebook(rows, k * width, q, (self.n, width))
            words = element_ints(stack, q).tolist()
            messages = list(itertools.product(range(f.size), repeat=k))
            self._codebook = [(messages[m], tuple(w)) for m, w in zip(index.tolist(), words)]
        return self._codebook

    def decode(self, word, erasures=(), method: str = "exhaustive"):
        """Decode to a message tuple, or None on failure.

        Positions listed in *erasures* are ignored when counting
        disagreements.  The exhaustive method always returns the nearest
        codeword's message: with no erasures, a word that is a codeword
        is read from the codebook's word-to-message index (distance 0 is
        the unique minimum); any other word, and any word with erasures,
        where several codewords can agree on the live positions, is
        scanned.  The algebraic method is bounded-distance and fails
        (None) outside 2e + f <= d - 1.  Every symbol, erased or not,
        must be an element of the alphabet (fields.check_word).
        """
        if len(word) != self.n:
            raise ValueError("word has the wrong length")
        check_word(self.field, word)
        erasures = tuple(sorted(set(int(e) for e in erasures)))
        if erasures and (erasures[0] < 0 or erasures[-1] >= self.n):
            raise ValueError("erasure index out of range")
        return self.decoder_for(method)(self, word, erasures)

    @classmethod
    def decoder_for(cls, method: str):
        """The decoder that *method* names; ValueError for an unknown name."""
        if method not in cls._DECODERS:
            raise ValueError(f"unknown decode method {method!r}")
        return cls._DECODERS[method]

    def _decode_exhaustive(self, word, erasures):
        book = self.codewords()
        if not erasures:
            # the candidate row is the product index of word[:k]; the
            # comparison alone decides, whatever the word's symbols
            row = _product_index(word[:self.k], self.field.size)
            if 0 <= row < len(book) and book[row][1] == tuple(word):
                return book[row][0]
        # the codebook is in codeword order, so the first strict minimum
        # is the smallest (distance, codeword) key
        live = [(i, word[i]) for i in range(self.n) if i not in erasures]
        best, best_msg = len(live) + 1, None
        for msg, cw in book:
            dist = 0
            for i, w in live:
                if cw[i] != w:
                    dist += 1
                    if dist == best:
                        break
            if dist < best:
                best, best_msg = dist, msg
                if not dist:
                    break
        return best_msg

    def _decode_welch_berlekamp(self, word, erasures):
        f, k, powers = self.field, self.k, self._powers
        live = [i for i in range(self.n) if i not in erasures]
        if len(live) < k:
            return None
        e = (len(live) - k) // 2
        split = (split_constant_block(f, [powers[i][:e + k] for i in live]) if erasures
                 else self._split)
        r_cols = [[f.mul(word[i], powers[i][l]) for i in live] for l in range(e + 1)]
        solved = solve_split(f, *split, r_cols)
        if solved is None:
            return None
        quot, rem = poly_divmod(f, solved[1], solved[0])
        if rem or len(quot) > k:
            return None
        return tuple(quot) + (0,) * (k - len(quot))

    _DECODERS = {"exhaustive": _decode_exhaustive, "algebraic": _decode_welch_berlekamp}

    def __repr__(self):
        return f"OuterCode(n={self.n}, k={self.k}, alphabet={self.field.size})"
