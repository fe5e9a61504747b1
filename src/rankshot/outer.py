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

Welch-Berlekamp runs one rule for every erasure set, none included:
Forney's erasure locator Gamma(x) = prod over erased s of (x - x_s)
("Generalized minimum distance decoding", IEEE Trans. IT, 1966).  With
f erasures, e = floor((n - f - k) / 2) and c = f + e + k <= n, it asks
on all n points for E of degree <= e and Q of degree < c with
y_i Gamma(x_i) E(x_i) = Q(x_i); Gamma(x_i) = 0 at the erased points, so
their symbols drop out.  That is the Gabidulin decoder's system
R v = G w with a Vandermonde matrix for the Moore matrix: R's columns
are y_i Gamma(x_i) x_i^l, l <= e, and G is the first c columns of the
n x n Vandermonde matrix x_i^l, l < n, which is invertible (distinct
points).  The code keeps that matrix's inverse T (linalg.inverse_field),
whose first c rows B (B G = I) and other rows C (C G = 0) split G for
every c, so linalg.solve_split takes v = E, the first kernel vector of
C R, and w = Q = B R v, with no elimination of G a decode and nothing
kept per erasure pattern.  One exact division Q = Gamma E p with
deg p < k ends the decode, and any kernel vector gives the same answer.
If a codeword p lies within the radius, its live error locator E and
Q = p Gamma E solve the system, so the kernel is not empty; and for any
solution, Q - p Gamma E has degree < c and vanishes at the f erased
points and at the >= n - f - e live points where the word agrees with
p, >= n - e >= c points in all, so it is zero and the division finds p.
Conversely an exact quotient p of degree < k makes every live
disagreement y_i != p(x_i) a root of E (y_i Gamma(x_i) E(x_i) =
p(x_i) Gamma(x_i) E(x_i) with Gamma(x_i) != 0), of which there are at
most e, so 2e + f <= d - 1 holds for p.  So the outputs are exactly the
bounded-distance decoder's, whose answer is unique.

A SymbolMap carries level messages between width-w coefficient tuples
over F_{q^M} and symbols of the level alphabet, which for w > 1 is a
freshly constructed degree-w extension of F_{q^M}.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .errors import json_int
from .fields import ExtensionField, check_ints, check_word, matvec, poly_divmod
from .linalg import element_ints, inverse_field, single_digit_messages, solve_split, span_codebook


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
        width = json_int(width, "symbol width")
        if width < 1:
            raise ValueError("symbol width must be >= 1")
        self.base = base_field
        self.width = width
        self.alphabet = base_field if width == 1 else ExtensionField(base_field, degree=width)

    def to_symbol(self, tup) -> int:
        """The symbol of a width-w coefficient tuple; a coordinate that is
        not an element of the base field is refused (fields.check_word)."""
        if len(tup) != self.width:
            raise ValueError(f"tuple must have width {self.width}")
        check_word(self.base, tup)
        return int(tup[0]) if self.width == 1 else self.alphabet.from_coords(tup)

    def to_tuple(self, sym: int) -> tuple:
        """The width-w coefficient tuple of a symbol; a symbol that is not
        an element of the alphabet is refused (fields.check_ints)."""
        if self.width == 1:
            check_ints((sym,), self.alphabet.size, "symbol")
            return (operator.index(sym),)
        return self.alphabet.coords(sym)


class OuterCode:
    """An [n, k, n-k+1] Reed-Solomon code over a given alphabet field."""

    def __init__(self, field, n: int, k: int):
        n, k = json_int(n, "block length"), json_int(k, "dimension")
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
        # the Vandermonde matrix x_i^l, l < n: its first k columns are the
        # generator, and its inverse splits every Welch-Berlekamp system
        self._powers = tuple(tuple(field.pow(x, l) for l in range(n)) for x in points)
        self.generator = tuple(row[:k] for row in self._powers)
        self._inverse = inverse_field(field, self._powers)
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
        return matvec(self.field, self.generator, message)

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
        must be an element of the alphabet and every erasure index a
        position in [0, n), by the one rule fields.check_ints, checked
        before any arithmetic.
        """
        if len(word) != self.n:
            raise ValueError("word has the wrong length")
        check_word(self.field, word)
        erasures = tuple(erasures)
        if erasures:
            check_ints(erasures, self.n, "erasure index")
            erasures = tuple(sorted(set(map(operator.index, erasures))))
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
        f, k, points = self.field, self.k, self.points
        if len(erasures) > self.n - k:
            return None
        e = (self.n - len(erasures) - k) // 2
        # y_i Gamma(x_i), then Gamma E: one factor x - x_s an erasure
        y_gamma = word
        for s in erasures:
            y_gamma = [f.mul(y, f.sub(x, points[s])) for y, x in zip(y_gamma, points)]
        r_cols = [[f.mul(y, row[l]) for y, row in zip(y_gamma, self._powers)] for l in range(e + 1)]
        solved = solve_split(f, self._inverse, len(erasures) + e + k, r_cols)
        if solved is None:
            return None
        locator = solved[0]
        for s in erasures:
            locator = f.sub_scaled_row([0, *locator], points[s], [*locator, 0])
        quot, rem = poly_divmod(f, solved[1], locator)
        if rem or len(quot) > k:
            return None
        return tuple(quot) + (0,) * (k - len(quot))

    _DECODERS = {"exhaustive": _decode_exhaustive, "algebraic": _decode_welch_berlekamp}

    def __repr__(self):
        return f"OuterCode(n={self.n}, k={self.k}, alphabet={self.field.size})"
