"""Reed-Solomon outer codes and the per-level symbol maps.

Outer codes are evaluation codes: a message (f_0 .. f_{k-1}) encodes to
the values of the polynomial at the points 1, g, g^2, ..., g^(n-1),
where g is the alphabet field's canonical generator element.  They are
MDS with minimum Hamming distance n - k + 1 and decoded either by an
exhaustive nearest-codeword decoder (reference semantics; the codebook,
the F_q-span of the encodings of the single-digit messages built by
linalg.span_codebook, is held in codeword order, so the first minimum
of its scan is the smallest codeword tuple, and a received codeword is
read from the codebook without a scan) or by a Gao-style algebraic
decoder that handles errors and erasures up to 2e + f <= d - 1 and
reports failure beyond that.  Gao's decoder interpolates the live
positions in Lagrange form from per-code data, computed once: each
point's linear factor x - x_i, their product over every point and the
inverse differences 1 / (x_i - x_j).  g0 is the product of the live
factors: that kept product when nothing is erased, else multiplied out
for the call.  A decode divides out each live point's factor from g0 by
synthetic division and scales by the product of its inverse
differences; it inverts no element and keeps nothing between calls.
It ends at one exact division, with no re-encoding and no error count:
partial extended Euclid on (g0, g1) stops at the first remainder r of
degree below (n_live + k) / 2, so its g1 cofactor v, which is never
zero, has degree at most (n_live - k) / 2.  With r = u g0 + v g1, an exact quotient
r = v p with deg p < k gives v (g1 - p) = -u g0; g0 is square-free, so
every live position where the word disagrees with p is a root of v.  The
e errors then satisfy 2e <= n_live - k, that is 2e + f <= d - 1 with
f = n - n_live erasures.  For k = 0 the same loop ends at r = 0 exactly
when the gcd of g0 and g1, the product of x - x_i over the live zero
positions, has degree at least n_live / 2: that bound for the zero word.

A SymbolMap carries level messages between width-w coefficient tuples
over F_{q^M} and symbols of the level alphabet, which for w > 1 is a
freshly constructed degree-w extension of F_{q^M}.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fields import (
    ExtensionField, check_word, poly_divmod, poly_eval, poly_mul, poly_sub, poly_trim,
)
from .linalg import element_ints, single_digit_messages, span_codebook


def _product_index(symbols, size: int) -> int:
    """Index of *symbols* in itertools.product(range(size), repeat=len(symbols))."""
    index = 0
    for s in symbols:
        index = index * size + s
    return index


def _poly_product(field, polys) -> list:
    """The product of *polys* over *field*, [1] for none."""
    out = [1]
    for poly in polys:
        out = poly_mul(field, out, poly)
    return out


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
        # Gao's per-code data: the linear factor x - x_i of every point,
        # their product (g0 with no erasures) and the inverse differences
        # 1 / (x_i - x_j), i != j
        self._factors = tuple([field.neg(x), 1] for x in points)
        self._g0 = tuple(_poly_product(field, self._factors))
        self._inv_diffs = tuple(
            tuple(field.inv(field.sub(x, y)) if x != y else 0 for y in points)
            for x in points
        )
        self._codebook = None
        self._by_message = None  # the codewords in message order, once enumerated

    @property
    def d_min(self) -> int:
        return self.n - self.k + 1

    def encode(self, message) -> tuple:
        """The codeword of *message*: read from the message-order table
        once codewords() has enumerated the code, else evaluated by
        Horner's rule.  It never enumerates the code itself."""
        if len(message) != self.k:
            raise ValueError(f"message must have length {self.k}")
        coeffs = [int(c) for c in message]
        if coeffs and not 0 <= min(coeffs) <= max(coeffs) < self.field.size:
            raise ValueError(f"message symbols must lie in [0, {self.field.size})")
        if self._by_message is not None:
            return self._by_message[_product_index(coeffs, self.field.size)]
        return tuple(poly_eval(self.field, coeffs, p) for p in self.points)

    def codewords(self) -> list:
        """All (message, codeword) pairs, in codeword order (guarded).

        One span_codebook call over the encodings of the messages with a
        single base-q digit builds the codewords, as base-q coordinate
        stacks, and their product-order message indices; each message is
        read from itertools.product at its index.

        The one enumeration also indexes the code both ways, exactly,
        since encoding is a bijection.  Message to word: a list of the
        same codeword tuples in message (product) order, which encode
        reads.  Word to message: the codebook itself.  Any k positions of
        an MDS codeword determine it, so the first k symbols of the
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
            index = index.tolist()
            book = [(messages[m], tuple(w)) for m, w in zip(index, words)]
            by_message = [None] * len(book)
            for m, (_, cw) in zip(index, book):
                by_message[m] = cw
            self._codebook, self._by_message = book, by_message
        return self._codebook

    def codewords_by_message(self) -> list:
        """The codewords in message (product) order (guarded): the list
        encode reads, built by the one enumeration of codewords()."""
        self.codewords()
        return self._by_message

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

    def _decode_gao(self, word, erasures):
        f = self.field
        live = [i for i in range(self.n) if i not in erasures]
        n_live = len(live)
        if n_live < self.k:
            return None
        g0 = _poly_product(f, [self._factors[i] for i in live]) if erasures else self._g0
        # Lagrange interpolation through the live points: the numerator of
        # point i is g0 / (x - x_i), its denominator the product of the
        # differences x_i - x_j over the other live points
        g1 = [0] * n_live
        for i in live:
            if word[i] == 0:
                continue
            x, inv_diffs = self.points[i], self._inv_diffs[i]
            num, acc = [0] * n_live, 0
            for t in range(n_live, 0, -1):
                acc = f.add(g0[t], f.mul(x, acc))
                num[t - 1] = acc
            scale = word[i]
            for j in live:
                if j != i:
                    scale = f.mul(scale, inv_diffs[j])
            g1 = f.sub_scaled_row(g1, f.neg(scale), num)
        g1 = poly_trim(g1)
        # partial extended Euclid until the remainder degree drops below
        # (n_live + k) / 2; v tracks the g1 cofactor.
        stop = (n_live + self.k) / 2
        r0, r1 = g0, g1
        v0, v1 = [], [1]
        while r1 and len(r1) - 1 >= stop:
            quot, rem = poly_divmod(f, r0, r1)
            r0, r1 = r1, rem
            v0, v1 = v1, poly_sub(f, v0, poly_mul(f, quot, v1))
        quot, rem = poly_divmod(f, r1, v1)
        if rem or len(quot) > self.k:
            return None
        return tuple(quot) + (0,) * (self.k - len(quot))

    _DECODERS = {"exhaustive": _decode_exhaustive, "algebraic": _decode_gao}

    def __repr__(self):
        return f"OuterCode(n={self.n}, k={self.k}, alphabet={self.field.size})"
