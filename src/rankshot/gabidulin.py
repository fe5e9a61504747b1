"""Gabidulin rank-metric codes.

The generator matrix has entry (i, j) = g_i^(q^j) for evaluation points
g_0..g_{N-1} that are linearly independent over the base field; the code
is the column space, so a message m in F_{q^M}^K encodes to G m, which is
exactly the evaluation of the linearized polynomial sum(m_j x^(q^j)) at
the points.  These codes are maximum rank distance: d_R = N - K + 1.

Two decode paths are provided.  The exhaustive path is the reference
semantics: scan the whole (guarded) codebook and return the codeword at
the least rank distance.  The codebook (codebook_arrays) is held in
codeword order, so the first minimum is the smallest codeword: ties
break toward the smaller entry-tuple serialization.  Every exhaustive
decoder and the multilevel codebook read this one stack.
The algebraic path is an interpolation decoder for rank errors only
(Loidreau's Welch-Berlekamp analogue): it corrects up to
floor((N-K)/2) rank errors and reports failure (None) beyond that.
decode_message ends at the message polynomial f, the K coefficients a
multistage decoder splits into coset messages; decode_rank_errors
encodes f back into the codeword.  The right half of every
interpolation row, -g_i^(q^l), depends only on the code and is stored
once per code; the received word contributes only its t + 1 Frobenius
powers.  It is one path for every t, with no final check: once
W = V o f holds exactly, every error e_i = r_i - c_i is a root of V
(V(r_i) = W(g_i) = V(c_i)), and the roots of a nonzero V of q-degree
<= t span at most t dimensions over F_q, so the codeword returned lies
within rank t of the received word.  At t = 0, V is a nonzero constant
and the kernel is empty unless the word is a codeword.
"""

from __future__ import annotations

import numpy as np

from .errors import INT64_MAX, json_int
from .fields import PrimeField, matvec
from .linalg import (
    element_ints, kernel_field, rank, rank_batch, single_digit_messages, span_codebook,
)


class GabidulinCode:
    def __init__(self, field, length: int, dim: int, points=None):
        if not isinstance(field.base, PrimeField):
            # frobenius raises to powers of the characteristic and rref
            # inverts modulo the base size: both need a prime base
            raise ValueError("Gabidulin codes need an extension of a prime field")
        if field.size - 1 > INT64_MAX:
            # underline and every codebook stack hold element ints in int64
            raise ValueError(f"field size q^M = {field.size} leaves int64")
        m = field.degree
        if not 1 <= length <= m:
            raise ValueError(f"length must satisfy 1 <= N <= M, got N={length}, M={m}")
        if not 0 <= dim <= length:
            raise ValueError(f"dimension must satisfy 0 <= K <= N, got K={dim}")
        if points is None:
            points = tuple(field.pow(field.gen, i) for i in range(length))
        else:
            points = tuple(json_int(p, "evaluation point") for p in points)
            if len(points) != length:
                raise ValueError("need exactly N evaluation points")
        q = field.base.size
        if rank(field.underline(points), q) != length:
            raise ValueError("evaluation points are linearly dependent over the base field")
        self.field = field
        self.length = length
        self.dim = dim
        self.points = points
        self.generator = tuple(
            tuple(field.frobenius(g, j) for j in range(dim)) for g in points
        )
        # -g_i^(q^l) for l < N: the constant half of every interpolation row
        self._neg_powers = tuple(
            tuple(field.neg(field.frobenius(g, l)) for l in range(length)) for g in points
        )
        self._codebook = None
        self._underlines = None
        self._index = None

    @property
    def designed_distance(self) -> int:
        return self.length - self.dim + 1

    def encode(self, message) -> tuple:
        if len(message) != self.dim:
            raise ValueError(f"message must have length {self.dim}")
        return matvec(self.field, self.generator, message)

    def codebook_arrays(self) -> tuple:
        """(stack, index) of the codebook in codeword order (guarded).

        stack holds the codeword coordinate matrices, shape (|C|, N, M),
        and index[r] is the product-order index of row r's message.
        Both come from one span_codebook call over the K*M encodings of
        the messages with a single base-q digit, never one encode per
        codeword.
        """
        if self._underlines is None:
            f = self.field
            q = f.base.size
            rows = (f.underline(self.encode(msg))
                    for msg in single_digit_messages(self.dim, f.degree, q))
            self._underlines, self._index = span_codebook(
                rows, self.dim * f.degree, q, (self.length, f.degree))
        return self._underlines, self._index

    def codeword_underlines(self) -> np.ndarray:
        """Stack of codeword coordinate matrices, shape (|C|, N, M) (guarded)."""
        return self.codebook_arrays()[0]

    def codeword(self, k: int) -> tuple:
        """The k-th codeword in codeword order, read from the stack."""
        return tuple(element_ints(self.codeword_underlines()[k], self.field.base.size).tolist())

    def codewords(self) -> list:
        """All codewords, in codeword order (guarded); built from the stack
        on first call."""
        if self._codebook is None:
            und = self.codeword_underlines()
            self._codebook = [tuple(w) for w in element_ints(und, self.field.base.size).tolist()]
        return self._codebook

    def decode_bounded(self, received, method: str = "exhaustive"):
        """Decode a word.

        method="exhaustive" is the reference argmin of the rank distance;
        it always returns a codeword.  method="algebraic" is the fast
        rank-error decoder; it returns None outside its radius.
        """
        if len(received) != self.length:
            raise ValueError("received word has the wrong length")
        if method == "exhaustive":
            q = self.field.base.size
            ru = self.field.underline(received)
            dists = rank_batch(self.codeword_underlines() - ru[None], q)
            return self.codeword(int(np.argmin(dists)))
        if method == "algebraic":
            return self.decode_rank_errors(received)
        raise ValueError(f"unknown decode method {method!r}")

    def decode_message(self, received):
        """Interpolation decoder for rank errors, ending in the message.

        Finds linearized polynomials V (q-degree <= t) and W (q-degree
        <= K + t - 1) with V(r_i) = W(g_i) for all points, then recovers
        the message polynomial f as the exact left quotient W = V o f.
        Returns f's K coefficients, zero-padded (the message m with
        encode(m) the decoded codeword), or None when no codeword lies
        within t = floor((N - K) / 2) rank errors.
        """
        f = self.field
        n, k = self.length, self.dim
        if len(received) != n:
            raise ValueError("received word has the wrong length")
        t = (n - k) // 2
        rows = [[f.frobenius(r, l) for l in range(t + 1)] + list(neg[: k + t])
                for r, neg in zip(received, self._neg_powers)]
        kern = kernel_field(f, rows)
        if not kern:
            return None
        vec = kern[0]
        msg = _lin_left_divide(f, list(vec[: t + 1]), list(vec[t + 1:]))
        if msg is None or len(msg) > k:
            return None
        return tuple(msg) + (0,) * (k - len(msg))

    def decode_rank_errors(self, received):
        """The codeword of decode_message's answer, or None with it."""
        msg = self.decode_message(received)
        return None if msg is None else self.encode(msg)

    def __repr__(self):
        return f"GabidulinCode(N={self.length}, K={self.dim}, q^M={self.field.size})"


def _lin_left_divide(field, v_poly, w_poly):
    """Solve V o f = W in the linearized-composition sense.

    Composition means (V o f)_k = sum over l+s=k of V_l * f_s^(q^l).
    Returns the coefficient list of f, or None when the division is not
    exact (which signals a decoding failure upstream).
    """
    while v_poly and v_poly[-1] == 0:
        v_poly.pop()
    while w_poly and w_poly[-1] == 0:
        w_poly.pop()
    if not v_poly:
        return None
    if not w_poly:
        return []
    dv = len(v_poly) - 1
    df = len(w_poly) - 1 - dv
    if df < 0:
        return None
    m = field.degree
    rem = list(w_poly)
    out = [0] * (df + 1)
    lead_inv = field.inv(v_poly[-1])
    for s in range(df, -1, -1):
        top = rem[dv + s]
        if top == 0:
            continue
        fs = field.frobenius(field.mul(top, lead_inv), (m - dv) % m)
        out[s] = fs
        for l, vl in enumerate(v_poly):
            if vl:
                rem[l + s] = field.sub(rem[l + s], field.mul(vl, field.frobenius(fs, l)))
    if any(rem):
        return None
    while out and out[-1] == 0:
        out.pop()
    return out
