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
t = floor((N-K)/2) rank errors and reports failure (None) beyond that.
decode_message ends at the message polynomial f, the K coefficients a
multistage decoder splits into coset messages; decode_rank_errors
encodes f back into the codeword.  Interpolation asks for V of q-degree
<= t and W of q-degree < K + t with V(r_i) = W(g_i): the linear system
R v = G w, R the received word's t + 1 Frobenius powers r_i^(q^l) and G
the N x (K + t) Moore matrix g_i^(q^l), which depends only on the code.
G is the first K + t columns of the square N x N Moore matrix, which is
invertible (the points are independent), so the constructor keeps its
inverse T (linalg.inverse_field).  T's first K + t rows are the solve
rows B (B G = I), and its other rows are the check rows C (C G = 0: a
check matrix of the Gabidulin code of dimension K + t on the same
points).  A word then costs linalg.solve_split, the step the
Reed-Solomon outer decoder shares: v spans the kernel of the
(N - K - t) x (t + 1) matrix C R and w = B R v.  It is one path for
every t, with no final check: once W = V o f holds exactly, every
error e_i = r_i - c_i is a root of V (V(r_i) = W(g_i) = V(c_i)), and
the roots of a nonzero V of q-degree <= t span at most t dimensions
over F_q, so the codeword returned lies within rank t of the received
word.  At t = 0, V is a nonzero constant and the division is exact
only when the word is a codeword.  encode and every decode entry refuse
a symbol that is not an int in [0, q^M) before any arithmetic
(fields.check_word, the word form of the package's one element rule,
fields.check_ints).
"""

from __future__ import annotations

import numpy as np

from .errors import INT64_MAX, json_int
from .fields import PrimeField, check_word, matvec, poly_trim, prime_field
from .linalg import (
    element_ints, inverse_field, rank, rank_batch, single_digit_messages, solve_split,
    span_codebook,
)


def check_code_field(q: int, m: int) -> None:
    """Refuse F_(q^m) as a Gabidulin code's field before it is built: q
    must pass PrimeField's rule, and q^m - 1 must stay inside int64, where
    underline and every codebook stack hold element ints.  A spec reader
    calls it before the modulus search, which tests every candidate of
    degree m; q^m is compared, never formatted (m may run to thousands)."""
    prime_field(q)
    if m >= 64 or q ** m - 1 > INT64_MAX:
        raise ValueError(f"field size q^M = {q}^{m} leaves int64")


class GabidulinCode:
    def __init__(self, field, length: int, dim: int, points=None):
        if not isinstance(field.base, PrimeField):
            # frobenius raises to powers of the characteristic and rref
            # inverts modulo the base size: both need a prime base
            raise ValueError("Gabidulin codes need an extension of a prime field")
        check_code_field(field.base.size, field.degree)
        m = field.degree
        length, dim = json_int(length, "N"), json_int(dim, "K")
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
        # the N x N Moore matrix g_i^(q^l): its first K columns are the
        # generator, and its inverse splits the interpolation system
        moore = [tuple(field.frobenius(g, l) for l in range(length)) for g in points]
        self.generator = tuple(row[:dim] for row in moore)
        self._inverse = inverse_field(field, moore)
        self._codebook = None
        self._underlines = None
        self._index = None
        self._ints = None

    @property
    def designed_distance(self) -> int:
        return self.length - self.dim + 1

    def encode(self, message) -> tuple:
        """G m; a symbol that is not an element is refused (fields.check_word)."""
        if len(message) != self.dim:
            raise ValueError(f"message must have length {self.dim}")
        check_word(self.field, message)
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

    def _codeword_ints(self) -> np.ndarray:
        """The codebook's element ints, shape (N, |C|) (guarded): column w
        holds codeword w, in codeword order, and bit j of an entry over
        F_2 is its coordinate j.  Built once from the stack; codeword,
        codewords, the multilevel codebook and decoder.Received's F_2
        scores read it."""
        if self._ints is None:
            und = self.codeword_underlines()
            self._ints = np.ascontiguousarray(element_ints(und, self.field.base.size).T)
        return self._ints

    def codeword(self, k: int) -> tuple:
        """The k-th codeword in codeword order (_codeword_ints)."""
        return tuple(self._codeword_ints()[:, k].tolist())

    def codewords(self) -> list:
        """All codewords, in codeword order (guarded); built from
        _codeword_ints on first call."""
        if self._codebook is None:
            self._codebook = list(zip(*self._codeword_ints().tolist()))
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
            check_word(self.field, received)
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

        With R the N x (t + 1) matrix of Frobenius powers r_i^(q^l) and
        G the Moore matrix g_i^(q^l), l < K + t, the interpolation
        system is R v = G w, which linalg.solve_split solves on slices
        of the constructor's inverse: v is the first kernel vector of the
        (N - K - t) x (t + 1) matrix C R (the unit vector e_0 when C has
        no rows, K = N) and w = B R v.  Every kernel vector gives a
        nonzero V, and any of them gives the same answer:

        * If a codeword c = f(g) lies within rank t of r, then
          D = W - V o f has q-degree <= K + t - 1 and D(g_i) =
          V(r_i) - V(c_i) = V(e_i).  So D maps span(g), of dimension N,
          into V(span(e)), of dimension <= t, and D's roots there span
          >= N - t >= K + t dimensions, more than its q-degree allows a
          nonzero D.  So D = 0: W = V o f, and the division finds f.
        * If no codeword lies within rank t, no kernel vector divides
          exactly to a degree below K: W = V o f would put every e_i in
          the roots of V, which span at most t dimensions.
        """
        f = self.field
        n, k = self.length, self.dim
        if len(received) != n:
            raise ValueError("received word has the wrong length")
        check_word(f, received)
        t = (n - k) // 2
        powers = [received] + [[f.frobenius(r, l) for r in received] for l in range(1, t + 1)]
        solved = solve_split(f, self._inverse, k + t, powers)
        if solved is None:
            return None
        msg = _lin_left_divide(f, solved[0], solved[1])
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
    v_poly, rem = poly_trim(v_poly), poly_trim(w_poly)
    if not v_poly:
        return None
    if not rem:
        return []
    dv = len(v_poly) - 1
    df = len(rem) - 1 - dv
    if df < 0:
        return None
    m = field.degree
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
    return poly_trim(out)
