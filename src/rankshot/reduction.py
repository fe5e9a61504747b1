"""Reduction of a received channel matrix to an (r, L, E) triple.

A received Y with N + M columns is row-reduced and split into three
pieces: a corrupted rank word r (payload rows under header pivots), an
erasure matrix L built from the header columns that lost their pivot,
and a deviation matrix E holding rows whose pivot falls inside the
payload block.  reconstruct() inverts the split: the row space of

    [ (I + L S_erased^T) | underline(r) ]
    [         0          |      E       ]

equals the row space of the original Y.  The split starts from the RREF
basis [H | P] of linalg.received_basis, and rank_word reads r off it.
The algebraic inner path of decoder.multistage_decode reads r through
received_word off each shot's one basis on decoder.Received.bases: over
F_2 the packed rows of linalg.packed_basis, the elimination every
reader of the shot shares, and otherwise (H, P), read by rank_word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, element_ints, received_basis


@dataclass(frozen=True, eq=False)
class ReductionTriple:
    field: object
    r: tuple            # length-N word over F_{q^M}
    L: np.ndarray       # N x mu
    E: np.ndarray       # delta x M
    erased: tuple       # strictly increasing header positions lacking a pivot

    @property
    def mu(self) -> int:
        return len(self.erased)

    @property
    def delta(self) -> int:
        return self.E.shape[0]


def rank_word(h, p, q: int):
    """Header pivots and rank word of an RREF basis [H | P] (linalg.received_basis).

    The basis rows with a pivot among the N header columns come first.
    Row k's pivot is its first nonzero header entry (a 1), and the rank
    word r holds row k's payload, as an element int, at that position;
    positions without a header pivot hold 0.  Returns (pivots, r), the
    pivots in increasing order.  This is the one copy of the rule;
    a test pins received_word's packed F_2 reader equal to it.
    """
    word = [0] * h.shape[1]
    pivots = []
    for head, value in zip(h.tolist(), element_ints(p, q).tolist()):
        if not any(head):
            break
        k = head.index(1)
        pivots.append(k)
        word[k] = value
    return pivots, tuple(word)


def received_word(basis, n: int, q: int):
    """rank_word on one basis as decoder.Received.bases holds it.  Over
    F_2 that is linalg.packed_basis's rows in pivot order, and a row's
    pivot is its lowest set bit: a header pivot while it lies in the low
    n bits, and the row shifted right by n is its payload's element int.
    Otherwise it is (H, P), read by rank_word.
    """
    if q != 2:
        return rank_word(*basis, q)
    word = [0] * n
    pivots = []
    for x in basis:
        k = (x & -x).bit_length() - 1
        if k >= n:
            break
        pivots.append(k)
        word[k] = x >> n
    return pivots, tuple(word)


def reduce_received(field, Y) -> ReductionTriple:
    """Split a received matrix into (r, L, E) plus the erased index set."""
    q = field.base.size
    Y = as_matrix(Y, q)
    n = Y.shape[1] - field.degree
    if n <= 0:
        raise ValueError("received matrix has too few columns")
    h, p = received_basis(Y, n, q)
    pivots, r = rank_word(h, p, q)
    head = np.zeros((n, n), dtype=np.int64)
    head[pivots] = h[: len(pivots)]
    erased = tuple(i for i in range(n) if i not in pivots)
    eye = np.eye(n, dtype=np.int64)
    L = as_matrix((head - eye)[:, list(erased)], q) if erased else np.zeros((n, 0), dtype=np.int64)
    return ReductionTriple(field=field, r=r, L=L, E=p[len(pivots):], erased=erased)


def reconstruct(triple: ReductionTriple) -> np.ndarray:
    """Rebuild a matrix whose row space equals that of the reduced Y."""
    field = triple.field
    q = field.base.size
    n = triple.L.shape[0]
    head = np.eye(n, dtype=np.int64)
    if triple.erased:
        idx = list(triple.erased)
        head[:, idx] = as_matrix(head[:, idx] + triple.L, q)
    top = np.hstack([head, field.underline(triple.r)])
    delta = triple.delta
    if delta:
        bottom = np.hstack([np.zeros((delta, n), dtype=np.int64), triple.E])
        return np.vstack([top, bottom])
    return top
