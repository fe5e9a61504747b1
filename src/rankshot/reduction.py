"""Reduction of a received channel matrix to an (r, L, E) triple.

A received Y with N + M columns is row-reduced and split into three
pieces: a corrupted rank word r (payload rows under header pivots), an
erasure matrix L built from the header columns that lost their pivot,
and a deviation matrix E holding rows whose pivot falls inside the
payload block.  reconstruct() inverts the split: the row space of

    [ (I + L S_erased^T) | underline(r) ]
    [         0          |      E       ]

equals the row space of the original Y.  The algebraic inner path of
decoder.multistage_decode decodes the rank word r; the exhaustive
decoders score the received matrix itself (linalg.lifted_distances).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, rref


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


def reduce_received(field, Y) -> ReductionTriple:
    """Split a received matrix into (r, L, E) plus the erased index set."""
    q = field.base.size
    m = field.degree
    Y = as_matrix(Y, q)
    n = Y.shape[1] - m
    if n <= 0:
        raise ValueError("received matrix has too few columns")
    R, piv = rref(Y, q)
    head = np.zeros((n, n), dtype=np.int64)
    payload = np.zeros((n, m), dtype=np.int64)
    dev_rows = []
    header_pivots = set()
    for k, p in enumerate(piv):
        if p < n:
            head[p] = R[k, :n]
            payload[p] = R[k, n:]
            header_pivots.add(p)
        else:
            dev_rows.append(R[k, n:])
    erased = tuple(i for i in range(n) if i not in header_pivots)
    eye = np.eye(n, dtype=np.int64)
    L = (head - eye)[:, list(erased)] % q if erased else np.zeros((n, 0), dtype=np.int64)
    E = (
        np.array(dev_rows, dtype=np.int64).reshape(len(dev_rows), m)
        if dev_rows
        else np.zeros((0, m), dtype=np.int64)
    )
    return ReductionTriple(field=field, r=field.overline(payload), L=L, E=E, erased=erased)


def reconstruct(triple: ReductionTriple) -> np.ndarray:
    """Rebuild a matrix whose row space equals that of the reduced Y."""
    field = triple.field
    q = field.base.size
    n = triple.L.shape[0]
    head = np.eye(n, dtype=np.int64)
    if triple.erased:
        idx = list(triple.erased)
        head[:, idx] = (head[:, idx] + triple.L) % q
    top = np.hstack([head, field.underline(triple.r)])
    delta = triple.delta
    if delta:
        bottom = np.hstack([np.zeros((delta, n), dtype=np.int64), triple.E])
        return np.vstack([top, bottom])
    return top
