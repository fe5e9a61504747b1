"""Dense linear algebra over prime fields, plus the distance functions used
throughout: rank distance, subspace distance and their multishot
(per-shot summed) extensions.

Matrices over F_q are numpy int64 arrays with entries reduced mod q; the
JSON form records rows, cols, q and the row-major entry list.

Every single-matrix elimination runs one routine, rref_field, on
Python row lists through a field object's row primitives; on matrices
of a few rows and at most a few dozen columns that beats per-call numpy
overhead.  rref(m, q) is its numpy adapter over the cached
PrimeField(q), so q must be a prime below Q_GUARD; rank counts its
pivots, and reduction, Subspace, received_basis and the channel
sampler's full-rank test read it.  kernel_field and solve_field (the
reference coset split, cosets.coset_leader) run rref_field over
extension fields.
rank_batch ranks a stack (count, r, c) without it: binary shapes with
r*c <= 16 index a uint8 table of every bit pattern's rank, and every
other shape runs one batched elimination over the whole stack, with
rows packed into 64-bit words for q = 2 and c <= 64 and modular row
updates otherwise.

The subspace distance from a received space to lifted words has one
formula, basis_distances, which takes the received space's basis
[H | P] (received_basis, one rref).  lifted_distances is the two in one
call; a multistage decoder row-reduces each shot once and scores the
shifted basis [H | P - H underline(V)] at every later stage.

span_codebook is the one codebook enumerator: every code here is the
F_q-span of the encodings of its single-digit messages, so one numpy
broadcast step per message digit and one lexsort build any codebook's
coordinate stack in codeword order, under the enumeration guard.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import Q_GUARD, guard_enumeration, int64_products_fit, json_int
from .fields import PrimeField


def as_matrix(m, q: int) -> np.ndarray:
    return np.mod(np.asarray(m, dtype=np.int64), q)


def rref(m, q: int):
    """Reduced row echelon form of a matrix mod prime q.

    Returns (R, pivots) where pivots is the ordered list of pivot column
    indices; row i of R carries the pivot at pivots[i].  A numpy adapter
    over rref_field on the cached PrimeField(q), which raises ValueError
    unless q is a prime below Q_GUARD.
    """
    m = as_matrix(m, q)
    R, pivots = rref_field(_prime_field(q), m.tolist())
    return np.array(R, dtype=np.int64).reshape(m.shape), pivots


@functools.lru_cache(maxsize=16)
def _prime_field(q: int) -> PrimeField:
    return PrimeField(int(q))


def rank(m, q: int) -> int:
    """Rank mod prime q: the pivot count of rref_field, with no int64
    result array built."""
    return len(rref_field(_prime_field(q), as_matrix(m, q).tolist())[1])


def rankdef(m, q: int) -> int:
    """Row-rank deficiency: number of rows minus rank."""
    m = as_matrix(m, q)
    return m.shape[0] - rank(m, q)


def _xor_ranks(words) -> np.ndarray:
    """Ranks over F_2 of a stack given as packed rows, shape (count, r).

    Bit j of words[k, i] is entry (i, j) of matrix k, so a row operation
    is one XOR.  Row i, already reduced by rows 0..i-1, pivots on its
    lowest set bit and clears that bit from every later row; the nonzero
    rows left at the end have distinct lowest bits, so they are
    independent.  Works in place on *words*.
    """
    for i in range(words.shape[1] - 1):
        row = words[:, i : i + 1]
        hit = (words[:, i + 1 :] & (row & -row)) != 0
        words[:, i + 1 :] ^= row * hit
    return np.count_nonzero(words, axis=1)


def _modular_ranks(mats, q: int) -> np.ndarray:
    """Ranks of a stack (count, r, c) over F_q, q prime.

    The same row-by-row elimination as _xor_ranks: row i pivots on its
    first nonzero column, value p, and every later row k with entry f
    there becomes p * row_k - f * row_i.  Scaling row k by the nonzero p
    keeps the row space, so no inverse is needed.  A zero row takes
    p = 1 and leaves the later rows as they are.  Works in place on
    *mats*.
    """
    count, r, _ = mats.shape
    every = np.arange(count)
    for i in range(r - 1):
        row = mats[:, i]
        col = np.argmax(row != 0, axis=1)
        pivot = row[every, col]
        pivot[pivot == 0] = 1
        below = mats[:, i + 1 :]
        factor = below[every, :, col]
        mats[:, i + 1 :] = (pivot[:, None, None] * below - factor[:, :, None] * row[:, None, :]) % q
    return np.count_nonzero(mats.any(axis=2), axis=1)


_F2_RANK_TABLES: dict = {}


def _f2_rank_table(r: int, c: int) -> np.ndarray:
    """uint8 ranks of every binary r x c matrix, indexed by its bit pattern."""
    key = (r, c)
    tab = _F2_RANK_TABLES.get(key)
    if tab is None:
        # row i of bit pattern idx is the c-bit word idx >> (i * c); the
        # narrow dtypes keep the fill's transient arrays small, and the
        # column-major words give _xor_ranks contiguous per-row columns
        idx = np.arange(1 << (r * c), dtype=np.int32)
        words = np.empty((idx.size, r), dtype=np.int8 if c <= 8 else np.int16, order="F")
        for i in range(r):
            words[:, i] = (idx >> (i * c)) & ((1 << c) - 1)
        tab = _xor_ranks(words).astype(np.uint8)
        _F2_RANK_TABLES[key] = tab
    return tab


def rank_batch(mats, q: int) -> np.ndarray:
    """Ranks of a stack of matrices, shape (count, r, c) -> int64 (count,).

    Binary shapes with r*c <= 16 index a lookup table of every bit
    pattern's rank; every other shape goes through one batched
    elimination over the whole stack (packed XOR rows for q = 2 and
    c <= 64, modular row updates otherwise).  q must be below Q_GUARD.
    """
    if q >= Q_GUARD:
        raise ValueError(f"rank_batch needs q below {Q_GUARD}, got {q}")
    mats = as_matrix(mats, q)
    if mats.ndim != 3:
        raise ValueError("expected a 3-d stack of matrices")
    count, r, c = mats.shape
    if r == 0 or c == 0:
        return np.zeros(count, dtype=np.int64)
    if q == 2 and r * c <= 16:
        tab = _f2_rank_table(r, c)
        weights = (1 << np.arange(r * c, dtype=np.int64))
        idx = mats.reshape(count, r * c) @ weights
        return tab[idx].astype(np.int64)
    if q == 2 and c <= 64:
        # column 63's weight wraps to the int64 sign bit, which the XORs
        # and the lowest-set-bit trick treat like any other bit
        weights = (np.uint64(1) << np.arange(c, dtype=np.uint64)).view(np.int64)
        return _xor_ranks(mats @ weights)
    return _modular_ranks(mats, q)


class Subspace:
    """Row space of a matrix over F_q, held in canonical (RREF) form.

    Two Subspace objects are equal iff they are literally the same
    subspace of the same ambient space.
    """

    __slots__ = ("q", "ambient", "basis", "_key")

    def __init__(self, matrix, q: int):
        m = as_matrix(matrix, q)
        R, piv = rref(m, q)
        self.q = q
        self.ambient = m.shape[1]
        self.basis = R[: len(piv)]
        self._key = (q, self.ambient, self.basis.shape, self.basis.tobytes())

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other):
        return isinstance(other, Subspace) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, q={self.q})"


def _check_pair(u: Subspace, v: Subspace):
    if u.q != v.q or u.ambient != v.ambient:
        raise ValueError("subspaces live in different ambient spaces")


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """2 dim(U+V) - dim U - dim V."""
    _check_pair(u, v)
    dim_sum = rank(np.vstack([u.basis, v.basis]), u.q)
    return 2 * dim_sum - u.dim - v.dim


def received_basis(Y, n: int, q: int):
    """RREF basis [H | P] of <Y>, split after column n: returns (H, P).

    A decoder row-reduces each received matrix once and scores every
    candidate against this basis (basis_distances).
    """
    R, piv = rref(Y, q)
    basis = R[: len(piv)]
    return basis[:, :n], basis[:, n:]


def basis_distances(h, p, und, q: int) -> np.ndarray:
    """Subspace distances from <[H | P]> to the lifted [I | U] of every U in und.

    [H | P] is a basis of the received space, rank(Y) independent rows,
    and und a stack (count, N, M) of residues mod q.  Subtracting H [I | U]
    from [H | P] leaves [0 | P - H U], so dim([I|U] + <Y>) =
    N + rank(P - H U) and d_S = N + 2 rank(P - H U) - rank(Y).  Any basis
    will do, not only the RREF one: [H | P - H underline(V)], the image of
    <Y> under the column operation that maps [I | underline(V) + U] to
    [I | U], scores lift(V + x) for every x in und.  H U is taken in int64,
    so N (q-1)^2 + q must stay inside it; a ValueError says when not.
    """
    _, n, m = und.shape
    if h.shape[1] != n or p.shape[1] != m:
        raise ValueError("column count mismatch between Y and lifted word")
    if not int64_products_fit(n, q):
        raise ValueError(f"q={q} is too large for {n}-term int64 products")
    return n + 2 * rank_batch(p - h @ und, q) - len(h)


def lifted_distances(Y, und, q: int) -> np.ndarray:
    """Subspace distances from <Y> to the lifted [I | U] of every U in und.

    und is a stack of shape (count, N, M) of residues mod q and Y any
    matrix with N + M columns: one RREF of Y, then basis_distances.
    """
    return basis_distances(*received_basis(Y, und.shape[1], q), und, q)


def subspace_distance_to_lifted(u_mat: np.ndarray, Y, q: int) -> int:
    """Subspace distance between the row space of [I | u_mat] and <Y>."""
    return int(lifted_distances(Y, u_mat[None], q)[0])


def rank_distance(field, u, v) -> int:
    """Rank of the coordinate-matrix difference of two words over F_{q^M}."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    q = field.base.size
    diff = (field.underline(v) - field.underline(u)) % q
    return rank(diff, q)


def extended_rank_distance(field, us, vs) -> int:
    if len(us) != len(vs):
        raise ValueError("shot count mismatch")
    return sum(rank_distance(field, u, v) for u, v in zip(us, vs))


def extended_subspace_distance(us, vs) -> int:
    if len(us) != len(vs):
        raise ValueError("shot count mismatch")
    return sum(subspace_distance(u, v) for u, v in zip(us, vs))


def element_ints(coords, q: int) -> np.ndarray:
    """Element ints sum_t c_t q^t of base-q coordinates held along the last axis."""
    return coords @ (q ** np.arange(coords.shape[-1], dtype=np.int64))


def span_codebook(rows, digits: int, q: int, word_shape: tuple):
    """Every F_q-combination of *digits* basis words, in codeword order (guarded).

    *rows* yields the basis, *digits* words of prod(word_shape) residues
    mod q: word p is the one of the message whose only nonzero base-q
    digit is a 1 of weight q^(digits-1-p).  The words run from the most
    significant digit of the message's itertools.product index down, so
    one broadcast step per word, each appending a less significant
    digit, builds the q^digits words in product order.  The last axis of
    *word_shape* holds one element's base-q coordinates, low first; one
    stable lexsort on the element ints puts the words in codeword order,
    lexicographic in their elements.

    Returns (stack, index): the C-contiguous int64 stack, shape
    (q^digits, *word_shape), and per row the product index of its
    message.  The guard checks the bytes held at once (the unsorted and
    sorted stacks, the index and the sort's work array) before *rows* is
    read or anything allocated.
    """
    count = q ** digits
    width = math.prod(word_shape)
    guard_enumeration(count, word_shape, transient=width + 2)
    stack = np.zeros((1, width), dtype=np.int64)
    steps = np.arange(q, dtype=np.int64)[:, None]
    for row in rows:
        grown = stack[:, None, :] + steps * np.asarray(row, dtype=np.int64).reshape(width)
        np.remainder(grown, q, out=grown)
        stack = grown.reshape(-1, width)
    # one contiguous row of element ints per key, last element first:
    # lexsort copies strided keys
    keys = element_ints(stack.reshape(count, -1, word_shape[-1])[:, ::-1].transpose(1, 0, 2), q)
    index = np.lexsort(keys)
    del keys
    return stack[index].reshape(count, *word_shape), index


def single_digit_messages(k: int, width: int, q: int):
    """The k-element messages with one nonzero base-q digit, a 1, over an
    alphabet of q^width elements, from the most significant digit of the
    product index down: the basis order span_codebook takes."""
    for j in range(k):
        for t in reversed(range(width)):
            yield tuple(q ** t if i == j else 0 for i in range(k))


def mixed_radix_digits(index, radices) -> np.ndarray:
    """Digits of product indices in the mixed radix *radices*, most
    significant first: shape (len(index), len(radices)), int64."""
    weights, w = [], 1
    for r in reversed(radices):
        weights.append(w)
        w *= r
    out = np.asarray(index, dtype=np.int64)[:, None] // np.array(weights[::-1], dtype=np.int64)
    out %= np.array(radices, dtype=np.int64)
    return out


def matrix_to_json(m, q: int) -> dict:
    m = as_matrix(m, q)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "q": q,
        "data": [int(x) for x in m.reshape(-1)],
    }


def matrix_from_json(doc: dict) -> tuple[np.ndarray, int]:
    """(matrix, q) from the JSON form; rows, cols, q and every entry must
    be JSON integers (errors.json_int raises TypeError otherwise)."""
    rows, cols, q = (json_int(doc[key], f"matrix {key}") for key in ("rows", "cols", "q"))
    if q < 2:
        raise ValueError(f"matrix field size q={q} is below 2")
    data = [json_int(x, "matrix entry") for x in doc["data"]]
    if len(data) != rows * cols:
        raise ValueError("matrix data length does not match rows*cols")
    m = np.array(data, dtype=np.int64).reshape(rows, cols) % q
    return m, q


# ---------------------------------------------------------------------------
# Gaussian elimination with elements of an arbitrary field object

def rref_field(field, rows):
    """RREF of a list-of-lists matrix over *field*; returns (rows, pivots).

    The one single-matrix elimination of the package.  Row operations go
    through the field's row primitives (scale_row, sub_scaled_row), so
    the per-element work stays inside the field; a pivot that is already
    1 is neither inverted nor scaled.  The primitives return new rows and
    no row is changed in place, so a row no operation touched comes back
    as the caller's own object.
    """
    R = list(rows)
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    sub_scaled_row = field.sub_scaled_row
    pivots = []
    pr = 0
    for c in range(ncols):
        for pv in range(pr, nrows):
            if R[pv][c]:
                break
        else:
            continue
        top = R[pv]
        R[pv] = R[pr]
        if top[c] != 1:
            top = field.scale_row(field.inv(top[c]), top)
        R[pr] = top
        for i in range(nrows):
            f = R[i][c]
            if f and i != pr:
                R[i] = sub_scaled_row(R[i], f, top)
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return R, pivots


def solve_field(field, rows, rhs):
    """Solve A x = b for a full-column-rank A over *field*.

    Returns the solution tuple, or None when the system is inconsistent.
    Raises ValueError if A does not have full column rank or b does not
    have one entry per row of A.  PartitionChain.coset_leader, the
    reference coset split, is its caller; no decode path calls either.
    """
    if len(rhs) != len(rows):
        raise ValueError("matrix/vector size mismatch")
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    R, piv = rref_field(field, aug)
    sol = [0] * ncols
    for i, p in enumerate(piv):
        if p == ncols:  # pivot in the constant column: inconsistent
            return None
        sol[p] = R[i][ncols]
    if len([p for p in piv if p < ncols]) < ncols:
        raise ValueError("system is underdetermined")
    return tuple(sol)


def kernel_field(field, rows):
    """Basis of the right null space of a list-of-lists matrix over *field*."""
    ncols = len(rows[0]) if rows else 0
    R, piv = rref_field(field, rows)
    free = [c for c in range(ncols) if c not in piv]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, p in enumerate(piv):
            vec[p] = field.neg(R[i][fc])
        basis.append(tuple(vec))
    return basis
