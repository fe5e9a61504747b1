"""Dense linear algebra over prime fields, plus the distance functions used
throughout: rank distance, subspace distance and their multishot
(per-shot summed) extensions.

Matrices over F_q are numpy int64 arrays with entries reduced mod q; the
JSON form records rows, cols, q and the row-major entry list.

Every single-matrix elimination but one runs one routine, rref_field,
on Python row lists through a field object's row primitives; on
matrices of a few rows and at most a few dozen columns that beats
per-call numpy overhead.  rref(m, q) is its numpy adapter over the
cached PrimeField(q), so q must be a prime below Q_GUARD; reduction,
Subspace and received_basis read it.  kernel_field and solve_field (the
reference coset split, cosets.coset_leader) run rref_field over
extension fields.  The one other, rref_bits, row-reduces F_2 rows
packed as ints: packed_basis, each received F_2 shot's one elimination.
rank_batch ranks a stack (count, r, c) without it, and without
division over F_2, where as_matrix reduces by a bit mask: every shape
with q^(r*c) <= 2^16, whatever the prime q, indexes a uint8 table of
every pattern's rank, and every other shape runs one batched
elimination over the whole stack, with rows packed into 64-bit words
for q = 2 and c <= 64 and modular row updates otherwise.  rank, of one
matrix, and the channel sampler's full-rank tests read the same table
through entries_rank; larger shapes count rref_field's pivots.

Both algebraic decoders solve R v = G w with a constant G in the same
two steps: split_constant_block once a code, solve_split once a word.

The subspace distance from a received space to lifted words has one
formula, d_S = N + 2 rank(P - H U) - rank(Y) on the received space's
basis [H | P].  basis_distances takes it on received_basis's arrays,
with H U in int64, ranked by rank_batch.  A simulate trial reduces each
received shot once (decoder.Received.bases, kept on the trial's one
received value) and scores that basis against the sent shot for
ds_observed and, once, against R_0 for the oracle and the exhaustive
multistage decoder, which reads every later stage's scores off that
vector.  Over F_2 that one basis is packed_basis's rows, and every
reader takes it as it is: a word's rows are M-bit element ints, so row
i of P - H U is p_i XOR (XOR_k H[i, k] u_k), with no entry-by-entry
product.  _packed_distances scores R_0, whose element ints the Gabidulin
code keeps, and for r M <= 16 shifts the r rows into one rank-table
index a word; packed_distance scores the one sent word for ds_observed;
reduction.received_word reads the algebraic decoder's rank word off it.

span_codebook is the one codebook enumerator: a Gabidulin or outer code
is the F_q-span of the encodings of its single-digit messages, so one
numpy broadcast step per message digit and one lexsort build its
coordinate stack in codeword order, under the enumeration guard; a
multilevel codebook is a table of rows of R_0's stack instead.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import INT64_MAX, guard_enumeration, int64_products_fit, json_int
from .fields import PrimeField, matvec


def as_matrix(m, q: int) -> np.ndarray:
    """int64 residues mod q of an integer array.  Over F_2 a bit mask,
    which is mod 2 for every int64, negatives included (two's
    complement), at a fraction of the cost of the division."""
    m = np.asarray(m, dtype=np.int64)
    return m & 1 if q == 2 else np.mod(m, q)


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
    """Rank mod prime q (entries_rank); q is checked first, as by rref."""
    q = _prime_field(q).q
    m = as_matrix(m, q)
    r, c = m.shape
    return entries_rank(m.ravel().tolist(), q, r, c)


def entries_rank(entries: list, q: int, r: int, c: int) -> int:
    """Rank mod prime q of the r x c matrix of row-major *entries*, Python
    ints in [0, q): rank_batch's table (_rank_table) at their element int
    when q^(r*c) <= TABLE_PATTERNS, else rref_field's pivot count."""
    field = _prime_field(q)
    q = field.q  # a Python int, so q ** (r * c) cannot wrap
    if 0 < r * c <= 16 and q ** (r * c) <= TABLE_PATTERNS:  # q >= 2: 16 digits at most
        idx = 0
        for x in reversed(entries):  # entry t is base-q digit t
            idx = idx * q + x
        return _rank_table(q, r, c).item(idx)
    return len(rref_field(field, [entries[i * c:(i + 1) * c] for i in range(r)])[1])


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


TABLE_PATTERNS = 1 << 16  # the most patterns one rank table holds
FILL_CHUNK = 1 << 12      # patterns a table fill ranks at once


@functools.lru_cache(maxsize=64)
def _rank_table(q: int, r: int, c: int) -> np.ndarray:
    """uint8 ranks of every r x c matrix over F_q, indexed by its element
    int: entry t of the row-major entries is base-q digit t.  Each table
    holds at most TABLE_PATTERNS bytes, and the cache at most 64 tables;
    each is filled once, by rank_batch's own elimination of every
    pattern, FILL_CHUNK patterns at a time, so that the fill's transient
    arrays stay under 1 MiB whatever the table's size."""
    table = np.empty(q ** (r * c), dtype=np.uint8)
    for start in range(0, table.size, FILL_CHUNK):
        idx = np.arange(start, min(start + FILL_CHUNK, table.size), dtype=np.int32)
        if q == 2:
            # row i of bit pattern idx is the c-bit word idx >> (i * c); the
            # narrow dtypes keep the transient arrays small, and the
            # column-major words give _xor_ranks contiguous per-row columns
            words = np.empty((idx.size, r), dtype=np.int8 if c <= 8 else np.int16, order="F")
            for i in range(r):
                words[:, i] = (idx >> (i * c)) & ((1 << c) - 1)
            ranks = _xor_ranks(words)
        else:
            # the narrowest dtype holding 2 (q-1)^2, the elimination's largest term
            digits = idx[:, None] // q ** np.arange(r * c, dtype=np.int32) % q
            mats = digits.astype(np.min_scalar_type(-2 * (q - 1) ** 2)).reshape(-1, r, c)
            ranks = _modular_ranks(mats, q)
        table[start:start + idx.size] = ranks
    return table


def rank_batch(mats, q: int) -> np.ndarray:
    """Ranks of a stack of matrices, shape (count, r, c) -> int64 (count,).

    One rule for every prime q: a shape with q^(r*c) <= TABLE_PATTERNS
    indexes a lookup table of every pattern's rank (_rank_table); every
    other shape goes through one batched elimination over the whole
    stack (packed XOR rows for q = 2 and c <= 64, modular row updates
    otherwise).  Entries may be any int64s: as_matrix reduces them, by a
    bit mask over F_2.  q must be a prime below Q_GUARD, the rule of
    rank, checked before any table is built.
    """
    q = _prime_field(q).q  # a Python int, so q ** (r * c) cannot wrap
    mats = as_matrix(mats, q)
    if mats.ndim != 3:
        raise ValueError("expected a 3-d stack of matrices")
    count, r, c = mats.shape
    if r == 0 or c == 0:
        return np.zeros(count, dtype=np.int64)
    if r * c <= 16 and q ** (r * c) <= TABLE_PATTERNS:  # q >= 2: 16 digits at most
        idx = element_ints(mats.reshape(count, r * c), q)
        return _rank_table(q, r, c)[idx].astype(np.int64)
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
    candidate against its basis: over an odd prime field this one, as
    arrays (basis_distances); over F_2 packed_basis, its rows packed.
    """
    R, piv = rref(Y, q)
    basis = R[: len(piv)]
    return basis[:, :n], basis[:, n:]


def packed_basis(Y) -> list:
    """received_basis(Y, n, 2)'s rows, packed: one rref_bits elimination of
    Y's rows as element ints, so bit c of a row is its entry in column c.
    For every header width n the header H sits in a row's low n bits and
    the row shifted right by n is its payload's element int."""
    return rref_bits(element_ints(as_matrix(Y, 2), 2).tolist())


def basis_distances(h, p, und, q: int) -> np.ndarray:
    """Subspace distances from <[H | P]> to the lifted [I | U] of every U in und.

    [H | P] is a basis of the received space, rank(Y) independent rows;
    h, p and und, a stack (count, N, M), hold residues mod q.
    Subtracting H [I | U] from [H | P] leaves [0 | P - H U], so
    dim([I|U] + <Y>) = N + rank(P - H U) and
    d_S = N + 2 rank(P - H U) - rank(Y); any basis of <Y> will do, not
    only the RREF one.  H U is taken in int64 and ranked with rank_batch,
    so N (q-1)^2 + q must stay inside int64; a ValueError says when not.

    One call scores a whole codebook: decoder.Received.scores scores each
    shot once against R_0, and every word V + x the exhaustive multistage
    decoder considers later, x in a level subcode, is a row of R_0.  Over
    F_2 the decoders read the same formula off the packed basis instead
    (_packed_distances against R_0, packed_distance against one word).
    """
    _, n, m = und.shape
    if h.shape[1] != n or p.shape[1] != m:
        raise ValueError("column count mismatch between Y and lifted word")
    if not int64_products_fit(n, q):
        raise ValueError(f"q={q} is too large for {n}-term int64 products")
    return n + 2 * rank_batch(p - h @ und, q) - len(h)


def _packed_distances(rows, words, m: int) -> np.ndarray:
    """basis_distances over F_2 from a packed basis (packed_basis) to
    every word U given by the element ints of its rows: words has shape
    (N, count), and bit j of words[k, w] is entry (k, j) of word w, which
    has M = m < 64 columns.

    Row i of P - H U packs to p_i XOR (XOR_k H[i, k] words[k]), p_i the
    row's high bits, H[i, k] its bit k: a row operation over F_2 is one
    XOR.  When r M <= 16 the matrix's index in _rank_table(2, r, M) is
    its r packed rows, row i shifted up by i M bits.  The shifted copies
    sit in disjoint bit ranges, so the index is c XOR (XOR_k words[k] m_k)
    with c = sum_i p_i 2^(iM) and m_k = sum_i H[i, k] 2^(iM): one product
    and one XOR a header column.  Larger shapes rank the (count, r)
    packed rows with _xor_ranks, rank_batch's route for them.  Either way
    the ranks are rank_batch's, so the distances are basis_distances'.
    """
    n, count = words.shape
    r = len(rows)
    if r * m <= 16:  # r = 0 too: the one-entry table of the empty matrix
        c, mks = 0, [0] * n
        for x in reversed(rows):
            c = c << m | x >> n
            mks = [mk << m | x >> k & 1 for k, mk in enumerate(mks)]
        index = np.full(count, c, dtype=np.int64) if not any(mks) else c
        for w, mk in zip(words, mks):
            if mk:
                index = w * mk ^ index
        # the int64 scalar makes the uint8 ranks' product int64
        return _rank_table(2, r, m)[index] * np.int64(2) + (n - r)
    out = np.empty((count, r), dtype=np.int64, order="F")  # contiguous columns
    for i, x in enumerate(rows):
        row = out[:, i]
        row[:] = x >> n
        for k, w in enumerate(words):
            if x >> k & 1:
                row ^= w
    return 2 * _xor_ranks(out) + (n - r)


def packed_distance(rows, word) -> int:
    """d_S(<Y>, lift(word)) over F_2 from Y's packed basis (packed_basis)
    and the word's N element ints: basis_distances' formula on one word.
    Row i of P - H U is p_i XOR the word's entries under the row's header
    bits, and its rank is the count of rows left nonzero once each is
    cleared of the lowest set bits of the rows kept before it.
    """
    n = len(word)
    kept = []
    for x in rows:
        d = x >> n
        for k, u in enumerate(word):
            if x >> k & 1:
                d ^= u
        for b in kept:
            if d & b & -b:
                d ^= b
        if d:
            kept.append(d)
    return n + 2 * len(kept) - len(rows)


def subspace_distance_to_lifted(u_mat: np.ndarray, Y, q: int) -> int:
    """Subspace distance between the row space of [I | u_mat] and <Y>."""
    return int(basis_distances(*received_basis(Y, u_mat.shape[0], q), u_mat[None], q)[0])


def rank_distance(field, u, v) -> int:
    """Rank of the coordinate-matrix difference of two words over F_{q^M}."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    q = field.base.size
    return rank(field.underline(v) - field.underline(u), q)


def extended_rank_distance(field, us, vs) -> int:
    if len(us) != len(vs):
        raise ValueError("shot count mismatch")
    return sum(rank_distance(field, u, v) for u, v in zip(us, vs))


def extended_subspace_distance(us, vs) -> int:
    if len(us) != len(vs):
        raise ValueError("shot count mismatch")
    return sum(subspace_distance(u, v) for u, v in zip(us, vs))


def element_ints(coords, q: int) -> np.ndarray:
    """Element ints sum_t c_t q^t of base-q coordinates held along the last
    axis: int64 while q^width - 1 fits there, exact Python ints past that."""
    width = coords.shape[-1]
    exact = q ** width - 1 > INT64_MAX
    return coords @ (q ** np.arange(width, dtype=object if exact else np.int64))


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
    be JSON integers (errors.json_int raises TypeError otherwise), the
    shape nonnegative and every entry a residue in [0, q)."""
    rows, cols, q = (json_int(doc[key], f"matrix {key}") for key in ("rows", "cols", "q"))
    if q < 2:
        raise ValueError(f"matrix field size q={q} is below 2")
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix shape {rows} x {cols} is negative")
    data = [json_int(x, "matrix entry") for x in doc["data"]]
    if len(data) != rows * cols:
        raise ValueError("matrix data length does not match rows*cols")
    if not all(0 <= x < q for x in data):
        raise ValueError(f"matrix entries must lie in [0, {q})")
    return np.array(data, dtype=np.int64).reshape(rows, cols), q


# ---------------------------------------------------------------------------
# Gaussian elimination with elements of an arbitrary field object

def rref_field(field, rows):
    """RREF of a list-of-lists matrix over *field*; returns (rows, pivots).

    The one single-matrix elimination over any field.  Row operations go
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


def rref_bits(rows):
    """rref(m, 2)'s nonzero rows, each row a nonnegative int whose bit c
    is entry c, so a row operation is one XOR and a pivot a lowest set
    bit.  Each row is cleared of the pivots found so far, and a new
    pivot is cleared from the rows before it; returns them in pivot order.
    """
    R = []
    for x in rows:
        for b in R:
            if x & b & -b:
                x ^= b
        if x:
            low = x & -x
            R = [b ^ x if b & low else b for b in R]
            R.append(x)
    return sorted(R, key=lambda b: b & -b)


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


# ---------------------------------------------------------------------------
# interpolation systems R v = G w with a constant G: a Moore matrix for
# the Gabidulin decoder, a Vandermonde matrix for the Reed-Solomon one

def split_constant_block(field, g_rows):
    """(B, C) for an n x c matrix G of full column rank over *field*.

    [G | I] row-reduces to [[I; 0] | T], T invertible with T G = [I; 0]:
    T's upper c rows are the solve rows B (B G = I), its lower n - c rows
    the check rows C (C G = 0).  Both come back as tuples of row tuples.
    """
    n, c = len(g_rows), len(g_rows[0]) if g_rows else 0
    reduced, _ = rref_field(field, [
        list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g_rows)])
    return (tuple(tuple(row[c:]) for row in reduced[:c]),
            tuple(tuple(row[c:]) for row in reduced[c:]))


def solve_split(field, solve_rows, check_rows, r_cols):
    """(v, w) with R v = G w and v != 0, or None when only v = 0 solves it.

    G's split is (solve_rows, check_rows) from split_constant_block, and
    R is given by its columns.  R v = G w iff C R v = 0 and w = B R v,
    since T = [B; C] is invertible: v is the first kernel vector of C R
    (the unit vector e_0 when C has no rows) and w = B R v.
    """
    if check_rows:
        kern = kernel_field(field, [matvec(field, r_cols, c) for c in check_rows])
        if not kern:
            return None
        v = kern[0]
    else:
        v = (1,) + (0,) * (len(r_cols) - 1)
    return v, matvec(field, solve_rows, matvec(field, list(zip(*r_cols)), v))
