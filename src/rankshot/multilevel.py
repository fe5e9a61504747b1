"""Multilevel (generalized concatenated) construction of multishot codes.

Level i pairs the coset code [R_i / R_{i+1}] of a Gabidulin partition
chain with an outer Reed-Solomon code over an alphabet of matching size.
Encoding runs every outer code, maps each outer symbol to a coefficient
tuple, forms the per-shot coset contribution with the corresponding
generator columns, and sums the contributions: the codeword is an
n-tuple of rank words, one per channel use.  Each shot is a word of R_0
whose message holds level i's coset message at positions K_{i+1} ..
K_i - 1, so the codebook is an (|C|, n) table of R_0 rows in codeword
order (codebook_arrays); its coordinate stack and its Python
(messages, codeword) list are built only when asked for.

Size and distance bookkeeping:

    log_q |C|          = sum_i M * delta_k_i * k_i
    design distance    = min_i d_R(R_i) * d_H(outer_i)
    rate               = log_q |C| / (n * N * (N + M))     (lifted)

special_situation() builds the single-symbol-per-level family (all
delta_k = 1, outer dimensions driven by a target design distance d),
whose size has the closed form M*K*(n+1) - M * sum_i ceil(d / (N-K+i+1)),
and maximize_bound() picks the inner dimension K that maximizes that
closed form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .cosets import PartitionChain
from .errors import INT64_MAX, guard_enumeration, json_int
from .fields import ExtensionField, PrimeField, field_from_json, field_to_json
from .gabidulin import GabidulinCode
from .outer import OuterCode


class MultilevelCodeSpec:
    def __init__(self, chain: PartitionChain, n: int, outer_ks):
        outer_ks = tuple(int(k) for k in outer_ks)
        if len(outer_ks) != chain.m:
            raise ValueError(
                f"need one outer dimension per level: {chain.m} levels, got {len(outer_ks)}"
            )
        self.chain = chain
        self.n = int(n)
        self.maps = chain.maps
        self.outers = tuple(
            OuterCode(self.maps[i].alphabet, self.n, outer_ks[i]) for i in range(chain.m)
        )
        self._codebook = None
        self._rows = None
        self._index = None

    @property
    def field(self):
        return self.chain.field

    @property
    def code(self) -> GabidulinCode:
        return self.chain.code

    @property
    def m(self) -> int:
        return self.chain.m

    @property
    def shot_length(self) -> int:
        return self.code.length

    @property
    def lifted_length(self) -> int:
        return self.code.length + self.field.degree

    # -- encoding ----------------------------------------------------------

    def random_messages(self, rng: np.random.Generator) -> list:
        """One uniform outer message per level.

        A symbol of an alphabet of at most 2^63 elements is one
        rng.integers draw; a larger alphabet leaves int64, so its symbol
        is read off delta_k coordinates drawn over F_{q^M}, one each.
        """
        Q = self.field.size
        out = []
        for outer, smap in zip(self.outers, self.maps):
            wide = outer.field.size - 1 > INT64_MAX
            out.append(tuple(
                smap.to_symbol([int(rng.integers(0, Q)) for _ in range(smap.width)]) if wide
                else int(rng.integers(0, outer.field.size))
                for _ in range(outer.k)
            ))
        return out

    def level_contribution(self, i: int, message) -> tuple:
        """The n per-shot words that level i contributes for its outer message."""
        smap = self.maps[i]
        return tuple(
            self.chain.coset_entry(i, smap.to_tuple(s))[0] for s in self.outers[i].encode(message)
        )

    def level_contributions(self, messages) -> list:
        """Per level, the n per-shot words contributed by that level."""
        if len(messages) != self.m:
            raise ValueError(f"need {self.m} level messages")
        return [self.level_contribution(i, msg) for i, msg in enumerate(messages)]

    def encode(self, messages) -> tuple:
        """Encode per-level outer messages into an n-tuple of rank words."""
        shots = [(0,) * self.shot_length for _ in range(self.n)]
        for contrib in self.level_contributions(messages):
            shots = [self.field.vec_add(u, v) for u, v in zip(shots, contrib)]
        return tuple(shots)

    def codebook_arrays(self) -> tuple:
        """(rows, index) of the codebook in codeword order (guarded).

        rows[r, j] is the R_0 row, in R_0's codeword order, of shot j of
        codeword r; index[r] is the product-order index of row r's level
        messages (level 0 most significant).  Coset message k of level i
        adds k Q^(K_0 - K_i) to a shot's R_0 product index (Q = q^M), so
        one in-place broadcast per level over the outer codewords in
        message order (sorted(outer.codewords()): message tuples sort in
        product order), R_0's index and one lexsort of the shot-major
        table build it.  The guard counts the table, the sort order, one
        shot's rows and R_0's map to rows before anything is built.
        """
        if self._rows is None:
            Q, n, ks = self.field.size, self.n, self.chain.ks
            count = self.field.base.size ** self.cardinality_logq()
            guard_enumeration(count, (n,), transient=2 + -(-Q ** ks[0] // count))
            row_of = np.argsort(self.code.codebook_arrays()[1])  # product index -> row
            table = np.zeros((n, count), dtype=np.int64)
            grid = table.reshape([n] + [o.field.size ** o.k for o in self.outers])
            for i, outer in enumerate(self.outers):
                place = np.argsort([s for _, s in self.chain.coset_table(i)])  # symbol -> k
                place *= Q ** (ks[0] - ks[i])
                for j, symbols in enumerate(zip(*(cw for _, cw in sorted(outer.codewords())))):
                    grid[j] += place[list(symbols)].reshape([-1] + [1] * (self.m - 1 - i))
            for shot in table:
                shot[:] = row_of[shot]
            index = np.lexsort(table[::-1])
            for shot in table:
                shot[:] = shot[index]
            self._rows, self._index = table.T, index
        return self._rows, self._index

    def codeword_underlines(self) -> np.ndarray:
        """Stack of per-shot coordinate matrices, shape (|C|, n, N, M):
        R_0's stack gathered at the table.  The guard counts the stack,
        the table and R_0's stack before either codebook is built."""
        f, N = self.field, self.shot_length
        count = f.base.size ** self.cardinality_logq()
        r0 = f.size ** self.code.dim * N * f.degree  # R_0's stack entries
        guard_enumeration(count, (self.n, N, f.degree), transient=self.n + -(-r0 // count))
        return self.code.codeword_underlines()[self.codebook_arrays()[0]]

    def codeword(self, k: int) -> tuple:
        """The k-th codeword in codeword order: R_0's words at row k of the table."""
        words = self.code._codeword_ints()[:, self.codebook_arrays()[0][k]]
        return tuple(zip(*words.tolist()))

    def codewords(self) -> list:
        """All (messages, codeword) pairs, in codeword order (guarded);
        built from the table on first call."""
        if self._codebook is None:
            rows, index = self.codebook_arrays()
            words = self.code.codewords()
            messages = list(itertools.product(*(
                itertools.product(range(outer.field.size), repeat=outer.k)
                for outer in self.outers)))
            self._codebook = [(list(messages[m]), tuple(words[r] for r in row))
                              for m, row in zip(index.tolist(), rows.tolist())]
        return self._codebook

    # -- parameters ---------------------------------------------------------

    def cardinality_logq(self) -> int:
        m_deg = self.field.degree
        return sum(
            m_deg * self.chain.delta_k(i) * self.outers[i].k for i in range(self.m)
        )

    def design_distance(self) -> int:
        """Lower bound on the extended rank distance of the code."""
        return min(
            self.chain.subcode(i).designed_distance * self.outers[i].d_min
            for i in range(self.m)
        )

    def design_subspace_distance(self) -> int:
        return 2 * self.design_distance()

    def correctable_budget(self) -> int:
        """Largest rho + 2*tau with guaranteed exact oracle decoding."""
        return (self.design_subspace_distance() - 2) // 2

    def rate(self) -> Fraction:
        return Fraction(self.cardinality_logq(), self.n * self.shot_length * self.lifted_length)

    def to_json(self) -> dict:
        return {
            "field": field_to_json(self.field),
            "N": self.code.length,
            "K": self.code.dim,
            "Ks": list(self.chain.ks),
            "n": self.n,
            "points": list(self.code.points),
            "outers": [{"n": o.n, "k": o.k} for o in self.outers],
        }

    def __repr__(self):
        return (
            f"MultilevelCodeSpec(N={self.code.length}, Ks={self.chain.ks}, "
            f"n={self.n}, outers={[(o.n, o.k) for o in self.outers]})"
        )


def spec_from_json(doc: dict) -> MultilevelCodeSpec:
    if "special" in doc:
        s = doc["special"]
        spec, _ = special_situation(
            *(json_int(s[key], f"special {key}") for key in ("q", "M", "N", "K", "n", "d"))
        )
        return spec
    field = field_from_json(doc["field"])
    code = GabidulinCode(field, json_int(doc["N"], "N"), json_int(doc["K"], "K"),
                         doc.get("points"))
    outers = doc["outers"]
    n = json_int(doc["n"], "n")
    for o in outers:  # before the chain builds any level alphabet
        if "n" in o and json_int(o["n"], "outer n") != n:
            raise ValueError("outer block length disagrees with the shot count n")
    chain = PartitionChain(code, doc["Ks"])
    return MultilevelCodeSpec(chain, n, [json_int(o["k"], "outer k") for o in outers])


def special_situation(q: int, M: int, N: int, K: int, n: int, d: int):
    """Single-coefficient-per-level family tuned to a design distance d.

    Every level peels one generator column (delta_k = 1, so the level
    alphabet is F_{q^M} itself) and the outer dimensions are the largest
    that keep level i's contribution at least d.  Returns (spec, logq)
    where logq = M*K*(n+1) - M * sum_i ceil(d / (N-K+i+1)).
    """
    if not 1 <= K <= N:
        raise ValueError("need 1 <= K <= N")
    if d < 1:
        raise ValueError("design distance must be >= 1")
    if d > n * (N - K + 1):
        raise ValueError(
            f"design distance {d} exceeds n*(N-K+1) = {n * (N - K + 1)}: "
            "the level-0 outer dimension would drop below 1"
        )
    field = ExtensionField(PrimeField(q), degree=M)
    code = GabidulinCode(field, N, K)
    chain = PartitionChain(code, range(K, -1, -1))
    ceils = [math.ceil(d / (N - K + i + 1)) for i in range(K)]
    outer_ks = [n - c + 1 for c in ceils]
    spec = MultilevelCodeSpec(chain, n, outer_ks)
    return spec, M * K * (n + 1) - M * sum(ceils)


def maximize_bound(q: int, M: int, N: int, n: int, d: int):
    """Inner dimension K in 0..N maximizing the closed-form size bound.

    Infeasible K (design distance unreachable) count as log 0.  Ties go
    to the smaller K.  Returns (best_k, best_logq).
    """
    if d < 1:
        raise ValueError("design distance must be >= 1")
    best_k, best_val = 0, 0
    for k in range(1, N + 1):
        if d > n * (N - k + 1):
            continue
        val = M * k * (n + 1) - M * sum(
            math.ceil(d / (N - k + i + 1)) for i in range(k)
        )
        if val > best_val:
            best_k, best_val = k, val
    return best_k, best_val
