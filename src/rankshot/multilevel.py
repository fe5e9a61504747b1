"""Multilevel (generalized concatenated) construction of multishot codes.

Level i pairs the coset code [R_i / R_{i+1}] of a Gabidulin partition
chain with an outer Reed-Solomon code over an alphabet of matching size.
Encoding runs every outer code, maps each outer symbol to a coefficient
tuple, forms the per-shot coset contribution with the corresponding
generator columns, and sums the contributions: the codeword is an
n-tuple of rank words, one per channel use.  Every one of those maps is
F_q-linear, so the codebook is the F_q-span of the contributions of the
log_q |C| single-digit level messages; linalg.span_codebook builds it as
one coordinate stack in codeword order, and the Python (messages,
codeword) list only when codewords() is called.

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

import math
from fractions import Fraction

import numpy as np

from .cosets import PartitionChain
from .errors import json_int
from .fields import ExtensionField, PrimeField, field_from_json, field_to_json, matvec
from .gabidulin import GabidulinCode
from .linalg import element_ints, mixed_radix_digits, single_digit_messages, span_codebook
from .outer import OuterCode, SymbolMap


class MultilevelCodeSpec:
    def __init__(self, chain: PartitionChain, n: int, outer_ks):
        outer_ks = tuple(int(k) for k in outer_ks)
        if len(outer_ks) != chain.m:
            raise ValueError(
                f"need one outer dimension per level: {chain.m} levels, got {len(outer_ks)}"
            )
        self.chain = chain
        self.n = int(n)
        self.maps = tuple(SymbolMap(chain.field, chain.delta_k(i)) for i in range(chain.m))
        self.outers = tuple(
            OuterCode(self.maps[i].alphabet, self.n, outer_ks[i]) for i in range(chain.m)
        )
        self._codebook = None
        self._underlines = None
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
        out = []
        for outer in self.outers:
            out.append(tuple(int(rng.integers(0, outer.field.size)) for _ in range(outer.k)))
        return out

    def level_contribution(self, i: int, message) -> tuple:
        """The n per-shot words that level i contributes for its outer message."""
        gen = self.chain.coset_code_generator(i)
        smap = self.maps[i]
        return tuple(
            matvec(self.field, gen, smap.to_tuple(s)) for s in self.outers[i].encode(message)
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
        """(stack, index) of the codebook in codeword order (guarded).

        stack holds the per-shot coordinate matrices, shape
        (|C|, n, N, M), and index[r] is the product-order index of row
        r's level messages (level 0 most significant).  The code is the
        F_q-span of the level contributions of the messages with a single
        base-q digit, so one span_codebook call builds both from
        log_q |C| encodings.
        """
        if self._underlines is None:
            f = self.field
            q = f.base.size
            rows = (f.underline(self.level_contribution(i, msg))
                    for i, outer in enumerate(self.outers)
                    for msg in single_digit_messages(outer.k, f.degree * self.chain.delta_k(i), q))
            self._underlines, self._index = span_codebook(
                rows, self.cardinality_logq(), q, (self.n, self.shot_length, f.degree))
        return self._underlines, self._index

    def codeword_underlines(self) -> np.ndarray:
        """Stack of per-shot coordinate matrices, shape (|C|, n, N, M) (guarded)."""
        return self.codebook_arrays()[0]

    def codeword(self, k: int) -> tuple:
        """The k-th codeword in codeword order, read from the stack."""
        rows = element_ints(self.codeword_underlines()[k], self.field.base.size).tolist()
        return tuple(map(tuple, rows))

    def codewords(self) -> list:
        """All (messages, codeword) pairs, in codeword order (guarded);
        built from the arrays on first call."""
        if self._codebook is None:
            und, index = self.codebook_arrays()
            words = element_ints(und, self.field.base.size).tolist()
            sizes = [outer.field.size for outer in self.outers for _ in range(outer.k)]
            digits = mixed_radix_digits(index, sizes).tolist()
            cuts = np.cumsum([0] + [outer.k for outer in self.outers]).tolist()
            self._codebook = [
                ([tuple(msg[a:b]) for a, b in zip(cuts, cuts[1:])], tuple(map(tuple, word)))
                for msg, word in zip(digits, words)
            ]
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
    chain = PartitionChain(code, doc["Ks"])
    outers = doc["outers"]
    n = json_int(doc["n"], "n")
    for o in outers:
        if "n" in o and json_int(o["n"], "outer n") != n:
            raise ValueError("outer block length disagrees with the shot count n")
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
