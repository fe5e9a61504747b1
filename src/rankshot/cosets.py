"""Nested chains of Gabidulin subcodes and their coset decompositions.

A chain K = K_0 > K_1 > ... > K_m = 0 nests the column-span subcodes
R_i generated by the first K_i generator columns.  The coset code
[R_i / R_{i+1}] is spanned by columns K_{i+1} .. K_i - 1; every word of
R_i splits uniquely as a coset leader from that span plus a remainder in
R_{i+1}, which is what multistage decoding peels off level by level.
The split reads the word's coefficients through a left inverse of each
level's N x K_i generator, computed once per chain.

coset_table(i) holds that split for every word of R_i at once, in R_i's
codeword order, so an exhaustive decoder's argmin over R_i's codeword
stack reads its decision by index.  It is built once per level with
coset_leader and held as int64 arrays under the enumeration guard.
"""

from __future__ import annotations

import numpy as np

from .errors import guard_enumeration
from .fields import matvec
from .gabidulin import GabidulinCode
from .linalg import rref_field


class PartitionChain:
    def __init__(self, code: GabidulinCode, ks):
        ks = tuple(int(k) for k in ks)
        if not ks or ks[0] != code.dim:
            raise ValueError("chain must start at the code dimension")
        if ks[-1] != 0:
            raise ValueError("chain must end at 0")
        if any(a <= b for a, b in zip(ks, ks[1:])):
            raise ValueError("chain must be strictly decreasing")
        self.code = code
        self.ks = ks
        self._subcodes: dict[int, GabidulinCode] = {}
        self._tables: dict[int, tuple] = {}
        self._left_inverses = tuple(self._left_inverse(i) for i in range(len(ks) - 1))

    @property
    def m(self) -> int:
        """Number of partition levels."""
        return len(self.ks) - 1

    @property
    def field(self):
        return self.code.field

    def delta_k(self, i: int) -> int:
        return self.ks[i] - self.ks[i + 1]

    def children_count(self, i: int) -> int:
        """Cosets of R_{i+1} inside R_i: q^(M * delta_k)."""
        return self.field.size ** self.delta_k(i)

    def subcode(self, i: int) -> GabidulinCode:
        if i not in self._subcodes:
            self._subcodes[i] = GabidulinCode(
                self.field, self.code.length, self.ks[i], self.code.points
            )
        return self._subcodes[i]

    def subcode_generator(self, i: int) -> tuple:
        """First K_i generator columns, as N row tuples."""
        k = self.ks[i]
        return tuple(row[:k] for row in self.code.generator)

    def coset_code_generator(self, i: int) -> tuple:
        """Generator columns K_{i+1} .. K_i - 1, as N row tuples."""
        lo, hi = self.ks[i + 1], self.ks[i]
        return tuple(row[lo:hi] for row in self.code.generator)

    def _left_inverse(self, i: int) -> tuple:
        """K_i x N matrix L with L G_i = I for the generator G_i of R_i.

        G_i has full column rank, so the RREF of [G_i | I_N] is [I ; 0] on
        the left, and its first K_i rows carry L on the right.
        """
        k, n = self.ks[i], self.code.length
        aug = [list(row) + [int(j == r) for j in range(n)]
               for r, row in enumerate(self.subcode_generator(i))]
        R, _ = rref_field(self.field, aug)
        return tuple(tuple(row[k:]) for row in R[:k])

    def coset_leader(self, i: int, word):
        """Decompose a word of R_i as leader + member of R_{i+1}.

        Returns (leader, message) where leader lies in [R_i / R_{i+1}]
        and message is its delta_k coefficient tuple.  Raises ValueError
        when the word is not in R_i.
        """
        word = tuple(word)
        sol = matvec(self.field, self._left_inverses[i], word)
        if matvec(self.field, self.subcode_generator(i), sol) != word:
            raise ValueError(f"word is not a member of the level-{i} subcode")
        message = sol[self.ks[i + 1]: self.ks[i]]
        leader = matvec(self.field, self.coset_code_generator(i), message)
        return leader, message

    def coset_table(self, i: int) -> tuple:
        """(leaders, messages) of every word of R_i, in R_i's codeword order.

        Row k of the int64 arrays, shapes (|R_i|, N) and (|R_i|, delta_k),
        is coset_leader(i, w) for the k-th word w of
        subcode(i).codewords().  Built on first use under the enumeration
        guard, which bounds both arrays' bytes.
        """
        if i not in self._tables:
            sub = self.subcode(i)
            guard_enumeration(self.field.size ** sub.dim, (sub.length + self.delta_k(i),))
            leaders, messages = zip(*(self.coset_leader(i, w) for w in sub.codewords()))
            self._tables[i] = (np.array(leaders, dtype=np.int64),
                               np.array(messages, dtype=np.int64))
        return self._tables[i]

    def __repr__(self):
        return f"PartitionChain(ks={self.ks}, code={self.code!r})"
