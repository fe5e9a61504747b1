"""Nested chains of Gabidulin subcodes and their coset decompositions.

A chain K = K_0 > K_1 > ... > K_m = 0 nests the column-span subcodes
R_i generated by the first K_i generator columns.  The coset code
[R_i / R_{i+1}] is spanned by columns K_{i+1} .. K_i - 1; every word of
R_i splits uniquely as a coset leader from that span plus a remainder in
R_{i+1}, which is what multistage decoding peels off level by level.
The split solves G_i x = word with linalg.solve_field over R_i's
generator, the first K_i generator columns, and reads the coset message
off x; the coset generators' column blocks are sliced once per chain.
R_0 is the code object itself.  coset_leader stays as the reference
split, for the tests and for perfbench/spans.py; no decode path calls
it.  The algebraic multistage path already holds the message
polynomial and reads the split off it, and the exhaustive path reads
coset_table.

coset_table(i) holds that split for every word of R_i at once, in R_i's
codeword order, so an exhaustive decoder's argmin over R_i's codeword
stack reads its decision by index.  It is read off R_i's enumeration,
whose message indices carry each word's coset message, with no
coset_leader call, and held as int64 arrays under the enumeration guard.
"""

from __future__ import annotations

import numpy as np

from .errors import guard_enumeration, json_int
from .fields import matvec
from .gabidulin import GabidulinCode
from .linalg import element_ints, mixed_radix_digits, solve_field


class PartitionChain:
    def __init__(self, code: GabidulinCode, ks):
        ks = tuple(json_int(k, "chain dimension") for k in ks)
        if not ks or ks[0] != code.dim:
            raise ValueError("chain must start at the code dimension")
        if ks[-1] != 0:
            raise ValueError("chain must end at 0")
        if any(a <= b for a, b in zip(ks, ks[1:])):
            raise ValueError("chain must be strictly decreasing")
        self.code = code
        self.ks = ks
        self._subcodes: dict[int, GabidulinCode] = {0: code}
        self._tables: dict[int, tuple] = {}
        self._coset_generators = tuple(
            tuple(row[lo:hi] for row in code.generator) for hi, lo in zip(ks, ks[1:])
        )

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
        return self.subcode(i).generator

    def coset_code_generator(self, i: int) -> tuple:
        """Generator columns K_{i+1} .. K_i - 1, as N row tuples."""
        return self._coset_generators[i]

    def coset_leader(self, i: int, word):
        """Decompose a word of R_i as leader + member of R_{i+1}.

        Returns (leader, message) where leader lies in [R_i / R_{i+1}]
        and message is its delta_k coefficient tuple.  Raises ValueError
        when the word is not in R_i.
        """
        sol = solve_field(self.field, self.subcode_generator(i), list(word))
        if sol is None:
            raise ValueError(f"word is not a member of the level-{i} subcode")
        message = sol[self.ks[i + 1]: self.ks[i]]
        leader = matvec(self.field, self._coset_generators[i], message)
        return leader, message

    def coset_table(self, i: int) -> tuple:
        """(leaders, messages) of every word of R_i, in R_i's codeword order.

        Row k of the int64 arrays, shapes (|R_i|, N) and (|R_i|, delta_k),
        is coset_leader(i, w) for the k-th word w of R_i in codeword
        order, read from R_i's enumeration (GabidulinCode.codebook_arrays):
        a word's coset message is the last delta_k elements of its
        message, the low digits of its product index, and its leader is
        the word whose product index is those digits alone.  Built on
        first use; the guard bounds both arrays and the index copy, and
        runs before R_i is enumerated.
        """
        if i not in self._tables:
            sub, delta = self.subcode(i), self.delta_k(i)
            guard_enumeration(self.field.size ** sub.dim, (sub.length + delta,), transient=2)
            und, index = sub.codebook_arrays()
            cosets = self.children_count(i)
            coset_index = index % cosets
            # the words with product index below `cosets` are the leaders
            at = np.flatnonzero(index < cosets)
            by_index = np.empty((cosets, sub.length), dtype=np.int64)
            by_index[index[at]] = element_ints(und[at], self.field.base.size)
            self._tables[i] = (by_index[coset_index],
                               mixed_radix_digits(coset_index, [self.field.size] * delta))
        return self._tables[i]

    def __repr__(self):
        return f"PartitionChain(ks={self.ks}, code={self.code!r})"
