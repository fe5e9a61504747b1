"""Nested chains of Gabidulin subcodes and their coset decompositions.

A chain K = K_0 > K_1 > ... > K_m = 0 nests the column-span subcodes
R_i generated by the first K_i generator columns; R_0 is the code object
itself.  The coset code [R_i / R_{i+1}] is spanned by columns
K_{i+1} .. K_i - 1, and every word of R_i splits uniquely as a coset
leader from that span plus a remainder in R_{i+1}: the levels multistage
decoding peels.  coset_leader, the reference split, solves G_i x = word
with linalg.solve_field over R_i's generator; only the tests and
perfbench/spans.py call it.  The algebraic multistage path reads the
split off the message polynomial it already holds.

coset_entry(i, message) maps a coset message to its leader and to its
symbol in the level alphabet maps[i], built once with the chain; every
caller applies this one rule.  coset_table(i) applies it to every coset
message, in itertools.product order.  A word of R_i with product index k
lies in the coset of entry k % children_count(i), which the exhaustive
multistage decoder reads; the multilevel codebook reads the table from
symbol to coset message.
"""

from __future__ import annotations

import itertools

from .errors import guard_enumeration, json_int
from .fields import matvec
from .gabidulin import GabidulinCode
from .linalg import solve_field
from .outer import SymbolMap


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
        self._tables: dict[int, list] = {}
        self._coset_generators = tuple(
            tuple(row[lo:hi] for row in code.generator) for hi, lo in zip(ks, ks[1:])
        )
        self.maps = tuple(SymbolMap(code.field, hi - lo) for hi, lo in zip(ks, ks[1:]))

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

    def coset_code_generator(self, i: int) -> tuple:
        """Generator columns K_{i+1} .. K_i - 1, as N row tuples."""
        return self._coset_generators[i]

    def coset_leader(self, i: int, word):
        """Decompose a word of R_i as leader + member of R_{i+1}.

        Returns (leader, message) where leader lies in [R_i / R_{i+1}]
        and message is its delta_k coefficient tuple.  Raises ValueError
        when the word is not in R_i.
        """
        sol = solve_field(self.field, self.subcode(i).generator, list(word))
        if sol is None:
            raise ValueError(f"word is not a member of the level-{i} subcode")
        message = sol[self.ks[i + 1]: self.ks[i]]
        return self.coset_entry(i, message)[0], message

    def coset_entry(self, i: int, message) -> tuple:
        """(leader, symbol) of a level-i coset message of delta_k elements:
        its image under coset_code_generator(i) and its maps[i] symbol."""
        leader = matvec(self.field, self._coset_generators[i], message)
        return leader, self.maps[i].to_symbol(message)

    def coset_table(self, i: int) -> list:
        """coset_entry(i, m) of every coset message m, in
        itertools.product(range(q^M), repeat=delta_k) order.

        A word of R_i with product index k lies in the coset of entry
        k % children_count(i).  Built on first use; the count guard runs
        before the first matvec, and nothing is enumerated.
        """
        if i not in self._tables:
            guard_enumeration(self.children_count(i))
            self._tables[i] = [
                self.coset_entry(i, m)
                for m in itertools.product(range(self.field.size), repeat=self.delta_k(i))
            ]
        return self._tables[i]

    def __repr__(self):
        return f"PartitionChain(ks={self.ks}, code={self.code!r})"
