"""Partition chains: nesting, children counts, coset leader decomposition."""

import itertools

import numpy as np
import pytest

from rankshot import cosets, errors
from rankshot.cosets import PartitionChain
from rankshot.fields import matvec
from rankshot.gabidulin import GabidulinCode
from rankshot.linalg import solve_field


@pytest.fixture
def chain(f8):
    return PartitionChain(GabidulinCode(f8, 3, 2), [2, 1, 0])


def test_chain_validation(f8):
    code = GabidulinCode(f8, 3, 2)
    with pytest.raises(ValueError):
        PartitionChain(code, [1, 0])       # must start at K
    with pytest.raises(ValueError):
        PartitionChain(code, [2, 1])       # must end at 0
    with pytest.raises(ValueError):
        PartitionChain(code, [2, 2, 0])    # strictly decreasing


def test_levels_and_children(chain):
    assert chain.m == 2
    assert chain.delta_k(0) == 1 and chain.delta_k(1) == 1
    assert chain.children_count(0) == 8
    assert chain.children_count(1) == 8
    # product of children counts telescopes to q^(M K)
    assert chain.children_count(0) * chain.children_count(1) == 2 ** (3 * 2)


def test_children_count_wide_gap():
    from rankshot.fields import ExtensionField, PrimeField
    f16 = ExtensionField(PrimeField(2), degree=4)
    code = GabidulinCode(f16, 4, 2)
    wide = PartitionChain(code, [2, 0])
    assert wide.children_count(0) == 256   # q^(M * 2) = 2^8


def test_generator_slicing(chain):
    full = chain.code.generator
    assert chain.subcode(0) is chain.code
    assert chain.subcode(0).generator == full
    assert chain.subcode(2).generator == ((), (), ())
    assert chain.subcode(1).generator == tuple((row[0],) for row in full)
    assert chain.coset_code_generator(0) == tuple((row[1],) for row in full)
    assert chain.coset_code_generator(1) == tuple((row[0],) for row in full)


def test_subcode_nesting_exhaustive(chain):
    """Every R_1 codeword is an R_0 codeword; coset code meets R_1 only at 0."""
    r0 = set(chain.subcode(0).codewords())
    r1 = set(chain.subcode(1).codewords())
    assert r1 < r0
    assert len(r0) == 64 and len(r1) == 8
    gen0 = chain.coset_code_generator(0)
    coset_words = {matvec(chain.field, gen0, (s,)) for s in range(8)}
    assert coset_words & r1 == {(0, 0, 0)}
    assert len(coset_words) == 8


def test_coset_leader_roundtrip_exhaustive(chain):
    """leader + R_1 part reconstructs every one of the 64 R_0 words."""
    f = chain.field
    sub1 = chain.subcode(1)
    for msg in itertools.product(range(8), repeat=2):
        u = chain.code.encode(msg)
        leader, coeffs = chain.coset_leader(0, u)
        assert coeffs == (msg[1],)
        remainder = tuple(f.sub(a, b) for a, b in zip(u, leader))
        assert remainder in set(sub1.codewords())


def test_coset_leader_trivial_cases(chain):
    assert chain.coset_leader(0, (0, 0, 0)) == ((0, 0, 0), (0,))
    # a word inside R_1 has leader 0 at level 0
    w = chain.subcode(1).encode((5,))
    leader, coeffs = chain.coset_leader(0, w)
    assert leader == (0, 0, 0) and coeffs == (0,)


def test_coset_leader_rejects_non_members(chain):
    sub1 = chain.subcode(1)
    non_member = (1, 0, 0)
    assert non_member not in set(sub1.codewords())
    with pytest.raises(ValueError):
        chain.coset_leader(1, non_member)
    for wrong_length in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(ValueError):
            chain.coset_leader(0, wrong_length)


def test_coset_leader_level_m_minus_1(chain):
    # level 1 decomposes R_1 over R_2 = {0}: leader equals the word itself
    for s in range(8):
        w = chain.subcode(1).encode((s,))
        leader, coeffs = chain.coset_leader(1, w)
        assert leader == w and coeffs == (s,)


def _chains(f8, f9, decode12):
    """The tiny chain, the 2^12 decode chain and a q = 3 chain over F_9."""
    return (
        PartitionChain(GabidulinCode(f8, 3, 2), [2, 1, 0]),
        decode12.chain,
        PartitionChain(GabidulinCode(f9, 2, 2), [2, 1, 0]),
    )


def test_coset_leader_matches_solve_field(f8, f9, decode12):
    rng = np.random.default_rng(53)
    for ch in _chains(f8, f9, decode12):
        f = ch.field
        for i in range(ch.m):
            gen = ch.subcode(i).generator
            lo, hi = ch.ks[i + 1], ch.ks[i]
            for _ in range(20):
                msg = tuple(int(x) for x in rng.integers(0, f.size, hi))
                word = matvec(f, gen, msg)
                sol = solve_field(f, gen, list(word))
                assert sol == msg
                want = (matvec(f, ch.coset_code_generator(i), sol[lo:hi]), sol[lo:hi])
                assert ch.coset_leader(i, word) == want
                # a word outside R_i: solve_field finds no solution and
                # coset_leader refuses it
                other = tuple(int(x) for x in rng.integers(0, f.size, ch.code.length))
                other_sol = solve_field(f, gen, list(other))
                if other_sol is None:
                    with pytest.raises(ValueError):
                        ch.coset_leader(i, other)
                else:
                    assert ch.coset_leader(i, other)[1] == other_sol[lo:hi]


def test_coset_table_matches_coset_leader(f8, f9, decode12, q3spec, towerspec):
    """The word of R_i with product index k splits as entry k % children
    of level i's table: its leader, and its coset message as the level's
    outer symbol.  The table is built without enumerating R_i.  The tower
    chain's one level has delta_k = 2, so its symbols are F_16 over F_4."""
    for ch in _chains(f8, f9, decode12) + (q3spec.chain, towerspec.chain):
        fresh = PartitionChain(GabidulinCode(ch.field, ch.code.length, ch.code.dim,
                                             ch.code.points), ch.ks)
        for i in range(fresh.m):
            table = fresh.coset_table(i)
            assert fresh.subcode(i)._underlines is None
            children = fresh.children_count(i)
            assert len(table) == children
            index = fresh.subcode(i).codebook_arrays()[1].tolist()
            for k, w in zip(index, fresh.subcode(i).codewords()):
                leader, message = fresh.coset_leader(i, w)
                assert table[k % children] == (leader, ch.maps[i].to_symbol(message))


def test_coset_table_guard_runs_before_any_matvec(f8, monkeypatch):
    # the tiny level-0 table has 8 entries, one matvec each
    calls = []

    def counting_matvec(*args):
        calls.append(args)
        return matvec(*args)

    monkeypatch.setattr(cosets, "matvec", counting_matvec)
    monkeypatch.setattr(errors, "ENUM_GUARD", 7)
    fresh = PartitionChain(GabidulinCode(f8, 3, 2), [2, 1, 0])
    with pytest.raises(errors.GuardError, match="enumerating 8 codewords"):
        fresh.coset_table(0)
    assert calls == []
    monkeypatch.setattr(errors, "ENUM_GUARD", 8)
    assert len(fresh.coset_table(0)) == 8 and len(calls) == 8


def test_partition_refinement_exhaustive(chain):
    """Each level-1 coset sits inside exactly one level-0 coset."""
    f = chain.field
    r1 = set(chain.subcode(1).codewords())
    gen0 = chain.coset_code_generator(0)

    def level0_key(u):
        leader, _ = chain.coset_leader(0, u)
        return leader

    for s in range(8):
        base = matvec(f, gen0, (s,))
        # the level-1 coset {base + w : w in R_1} maps to a single level-0 leader
        keys = {level0_key(tuple(f.add(a, b) for a, b in zip(base, w))) for w in r1}
        assert len(keys) == 1
