"""Multilevel construction: encoding, cardinality, distances, bound formulas."""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from rankshot import outer
from rankshot.channel import lift_multishot
from rankshot.cosets import PartitionChain
from rankshot.decoder import multistage_decode
from rankshot.errors import ENUM_GUARD, STACK_GUARD_BYTES, GuardError, guard_enumeration
from rankshot.fields import ExtensionField, PrimeField
from rankshot.gabidulin import GabidulinCode
from rankshot.linalg import extended_rank_distance
from rankshot.multilevel import (
    MultilevelCodeSpec,
    maximize_bound,
    spec_from_json,
    special_situation,
)


def test_shape_sanity(tiny2shot):
    assert tiny2shot.m == 2
    assert tiny2shot.n == 2
    assert tiny2shot.shot_length == 3
    assert tiny2shot.lifted_length == 6


def test_outer_alphabets_match_children(tiny2shot):
    for i, outer in enumerate(tiny2shot.outers):
        assert outer.field.size == tiny2shot.chain.children_count(i)


def test_zero_messages_encode_to_zero(tiny2shot):
    word = tiny2shot.encode([(0,), (0,)])
    assert word == ((0, 0, 0), (0, 0, 0))


def test_encode_every_shot_in_r0(tiny2shot):
    r0 = set(tiny2shot.code.codewords())
    for msgs, word in tiny2shot.codewords():
        for shot in word:
            assert shot in r0


def test_injectivity_and_cardinality(tiny2shot):
    book = tiny2shot.codewords()
    words = {w for _, w in book}
    assert len(book) == len(words) == 64
    assert tiny2shot.cardinality_logq() == 6
    assert 2 ** tiny2shot.cardinality_logq() == 64


def test_level_contributions_sum_to_encoding(tiny2shot):
    f = tiny2shot.field
    rng = np.random.default_rng(19)
    for _ in range(40):
        msgs = tiny2shot.random_messages(rng)
        contribs = tiny2shot.level_contributions(msgs)
        word = tiny2shot.encode(msgs)
        for j in range(tiny2shot.n):
            acc = (0, 0, 0)
            for lvl in contribs:
                acc = f.vec_add(acc, lvl[j])
            assert acc == word[j]


def test_random_messages_beyond_int64(widespec):
    """A level alphabet of 2^64 symbols draws its symbols coordinate by
    coordinate; the messages are in range and decode back on a clean
    channel through the algebraic inner and outer decoders."""
    spec = widespec
    assert spec.outers[0].field.size == 2 ** 64
    rng = np.random.default_rng(5)
    level0 = []
    for _ in range(4):
        msgs = spec.random_messages(rng)
        assert [len(m) for m in msgs] == [o.k for o in spec.outers]
        for msg, outer in zip(msgs, spec.outers):
            assert all(0 <= s < outer.field.size for s in msg)
        level0.extend(msgs[0])
        xs = lift_multishot(spec.field, spec.encode(msgs))
        res = multistage_decode(xs, spec, outer_method="algebraic", inner_method="algebraic")
        assert res.ok and res.messages == [tuple(m) for m in msgs]
    assert max(level0) >= 2 ** 63


def test_encoder_linearity(tiny2shot):
    f = tiny2shot.field
    w1 = tiny2shot.encode([(3,), (1,)])
    w2 = tiny2shot.encode([(5,), (4,)])
    s = tiny2shot.encode([(f.add(3, 5),), (f.add(1, 4),)])
    for a, b, c in zip(w1, w2, s):
        assert f.vec_add(a, b) == c


def test_design_distance_and_budget(tiny2shot):
    assert tiny2shot.design_distance() == 4     # min(2*2, 3*2)
    assert tiny2shot.design_subspace_distance() == 8
    assert tiny2shot.correctable_budget() == 3
    assert tiny2shot.rate() == Fraction(1, 6)


def test_design_distance_is_true_lower_bound(tiny2shot):
    f = tiny2shot.field
    words = [w for _, w in tiny2shot.codewords()]
    best = min(
        extended_rank_distance(f, a, b)
        for a, b in itertools.combinations(words, 2)
    )
    assert best >= tiny2shot.design_distance()


def test_single_level_reduces_to_gabidulin(f8):
    code = GabidulinCode(f8, 3, 2)
    spec = MultilevelCodeSpec(PartitionChain(code, [2, 0]), 2, [2])
    # one level, full-rate outer: every shot is an independent codeword
    assert spec.m == 1
    assert spec.cardinality_logq() == 2 * 3 * 2   # n * M * K
    msgs = [(17, 43)]
    word = spec.encode(msgs)
    smap = spec.maps[0]
    for j, s in enumerate(spec.outers[0].encode(msgs[0])):
        assert word[j] == code.encode(smap.to_tuple(s))


def test_level_alphabets_are_built_once(towerspec, monkeypatch):
    """The chain builds each level's alphabet when it is made; the spec,
    its outer codes and the coset tables read that one map."""
    assert towerspec.maps is towerspec.chain.maps
    assert all(o.field is smap.alphabet for o, smap in zip(towerspec.outers, towerspec.maps))
    fresh = PartitionChain(towerspec.code, towerspec.chain.ks)
    built = []
    monkeypatch.setattr(outer, "ExtensionField", lambda *args, **kwargs: built.append(args))
    table = fresh.coset_table(0)
    assert built == [] and len(table) == 16
    assert table == towerspec.chain.coset_table(0)


def test_zero_dimension_outers(f8):
    code = GabidulinCode(f8, 3, 2)
    spec = MultilevelCodeSpec(PartitionChain(code, [2, 1, 0]), 2, [0, 0])
    assert spec.cardinality_logq() == 0
    assert spec.rate() == 0
    assert spec.codewords() == [([(), ()], ((0, 0, 0), (0, 0, 0)))]


def test_special_situation_tiny_parameters():
    spec, logq = special_situation(2, 3, 3, 2, 2, 4)
    assert logq == 6
    assert spec.cardinality_logq() == 6
    assert spec.chain.ks == (2, 1, 0)
    assert [o.k for o in spec.outers] == [1, 1]
    assert spec.design_distance() >= 4


def test_special_situation_hand_value():
    # MK(n+1) - M * (ceil(4/3) + ceil(4/4)) = 4*2*4 - 4*3 = 20
    spec, logq = special_situation(2, 4, 4, 2, 3, 4)
    assert logq == 20
    assert spec.cardinality_logq() == 20


def test_special_situation_d_one_full_rate():
    spec, logq = special_situation(2, 3, 3, 2, 2, 1)
    assert logq == 2 * 3 * 2      # nMK
    assert all(o.k == o.n for o in spec.outers)


def test_special_situation_rejects_infeasible():
    with pytest.raises(ValueError):
        special_situation(2, 3, 3, 2, 2, 5)   # d > n(N-K+1) = 4
    with pytest.raises(ValueError):
        special_situation(2, 3, 3, 2, 8, 1)   # n >= q^M


def test_special_matches_direct_formula_all_feasible_d():
    q, M, N, n = 2, 3, 3, 2
    for K in range(1, N + 1):
        for d in range(1, n * (N - K + 1) + 1):
            spec, logq = special_situation(q, M, N, K, n, d)
            closed = M * K * (n + 1) - M * sum(
                -(-d // (N - K + i + 1)) for i in range(K)
            )
            assert logq == closed == spec.cardinality_logq()


def test_maximize_bound_hand_table():
    # q=2, M=4, N=4, n=3, d=4: evaluate the bound for K = 1..4 by hand:
    # K=1: 4(3+1+... ) -> 4*1*4 - 4*ceil(4/4) = 12
    # K=2: 4*2*4 - 4*(ceil(4/3)+ceil(4/4)) = 20
    # K=3: 4*3*4 - 4*(2+2+1) = 28
    # K=4: infeasible (d > n(N-K+1) = 3)
    assert maximize_bound(2, 4, 4, 3, 4) == (3, 28)


def test_maximize_bound_edges():
    assert maximize_bound(2, 3, 3, 2, 7) == (0, 0)      # d > nN
    k, v = maximize_bound(2, 3, 3, 2, 1)
    assert (k, v) == (3, 2 * 3 * 3)                      # d=1: nMN at K=N


def test_json_roundtrip(tiny2shot):
    doc = tiny2shot.to_json()
    again = spec_from_json(doc)
    assert again.to_json() == doc
    assert [w for _, w in again.codewords()] == [w for _, w in tiny2shot.codewords()]


def test_json_special_preset():
    spec = spec_from_json({"special": {"q": 2, "M": 3, "N": 3, "K": 2, "n": 2, "d": 4}})
    assert spec.cardinality_logq() == 6


def test_json_outer_length_mismatch(tiny2shot, towerspec, monkeypatch):
    doc = tiny2shot.to_json()
    doc["outers"][0]["n"] = 3
    with pytest.raises(ValueError):
        spec_from_json(doc)
    # refused before the chain builds the level's F_16 alphabet
    doc = towerspec.to_json()
    doc["outers"][0]["n"] = 4
    built = []
    monkeypatch.setattr(outer, "ExtensionField", lambda *args, **kwargs: built.append(args))
    with pytest.raises(ValueError, match="outer block length"):
        spec_from_json(doc)
    assert built == []


def test_lifted_code_preserves_cardinality_and_distance(tiny2shot):
    """The lifted matrix code has the same size, and its extended subspace
    distance is twice the extended rank distance (checked on a sample)."""
    from rankshot.channel import lift_multishot
    from rankshot.linalg import Subspace, extended_subspace_distance

    f = tiny2shot.field
    words = [w for _, w in tiny2shot.codewords()]
    lifted = [lift_multishot(f, w) for w in words]
    keys = {tuple(x.tobytes() for x in t) for t in lifted}
    assert len(keys) == len(words)
    rng = np.random.default_rng(59)
    for _ in range(60):
        i, j = rng.integers(0, len(words), 2)
        ds = extended_subspace_distance(
            [Subspace(x, 2) for x in lifted[i]],
            [Subspace(x, 2) for x in lifted[j]],
        )
        assert ds == 2 * extended_rank_distance(f, words[i], words[j])


def test_codewords_in_codeword_order(tiny2shot, decode12):
    for spec in (tiny2shot, decode12):
        book = spec.codewords()
        words = [w for _, w in book]
        assert len(words) == spec.field.base.size ** spec.cardinality_logq()
        assert all(a < b for a, b in zip(words, words[1:]))
    for msgs, word in tiny2shot.codewords():
        assert tiny2shot.encode(msgs) == word


def test_underline_stack_matches_per_shot(tiny2shot):
    und = tiny2shot.codeword_underlines()
    book = tiny2shot.codewords()
    assert und.shape == (64, 2, 3, 3)
    for c, (_, word) in enumerate(book):
        for j, shot in enumerate(word):
            assert np.array_equal(und[c, j], tiny2shot.field.underline(shot))


def test_underline_stack_guard_runs_before_enumeration():
    # 2^20 codewords pass the count guard; their 384 MiB stack does not
    spec, logq = special_situation(2, 4, 4, 2, 3, 4)
    assert logq == 20
    t0 = time.perf_counter()
    with pytest.raises(GuardError, match="402653184 stack bytes"):
        spec.codeword_underlines()
    assert time.perf_counter() - t0 < 1.0
    assert spec._codebook is None and spec._rows is None


def test_guard_bounds_count_and_stack_bytes():
    guard_enumeration(ENUM_GUARD)
    guard_enumeration(STACK_GUARD_BYTES // 64, (2, 4))
    with pytest.raises(GuardError):
        guard_enumeration(ENUM_GUARD + 1)
    with pytest.raises(GuardError):
        guard_enumeration(STACK_GUARD_BYTES // 64 + 1, (2, 4))
