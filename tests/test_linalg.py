"""RREF, ranks, subspaces, and the four distances over F_q."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankshot import linalg
from rankshot.errors import Q_GUARD
from rankshot.linalg import (
    Subspace,
    extended_rank_distance,
    extended_subspace_distance,
    kernel_field,
    lifted_distances,
    matrix_from_json,
    matrix_to_json,
    rank,
    rank_batch,
    rankdef,
    rank_distance,
    rref,
    rref_field,
    solve_field,
    subspace_distance,
    subspace_distance_to_lifted,
)
from rankshot.channel import lift
from rankshot.multilevel import special_situation


def all_matrices(rows, cols, q):
    total = q ** (rows * cols)
    for code in range(total):
        digits = []
        c = code
        for _ in range(rows * cols):
            digits.append(c % q)
            c //= q
        yield np.array(digits, dtype=np.int64).reshape(rows, cols)


def test_rref_hand_examples():
    eye = np.eye(3, dtype=np.int64)
    r, piv = rref(eye, 2)
    assert np.array_equal(r, eye) and piv == [0, 1, 2]

    z = np.zeros((2, 4), dtype=np.int64)
    r, piv = rref(z, 2)
    assert np.array_equal(r, z) and piv == []

    m = np.array([[1, 1], [1, 0]], dtype=np.int64)
    r, piv = rref(m, 2)
    assert r.tolist() == [[1, 0], [0, 1]] and piv == [0, 1]


def test_rref_idempotent():
    rng = np.random.default_rng(17)
    for q in (2, 3):
        for _ in range(50):
            m = rng.integers(0, q, (4, 6))
            r1, p1 = rref(m, q)
            r2, p2 = rref(r1, q)
            assert np.array_equal(r1, r2) and p1 == p2


@st.composite
def _matrices(draw):
    """A matrix over F_q, 0-8 x 0-16, random or a low-rank product A B."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    r, c = draw(st.integers(0, 8)), draw(st.integers(0, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return q, rng.integers(0, q, (r, c))
    k = draw(st.integers(0, min(r, c)))
    return q, rng.integers(0, q, (r, k)) @ rng.integers(0, q, (k, c))


@settings(max_examples=150, deadline=None, database=None)
@given(mat=_matrices())
def test_rref_property(mat):
    q, m = mat
    R, piv = rref(m, q)
    assert R.dtype == np.int64 and R.shape == m.shape
    assert ((R >= 0) & (R < q)).all()
    assert piv == sorted(set(piv))
    for i, p in enumerate(piv):
        assert R[i, p] == 1 and np.count_nonzero(R[:, p]) == 1
        assert not R[i, :p].any()
    assert not R[len(piv):].any()
    assert len(piv) == rank_batch(m[None], q)[0]
    # R's basis spans the row space of m: stacking it on m adds no rank
    stacked = np.vstack([m % q, R[: len(piv)]])
    assert rank_batch(stacked[None], q)[0] == len(piv)


def test_rank_and_rankdef():
    assert rank(np.eye(4, dtype=np.int64), 2) == 4
    assert rankdef(np.eye(4, dtype=np.int64), 2) == 0
    assert rank(np.zeros((3, 5), dtype=np.int64), 2) == 0
    assert rank(np.array([[1, 1], [1, 1]]), 2) == 1
    assert rankdef(np.array([[1, 1], [1, 1]]), 2) == 1


def test_rank_batch_matches_scalar_rank():
    rng = np.random.default_rng(23)
    for q in (2, 3):
        mats = rng.integers(0, q, (40, 3, 4))
        got = rank_batch(mats, q)
        want = [rank(m, q) for m in mats]
        assert got.tolist() == want
    # shapes beyond the F_2 table limit fall back to elimination
    big = rng.integers(0, 2, (10, 4, 5))
    assert rank_batch(big, 2).tolist() == [rank(m, 2) for m in big]


def binary_patterns(rows, cols):
    """Every binary rows x cols matrix; bit k of the index is entry k row-major."""
    codes = np.arange(1 << (rows * cols))[:, None] >> np.arange(rows * cols)
    return (codes & 1).reshape(-1, rows, cols)


def test_rank_batch_all_binary_4x4():
    mats = binary_patterns(4, 4)
    assert rank_batch(mats, 2).tolist() == [rank(m, 2) for m in mats]


@st.composite
def _stacks(draw):
    """A random stack over F_q, or a stack of products A B of inner dimension k."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    count, r, c = draw(st.integers(0, 300)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return q, rng.integers(0, q, (count, r, c))
    k = draw(st.integers(0, min(r, c)))
    return q, rng.integers(0, q, (count, r, k)) @ rng.integers(0, q, (count, k, c))


@settings(max_examples=60, deadline=None, database=None)
@given(stack=_stacks())
def test_rank_batch_matches_rank_property(stack):
    q, mats = stack
    assert rank_batch(mats, q).tolist() == [rank(m, q) for m in mats]


def test_rank_batch_edge_shapes():
    for q in (2, 3):
        for shape in ((0, 4, 4), (0, 3, 3), (5, 0, 3), (5, 3, 0)):
            got = rank_batch(np.zeros(shape, dtype=np.int64), q)
            assert got.shape == (shape[0],) and not got.any()


def test_rank_batch_binary_wide_rows():
    # c = 64 fills the packed word, sign bit included; wider rows must not
    # fold column 64 onto column 0
    for c, ones, want in ((64, [[63], [63, 0], [0]], 2), (65, [[0], [64]], 2),
                          (130, [[0], [64], [128], [0, 64, 128]], 3)):
        m = np.zeros((len(ones), c), dtype=np.int64)
        for i, cols in enumerate(ones):
            m[i, cols] = 1
        assert rank(m, 2) == want and rank_batch(m[None], 2).tolist() == [want]
    rng = np.random.default_rng(29)
    for c in (63, 64, 65, 130):
        mats = np.concatenate([
            rng.integers(0, 2, (20, 5, c)),
            rng.integers(0, 2, (20, 5, 2)) @ rng.integers(0, 2, (20, 2, c)) % 2,
        ])
        assert rank_batch(mats, 2).tolist() == [rank(m, 2) for m in mats]


def test_f2_rank_tables_match_rank():
    for r, c in ((3, 3), (3, 4), (4, 3), (2, 6), (1, 12), (12, 1), (4, 4), (2, 8), (1, 16)):
        want = [rank(m, 2) for m in binary_patterns(r, c)]
        assert linalg._f2_rank_table(r, c).tolist() == want


def test_rank_batch_returns_int64_on_every_path():
    rng = np.random.default_rng(47)
    for shape, q in (((9, 4, 4), 2), ((9, 4, 5), 2), ((9, 4, 4), 3), ((0, 4, 4), 2)):
        got = rank_batch(rng.integers(0, q, shape), q)
        assert got.dtype == np.int64 and got.shape == shape[:1]


def test_rank_batch_4x4_binary_uses_the_table(monkeypatch):
    rng = np.random.default_rng(59)
    mats = rng.integers(0, 2, (256, 4, 4))
    linalg._f2_rank_table(4, 4)
    calls = []
    real_xor_ranks = linalg._xor_ranks

    def counting_xor_ranks(words):
        calls.append(words.shape)
        return real_xor_ranks(words)

    monkeypatch.setattr(linalg, "_xor_ranks", counting_xor_ranks)
    got = rank_batch(mats, 2)
    assert calls == []
    assert got.tolist() == [rank(m, 2) for m in mats]


def test_rank_batch_q_guard():
    """Below the bound the modular kernel's products stay inside int64;
    at and beyond it rank_batch refuses instead of ranking wrongly."""
    rng = np.random.default_rng(47)
    q = Q_GUARD - 1  # 2^31 - 1, prime
    u = rng.integers(1, q, (200, 3, 1))
    v = rng.integers(1, q, (200, 1, 3))
    assert rank_batch((u * v) % q, q).tolist() == [1] * 200
    for big in (Q_GUARD, 4294967311):
        with pytest.raises(ValueError, match="below"):
            rank_batch(np.ones((2, 3, 3), dtype=np.int64), big)


def test_rref_q_guard():
    """rref eliminates over PrimeField(q): it reduces just below Q_GUARD
    and refuses q at the bound."""
    m = np.array([[2, 4, 6], [1, 1, 1]], dtype=np.int64)
    R, piv = rref(m, Q_GUARD - 1)  # 2^31 - 1, prime
    assert piv == [0, 1] and R.tolist() == [[1, 0, Q_GUARD - 2], [0, 1, 2]]
    with pytest.raises(ValueError, match="below"):
        rref(m, Q_GUARD)


def test_rank_batch_makes_no_per_matrix_rref(monkeypatch):
    spec, _ = special_situation(2, 4, 4, 2, 2, 4)
    und = spec.codeword_underlines()[:, 0]
    y = lift(spec.field, spec.codewords()[5][1][0])
    y[0, 4:] ^= 1  # one deviation; y keeps rank 4, so the stack is (4096, 4, 4)
    rng = np.random.default_rng(37)
    stacks = ((rng.integers(0, 2, (256, 4, 4)), 2), (rng.integers(0, 3, (64, 5, 7)), 3))
    calls = []
    real_rref = linalg.rref

    def counting_rref(m, q):
        calls.append(np.shape(m))
        return real_rref(m, q)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    for mats, q in stacks:
        rank_batch(mats, q)
    assert calls == []
    dists = lifted_distances(y, und, 2)
    assert calls == [(4, 8)]  # the one rref of Y
    assert dists.shape == (4096,) and dists[5] == 2


def test_subspace_equality_and_hash():
    a = Subspace(np.array([[1, 0], [0, 1]]), 2)
    b = Subspace(np.array([[0, 1], [1, 1]]), 2)  # same span over F_2
    assert a == b and hash(a) == hash(b)
    c = Subspace(np.array([[1, 0]]), 2)
    assert a != c
    assert a.dim == 2 and c.dim == 1


def test_subspace_distance_hand_examples():
    u = Subspace(np.array([[1, 0]]), 2)
    v = Subspace(np.array([[0, 1]]), 2)
    assert subspace_distance(u, u) == 0
    assert subspace_distance(u, v) == 2
    w = Subspace(np.array([[1, 0, 0], [0, 1, 0]]), 2)
    x = Subspace(np.array([[1, 0, 0]]), 2)
    assert subspace_distance(w, x) == 1
    with pytest.raises(ValueError):
        subspace_distance(u, w)


def test_distance_relations_exhaustive_f2_cubed():
    """|dim U - dim V| <= d_S <= dim U + dim V with the parity of
    dim U + dim V, symmetric, zero only on equal spaces, over all subspace
    pairs of F_2^3."""
    spaces = {}
    for m in all_matrices(3, 3, 2):
        s = Subspace(m, 2)
        spaces[s._key] = s
    spaces = list(spaces.values())
    assert len(spaces) == 16  # 1 + 7 + 7 + 1 subspaces of F_2^3
    for u in spaces:
        for v in spaces:
            ds = subspace_distance(u, v)
            assert ds == subspace_distance(v, u)
            assert abs(u.dim - v.dim) <= ds <= u.dim + v.dim
            assert (ds - u.dim - v.dim) % 2 == 0
            assert (ds == 0) == (u == v)


def test_rank_distance(f8):
    assert rank_distance(f8, (2, 1), (2, 1)) == 0
    assert rank_distance(f8, (2, 1), (0, 0)) == 2
    with pytest.raises(ValueError):
        rank_distance(f8, (1, 2), (1,))


def test_rank_distance_metric_axioms(f8):
    rng = np.random.default_rng(31)
    for _ in range(300):
        u, v, w = (tuple(int(x) for x in rng.integers(0, 8, 3)) for _ in range(3))
        duv = rank_distance(f8, u, v)
        assert duv == rank_distance(f8, v, u)
        assert (duv == 0) == (u == v)
        assert duv <= rank_distance(f8, u, w) + rank_distance(f8, w, v)


def test_extended_distances_are_sums(f8):
    u = ((2, 1), (0, 0))
    v = ((2, 1), (2, 1))
    per_shot = [rank_distance(f8, a, b) for a, b in zip(u, v)]
    assert extended_rank_distance(f8, u, v) == sum(per_shot)
    assert extended_rank_distance(f8, u, u) == 0

    us = [Subspace(lift(f8, w), 2) for w in u]
    vs = [Subspace(lift(f8, w), 2) for w in v]
    assert extended_subspace_distance(us, vs) == 2 * extended_rank_distance(f8, u, v)


def test_lifted_distance_identity_random(f8, f9):
    rng = np.random.default_rng(41)
    for field, n_len in ((f8, 3), (f9, 2)):
        q = field.base.size
        for _ in range(300):
            u = tuple(int(x) for x in rng.integers(0, field.size, n_len))
            v = tuple(int(x) for x in rng.integers(0, field.size, n_len))
            lu = Subspace(lift(field, u), q)
            lv = Subspace(lift(field, v), q)
            assert subspace_distance(lu, lv) == 2 * rank_distance(field, u, v)


def test_subspace_distance_to_lifted(f8):
    rng = np.random.default_rng(43)
    for _ in range(200):
        u = tuple(int(x) for x in rng.integers(0, 8, 3))
        y = rng.integers(0, 2, (4, 6))
        direct = subspace_distance(Subspace(lift(f8, u), 2), Subspace(y, 2))
        fast = subspace_distance_to_lifted(f8.underline(u), y, 2)
        assert direct == fast


def test_lifted_distances_stack(f8, f9):
    rng = np.random.default_rng(44)
    for field in (f8, f9):
        q = field.base.size
        words = rng.integers(0, field.size, (6, 2))
        und = field.underline(words)
        for rows in (0, 1, 3, 5):
            y = rng.integers(0, q, (rows, 2 + field.degree))
            got = lifted_distances(y, und, q)
            want = [subspace_distance(Subspace(lift(field, tuple(w)), q), Subspace(y, q))
                    for w in words]
            assert got.tolist() == want
    with pytest.raises(ValueError):
        lifted_distances(np.zeros((2, 5), dtype=np.int64), und, 3)


def test_lifted_distances_int64_bound():
    """Over q = 2^31 - 1, H U sums N products of residues near 2^62: exact
    for N = 2, a ValueError for N = 4 instead of a wrapped sum."""
    q = (1 << 31) - 1
    rng = np.random.default_rng(61)
    for _ in range(200):
        und = rng.integers(0, q, (4, 2, 3))
        lifts = [np.hstack([np.eye(2, dtype=np.int64), u]) for u in und]
        a = rng.integers(1, q, (1, 2))
        y = np.array((a.astype(object) @ lifts[0].astype(object)) % q, dtype=np.int64)
        want = [subspace_distance(Subspace(x, q), Subspace(y, q)) for x in lifts]
        assert lifted_distances(y, und, q).tolist() == want
    y4 = np.hstack([np.eye(4, dtype=np.int64), rng.integers(0, q, (4, 3))])[:1]
    with pytest.raises(ValueError, match="too large"):
        lifted_distances(y4, rng.integers(0, q, (3, 4, 3)), q)


def test_matrix_json_roundtrip():
    m = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)
    doc = matrix_to_json(m, 2)
    assert doc == {"rows": 2, "cols": 3, "q": 2, "data": [1, 0, 1, 0, 1, 1]}
    back, q = matrix_from_json(doc)
    assert q == 2 and np.array_equal(back, m)
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "q": 2, "data": [1]})


def test_field_elimination_helpers(f8):
    # G x = w solvable and unique for full-column-rank G
    rows = [(1, 0), (0, 1), (1, 1)]
    x = (3, 5)
    w = [3, 5, f8.add(3, 5)]
    assert solve_field(f8, rows, w) == x
    assert solve_field(f8, rows, [1, 1, 1]) is None  # inconsistent
    for rhs in (w[:2], w + [0]):  # one entry per row of G, no more, no less
        with pytest.raises(ValueError, match="size mismatch"):
            solve_field(f8, rows, rhs)
    r, piv = rref_field(f8, [[1, 1], [1, 1]])
    assert piv == [0]
    ker = kernel_field(f8, [[1, 1]])
    assert len(ker) == 1 and ker[0][0] == ker[0][1] != 0
