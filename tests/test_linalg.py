"""RREF, ranks, subspaces, and the four distances over F_q."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankshot import experiment, linalg
from rankshot.decoder import Received
from rankshot.errors import Q_GUARD
from rankshot.linalg import (
    Subspace,
    basis_distances,
    extended_rank_distance,
    extended_subspace_distance,
    kernel_field,
    matrix_from_json,
    matrix_to_json,
    rank,
    rank_batch,
    rankdef,
    rank_distance,
    received_basis,
    rref,
    rref_field,
    solve_field,
    subspace_distance,
    subspace_distance_to_lifted,
)
from rankshot.channel import lift
from rankshot.fields import PrimeField
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


def test_rref_bits_is_rref_packed():
    """rref_bits returns rref(m, 2)'s nonzero rows, packed, in pivot order,
    past 63 columns too."""
    def pack(rows):
        return [sum(int(b) << c for c, b in enumerate(row)) for row in rows]

    rng = np.random.default_rng(5)
    for _ in range(300):
        m = rng.integers(0, 2, (int(rng.integers(1, 7)), int(rng.integers(1, 70))))
        R, piv = rref(m, 2)
        assert linalg.rref_bits(pack(m)) == pack(R[: len(piv)])


def pivot_count(m, q):
    """The reference rank: the pivot count of rref_field over PrimeField(q),
    whatever the shape."""
    return len(rref_field(PrimeField(q), (np.asarray(m) % q).tolist())[1])


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
        assert got.tolist() == want == [pivot_count(m, q) for m in mats]
    # shapes beyond the F_2 table limit fall back to elimination
    big = rng.integers(0, 2, (10, 4, 5))
    assert rank_batch(big, 2).tolist() == [rank(m, 2) for m in big]


def patterns(q, rows, cols):
    """Every rows x cols matrix over F_q; base-q digit k of the index is
    entry k row-major."""
    codes = np.arange(q ** (rows * cols))[:, None] // q ** np.arange(rows * cols)
    return (codes % q).reshape(-1, rows, cols)


def test_rank_batch_all_binary_4x4():
    mats = patterns(2, 4, 4)
    assert rank_batch(mats, 2).tolist() == [pivot_count(m, 2) for m in mats]


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
    assert rank_batch(mats, q).tolist() == [pivot_count(m, q) for m in mats]
    assert [rank(m, q) for m in mats[:20]] == [pivot_count(m, q) for m in mats[:20]]


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
    shapes = {2: ((3, 3), (3, 4), (4, 3), (2, 6), (1, 12), (12, 1), (4, 4), (2, 8), (1, 16)),
              3: ((3, 3), (2, 5), (1, 10)), 5: ((2, 3),), 7: ((1, 5),)}
    for q, qshapes in shapes.items():
        for r, c in qshapes:
            want = [pivot_count(m, q) for m in patterns(q, r, c)]
            assert linalg._rank_table(q, r, c).tolist() == want


def test_f2_table_fill_never_runs_modular_ranks(monkeypatch):
    """Over F_2 the tables fill by packed XOR rows; the general modular
    fill would take tens of milliseconds for 2^16 patterns."""
    def refuse(mats, q):
        raise AssertionError("an F_2 table fill ran _modular_ranks")

    linalg._rank_table.cache_clear()
    monkeypatch.setattr(linalg, "_modular_ranks", refuse)
    for r, c in ((4, 4), (2, 8), (1, 16), (16, 1), (3, 5)):
        assert linalg._rank_table(2, r, c).size == 1 << (r * c)


def test_table_fill_holds_little_at_once():
    """A table fill ranks FILL_CHUNK patterns at a time, so its transient
    arrays stay small next to the table, whatever its size: the channel
    sampler fills tables in processes whose peak RSS is gated."""
    for q, r, c in ((2, 4, 4), (2, 1, 16), (3, 2, 5)):
        tracemalloc.start()
        try:
            table = linalg._rank_table.__wrapped__(q, r, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - table.nbytes < 768 << 10, (q, r, c, peak)
        assert np.array_equal(table, linalg._rank_table(q, r, c))


def test_as_matrix_over_f2_is_mod_2():
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    m = np.array([[lo, lo + 1, -3, -2, -1], [0, 1, 2, hi - 1, hi]], dtype=np.int64)
    m = np.vstack([m, np.random.default_rng(61).integers(lo, hi, (40, 5), endpoint=True)])
    got = linalg.as_matrix(m, 2)
    assert got.dtype == np.int64 and np.array_equal(got, np.mod(m, 2))


def test_rank_batch_on_unreduced_table_shapes():
    """Every table shape of the primes 2, 3, 5 and 7, on entries that are
    not residues: rank_batch reduces them as rank does."""
    rng = np.random.default_rng(67)
    for q in (2, 3, 5, 7):
        for r in range(1, 17):
            for c in range(1, 17):
                if q ** (r * c) > linalg.TABLE_PATTERNS:
                    break
                mats = rng.integers(-20, 20, (12, r, c))
                assert rank_batch(mats, q).tolist() == [rank(m, q) for m in mats], (q, r, c)


def test_rank_batch_refuses_what_rank_refuses(monkeypatch):
    """A q that is not prime is refused before any table is built:
    eliminating mod 4 would rank diag(2, 2) as 1 and cache the error."""
    def refuse(q, r, c):
        raise AssertionError("a rank table was built for a field that is not prime")

    monkeypatch.setattr(linalg, "_rank_table", refuse)
    for q in (0, 1, 4, 6, 9):
        mats = np.array([np.diag([2, 2]), np.diag([2, 3])])
        with pytest.raises(ValueError, match="prime"):
            rank(mats[0], q)
        with pytest.raises(ValueError, match="prime"):
            rank_batch(mats, q)


def test_rank_reads_the_table_exactly(monkeypatch):
    """rank equals rref's pivot count on every 3x3 over F_2 and F_3 and on
    every matrix of three wide or tall table shapes, read off the rank
    table with no elimination, and on shapes just past the table limit,
    which eliminate; unreduced entries rank as their residues."""
    calls = []
    real = linalg.rref_field

    def counting(field, rows):
        calls.append(len(rows))
        return real(field, rows)

    for q, (r, c) in ((2, (3, 3)), (3, (3, 3)), (2, (2, 5)), (2, (4, 3)), (3, (2, 3))):
        mats = patterns(q, r, c)
        want = [pivot_count(m, q) for m in mats]
        monkeypatch.setattr(linalg, "rref_field", counting)
        assert [rank(m, q) for m in mats] == want
        assert [rank(m - 2 * q, q) for m in mats[::97]] == want[::97]
        assert calls == []
        monkeypatch.setattr(linalg, "rref_field", real)
    rng = np.random.default_rng(53)
    # 5^9, 3^12, 7^6 and 2^17 patterns, each past TABLE_PATTERNS = 2^16
    for q, shape in ((5, (3, 3)), (3, (3, 4)), (7, (2, 3)), (2, (1, 17)), (2, (17, 1))):
        mats = np.concatenate([rng.integers(0, q, (30, *shape)),
                               rng.integers(0, q, (30, shape[0], 1))
                               @ rng.integers(0, q, (30, 1, shape[1]))])
        monkeypatch.setattr(linalg, "rref_field", counting)
        got = [rank(m, q) for m in mats]
        monkeypatch.setattr(linalg, "rref_field", real)
        assert got == [pivot_count(m, q) for m in mats] and len(calls) == len(mats)
        assert set(got) != {got[0]}
        calls.clear()
    for shape in ((0, 3), (3, 0), (0, 0)):
        assert rank(np.zeros(shape, dtype=np.int64), 3) == 0


def test_rank_refuses_q_before_reducing(monkeypatch):
    """q in {0, 1, 4} raises rank's ValueError before as_matrix reduces
    anything, so no numpy warning (a remainder by zero) comes first."""
    def refuse(m, q):
        raise AssertionError("as_matrix ran before q was checked")

    monkeypatch.setattr(linalg, "as_matrix", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (0, 1, 4):
            with pytest.raises(ValueError, match="prime"):
                rank(np.eye(3, dtype=np.int64), q)


def test_rank_batch_returns_int64_on_every_path():
    rng = np.random.default_rng(47)
    for shape, q in (((9, 4, 4), 2), ((9, 4, 5), 2), ((9, 4, 4), 3), ((0, 4, 4), 2)):
        got = rank_batch(rng.integers(0, q, shape), q)
        assert got.dtype == np.int64 and got.shape == shape[:1]


def test_rank_batch_4x4_binary_uses_the_table(monkeypatch):
    rng = np.random.default_rng(59)
    mats = rng.integers(0, 2, (256, 4, 4))
    linalg._rank_table(2, 4, 4)
    calls = []
    real_xor_ranks = linalg._xor_ranks

    def counting_xor_ranks(words):
        calls.append(words.shape)
        return real_xor_ranks(words)

    monkeypatch.setattr(linalg, "_xor_ranks", counting_xor_ranks)
    got = rank_batch(mats, 2)
    assert calls == []
    assert got.tolist() == [rank(m, 2) for m in mats]
    # q = 3 shapes with 3^(r*c) <= 2^16 read a table too, once it is filled
    mats3 = rng.integers(0, 3, (256, 3, 3))
    linalg._rank_table(3, 3, 3)
    monkeypatch.setattr(linalg, "_modular_ranks", lambda mats, q: calls.append(mats.shape))
    got3 = rank_batch(mats3, 3)
    assert calls == []
    assert got3.tolist() == [rank(m, 3) for m in mats3]


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
    dists = basis_distances(*received_basis(y, 4, 2), und, 2)
    assert calls == [(4, 8)]  # the one rref of Y
    assert dists.shape == (4096,) and dists[5] == 2


def _coordinate_distances(h, p, und, q):
    """The coordinate form of basis_distances' formula, kept as a reference:
    P - H U in int64, ranked by rank_batch."""
    return und.shape[1] + 2 * rank_batch(p - h @ und, q) - len(h)


def _shot_of_rank(rng, rows, rank, top):
    """A rows x width matrix over F_2 of the given rank whose row space
    lies in the span of top's first rank rows."""
    while True:
        y = rng.integers(0, 2, (rows, rank)) @ top[:rank] % 2
        if linalg.rank(y, 2) == rank:
            return y


def _shots(rng, und):
    """Received shots over F_2 against the lifted words of und at every
    rank 0..N+M: for each rank, with that many rows, two more, and more
    rows than N+M (one zero-row shot at rank 0).  One of each pair spans
    random rows, the other a lifted word's first rows, then random ones."""
    _, n, m = und.shape
    width = n + m
    for rank in range(width + 1):
        for rows in sorted({rank, rank + 2, width + 1}):
            lifted = np.hstack([np.eye(n, dtype=np.int64), und[rng.integers(len(und))]])
            for top in (rng.integers(0, 2, (width, width)),
                        np.vstack([lifted, rng.integers(0, 2, (m, width))])):
                if linalg.rank(top[:rank], 2) == rank:
                    yield _shot_of_rank(rng, rows, rank, top)
    yield np.zeros((0, width), dtype=np.int64)


SPECS_F2 = ("tiny2shot", "decode12", "towerspec", "preset")


def _unpacked(rows, n, width):
    """(H, P) of packed basis rows (linalg.packed_basis), split after column n."""
    m = np.array([[x >> c & 1 for c in range(width)] for x in rows],
                 dtype=np.int64).reshape(len(rows), width)
    return m[:, :n], m[:, n:]


@pytest.mark.parametrize("name", SPECS_F2)
def test_packed_distances_match_coordinate_formula(request, name):
    """Over F_2 the scores of a packed basis (_packed_distances: the
    rank-table index when r M <= 16, _xor_ranks above) and its distance
    to one word (packed_distance, as for ds_observed) equal the
    coordinate formula on the unpacked basis, at every basis rank, on
    both routes."""
    spec = request.getfixturevalue(name)
    und = spec.code.codebook_arrays()[0]
    words = spec.code._codeword_ints()
    _, n, m = und.shape
    rng = np.random.default_rng(71)
    ranks = set()
    for y in _shots(rng, und):
        rows = linalg.packed_basis(y)
        h, p = received_basis(y, n, 2)
        assert np.array_equal(np.hstack(_unpacked(rows, n, n + m)), np.hstack([h, p]))
        got = linalg._packed_distances(rows, words, m)
        assert got.dtype == np.int64
        assert got.tolist() == _coordinate_distances(h, p, und, 2).tolist()
        one = linalg.packed_distance(rows, tuple(words[:, 5].tolist()))
        assert one == got[5]
        ranks.add(len(h))
    assert ranks == set(range(n + m + 1))
    # only towerspec's (N + M) M = 8 keeps every rank on the table route
    assert {r * m <= 16 for r in ranks if r} == {True, (n + m) * m <= 16}


@pytest.mark.parametrize("name", SPECS_F2)
def test_received_scores_match_coordinate_formula(request, name, monkeypatch):
    """Received.scores ranks R_0's kept element ints with no rank_batch
    call, and each shot's scores equal the coordinate formula on its
    unpacked basis."""
    spec = request.getfixturevalue(name)
    und = spec.code.codebook_arrays()[0]
    n = spec.shot_length
    rng = np.random.default_rng(73)
    shots = list(_shots(rng, und))
    rng.shuffle(shots)
    calls = []
    real_rank_batch = linalg.rank_batch

    def counting_rank_batch(mats, q):
        calls.append(len(mats))
        return real_rank_batch(mats, q)

    monkeypatch.setattr(linalg, "rank_batch", counting_rank_batch)
    for start in range(0, len(shots) - spec.n + 1, spec.n):
        ys = Received(shots[start:start + spec.n], spec)
        scores = ys.scores
        assert calls == []
        for y, row in zip(ys, scores):
            h, p = received_basis(y, n, 2)
            assert row.tolist() == _coordinate_distances(h, p, und, 2).tolist()


@pytest.mark.parametrize("name", SPECS_F2)
def test_ds_observed_matches_coordinate_formula(request, name, monkeypatch):
    """Every packed_distance call of run_trial's ds_observed agrees with the
    coordinate formula on the unpacked basis, on the benchmark's
    rho 0..3 x tau 0..1 grid."""
    spec = request.getfixturevalue(name)
    n, width = spec.shot_length, spec.lifted_length
    calls = []

    def checked(rows, word):
        got = linalg.packed_distance(rows, word)
        h, p = _unpacked(rows, n, width)
        und = spec.field.underline(word)[None]
        assert got == _coordinate_distances(h, p, und, 2)[0]
        calls.append(len(rows))
        return got

    monkeypatch.setattr(experiment, "packed_distance", checked)
    for rho in range(4):
        for tau in range(2):
            for trial in range(3):
                experiment.run_trial(spec, rho, tau, "uniform", 79, rho * 2 + tau, trial,
                                     ("algebraic",))
    assert len(calls) == 24 * spec.n and len(set(calls)) > 1


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
            got = basis_distances(*received_basis(y, 2, q), und, q)
            want = [subspace_distance(Subspace(lift(field, tuple(w)), q), Subspace(y, q))
                    for w in words]
            assert got.tolist() == want
    with pytest.raises(ValueError):
        basis_distances(*received_basis(np.zeros((2, 5), dtype=np.int64), 2, 3), und, 3)


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
        assert basis_distances(*received_basis(y, 2, q), und, q).tolist() == want
    y4 = np.hstack([np.eye(4, dtype=np.int64), rng.integers(0, q, (4, 3))])[:1]
    with pytest.raises(ValueError, match="too large"):
        basis_distances(*received_basis(y4, 4, q), rng.integers(0, q, (3, 4, 3)), q)


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
