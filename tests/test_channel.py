"""Lifting and the budgeted multiplicative-additive matrix channel."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import rankshot.linalg
from rankshot.channel import (
    ChannelConfig,
    _split_budgets,
    apply_channel,
    config_from_json,
    lift,
    lift_multishot,
    sample_channel,
)
from rankshot.errors import ConfigError
from rankshot.linalg import TABLE_PATTERNS, Subspace, as_matrix, rank, rankdef, subspace_distance


def test_lift_hand_example(f8):
    x = lift(f8, (2, 1))
    assert x.tolist() == [[1, 0, 0, 1, 0], [0, 1, 1, 0, 0]]
    z = lift(f8, (0, 0, 0))
    assert np.array_equal(z[:, :3], np.eye(3)) and not z[:, 3:].any()


def test_lift_always_full_rank(f8):
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = tuple(int(x) for x in rng.integers(0, 8, 3))
        assert rank(lift(f8, u), 2) == 3


def test_lift_multishot_componentwise(f8):
    word = ((1, 2, 3), (4, 5, 6))
    xs = lift_multishot(f8, word)
    assert len(xs) == 2
    for x, u in zip(xs, word):
        assert np.array_equal(x, lift(f8, u))


def test_config_validation():
    ChannelConfig(rho=2, tau=1, n=2, seed=0, N=3, T=6, q=2).validate()
    with pytest.raises(ConfigError):
        ChannelConfig(rho=-1, tau=0, n=2, seed=0, N=3, T=6, q=2).validate()
    with pytest.raises(ConfigError):
        ChannelConfig(rho=7, tau=0, n=2, seed=0, N=3, T=6, q=2).validate()
    with pytest.raises(ConfigError):
        ChannelConfig(rho=0, tau=0, n=0, seed=0, N=3, T=6, q=2).validate()
    with pytest.raises(ConfigError, match=r"tau budget 7 exceeds n\*N = 6"):
        ChannelConfig(rho=0, tau=7, n=2, seed=0, N=3, T=6, q=2).validate()
    # each split sums to its budget, but one entry leaves [0, N]
    for split in (((4, 0), (0, 0)), ((-1, 0), (3, 0)), ((0, 4), (0, -1))):
        with pytest.raises(ConfigError, match=r"custom split entry outside \[0, N\]"):
            ChannelConfig(rho=sum(r for r, _ in split), tau=sum(t for _, t in split), n=2,
                          seed=0, N=3, T=6, q=2, split=split).validate()


def test_zero_budget_draw(f8):
    cfg = ChannelConfig(rho=0, tau=0, n=3, seed=5, N=3, T=6, q=2)
    draw = sample_channel(cfg)
    for a, z in zip(draw.As, draw.Zs):
        assert rankdef(a, 2) == 0
        assert not z.any()


def test_budgets_realized_exactly():
    for seed in range(300):
        cfg = ChannelConfig(rho=2, tau=3, n=3, seed=seed, N=3, T=6, q=2)
        draw = sample_channel(cfg)
        assert sum(rankdef(a, 2) for a in draw.As) == 2
        assert sum(rank(z, 2) for z in draw.Zs) == 3
        assert draw.rho_split == tuple(rankdef(a, 2) for a in draw.As)
        assert draw.tau_split == tuple(rank(z, 2) for z in draw.Zs)


def test_split_first():
    cfg = ChannelConfig(rho=2, tau=1, n=3, seed=9, N=3, T=6, q=2, split="first")
    draw = sample_channel(cfg)
    assert draw.rho_split == (2, 0, 0)
    assert draw.tau_split == (1, 0, 0)


def test_split_custom():
    cfg = ChannelConfig(rho=2, tau=2, n=2, seed=9, N=3, T=6, q=2,
                        split=((1, 0), (1, 2)))
    draw = sample_channel(cfg)
    assert draw.rho_split == (1, 1)
    assert draw.tau_split == (0, 2)


def test_split_custom_must_match_budgets():
    cfg = ChannelConfig(rho=2, tau=0, n=2, seed=9, N=3, T=6, q=2,
                        split=((1, 0), (0, 0)))
    with pytest.raises(ConfigError):
        sample_channel(cfg)


def test_split_uniform_respects_per_shot_cap():
    # rho = 5 over 2 shots of N=3 forces at least 2 everywhere
    for seed in range(100):
        cfg = ChannelConfig(rho=5, tau=0, n=2, seed=seed, N=3, T=6, q=2)
        draw = sample_channel(cfg)
        assert all(r <= 3 for r in draw.rho_split)
        assert sum(draw.rho_split) == 5


def test_draw_deterministic():
    cfg = ChannelConfig(rho=1, tau=2, n=2, seed=1234, N=3, T=6, q=2)
    d1 = sample_channel(cfg)
    d2 = sample_channel(cfg)
    for a, b in zip(d1.As + d1.Zs, d2.As + d2.Zs):
        assert np.array_equal(a, b)


def test_channel_stream_pinned():
    """The sampler's draws are byte-identical to the pinned stream.

    One sha256 over the shapes and int64 bytes of every A_j and Z_j and
    the realized splits, for q in {2, 3, 5}, three (N, T) shapes, a
    rho/tau grid reaching the per-shot cap, both split modes and seeds
    0-5.  A sampler speed-up must read the same values of the generator's
    stream, in the same order, so it keeps this digest.
    """
    h = hashlib.sha256()
    for q in (2, 3, 5):
        for N, T in ((3, 6), (4, 8), (2, 5)):
            for rho in (0, 1, N):
                for tau in (0, 1, N):
                    for split in ("uniform", "first"):
                        for seed in range(6):
                            draw = sample_channel(ChannelConfig(
                                rho=rho, tau=tau, n=2, seed=seed, N=N, T=T, q=q,
                                split=split))
                            for m in draw.As + draw.Zs:
                                h.update(repr(m.shape).encode())
                                h.update(np.ascontiguousarray(m, dtype="<i8").tobytes())
                            h.update(repr((draw.rho_split, draw.tau_split)).encode())
    assert h.hexdigest() == (
        "e8dc178c5bc2dc77be745d09e29148ecc5255cf234824f539b51d6c4ccc20062"
    )


@pytest.mark.parametrize("q", [2, 3, 5, 7, 2**31 - 1])
def test_int64_draws_concatenate(q):
    """The numpy property the sampler's buffered stream rests on: bounded
    int64 draws with q - 1 < 2^32 take 32-bit outputs of the bit generator
    with no per-call buffer, so chunked Generator.integers(0, q, size=...,
    dtype=np.int64) draws equal one draw of their total size."""
    sizes = (9, 3, 1, 18, 5, 64, 128, 1)
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        rng.choice(5, size=2, replace=False)  # the split draws come first
        chunks = np.concatenate([rng.integers(0, q, size=k, dtype=np.int64) for k in sizes])
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        rng.choice(5, size=2, replace=False)
        whole = rng.integers(0, q, size=sum(sizes), dtype=np.int64)
        assert np.array_equal(chunks, whole), (
            f"numpy no longer draws chunked int64 integers below q={q} as one draw "
            "of their total size; the channel sampler's buffered stream relies on it")


def _reference_sample_channel(cfg):
    """The sampler with one rng.integers call and one rank per attempt."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    rho_split, tau_split = _split_budgets(cfg, rng)

    def full_rank(rows, cols):
        if min(rows, cols) == 0:
            return np.zeros((rows, cols), dtype=np.int64)
        while True:
            m = rng.integers(0, cfg.q, size=(rows, cols), dtype=np.int64)
            if rank(m, cfg.q) == min(rows, cols):
                return m

    As, Zs = [], []
    for rho_j, tau_j in zip(rho_split, tau_split):
        b = full_rank(cfg.N, cfg.N - rho_j)
        c = full_rank(cfg.N - rho_j, cfg.N)
        As.append(as_matrix(b @ c, cfg.q))
        f = full_rank(cfg.N, tau_j)
        h = full_rank(tau_j, cfg.T)
        Zs.append(as_matrix(f @ h, cfg.q))
    return As, Zs, rho_split, tau_split


@pytest.mark.parametrize("kw", [
    dict(rho=3, tau=2, n=3, N=3, T=6, q=2),
    dict(rho=2, tau=3, n=3, N=3, T=7, q=3, split=((1, 2), (0, 0), (1, 1))),
    dict(rho=3, tau=3, n=2, N=3, T=6, q=2, split="first"),
    dict(rho=2, tau=2, n=2, N=3, T=5, q=3),
    dict(rho=1, tau=3, n=2, N=4, T=8, q=2, split=((1, 3), (0, 0))),
])
def test_sampler_matches_reference_loop(kw, monkeypatch):
    """Byte-equal draws on cases the pinned digest skips: n = 3, a custom
    split, "first" at the per-shot cap, q = 3, and H of 3 x 8 over F_2,
    2^24 patterns, past the rank table, where rank counts pivots."""
    fallbacks = []  # rref_field calls: full-rank tests past the rank table
    rref_field = rankshot.linalg.rref_field
    monkeypatch.setattr(rankshot.linalg, "rref_field",
                        lambda *a: fallbacks.append(a) or rref_field(*a))
    sampler_fallbacks = 0
    for seed in range(25):
        cfg = ChannelConfig(seed=seed, **kw)
        fallbacks.clear()
        draw = sample_channel(cfg)
        sampler_fallbacks += len(fallbacks)
        As, Zs, rho_split, tau_split = _reference_sample_channel(cfg)
        assert (draw.rho_split, draw.tau_split) == (rho_split, tau_split)
        for got, want in zip(draw.As + draw.Zs, As + Zs):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    if kw["T"] == 8:
        assert 2 ** 24 > TABLE_PATTERNS and sampler_fallbacks > 0


def test_sampler_buffer_bounded():
    """A draw's transient memory stays within a few of its matrices' bytes:
    the entry buffer holds under n + 128 entries for an n-entry matrix,
    whatever the attempts, and goes with the call."""
    cfg = ChannelConfig(rho=1, tau=3, n=2, seed=11, N=3, T=4096, q=2)
    sample_channel(cfg)  # rank tables and caches filled outside the trace
    tracemalloc.start()
    try:
        draw = sample_channel(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix_bytes = sum(m.nbytes for m in draw.As + draw.Zs)
    assert max(draw.tau_split) == 3  # one H of 3 x 4096
    assert peak <= 3 * matrix_bytes, (peak, matrix_bytes)


def test_apply_channel_identity(f8):
    xs = lift_multishot(f8, ((1, 2, 3), (4, 5, 6)))
    cfg = ChannelConfig(rho=0, tau=0, n=2, seed=3, N=3, T=6, q=2)
    draw = sample_channel(cfg)
    ys = apply_channel(draw, xs, 2)
    for x, y, a in zip(xs, ys, draw.As):
        assert np.array_equal(y, (a @ x) % 2)
        # invertible A preserves the row space
        assert subspace_distance(Subspace(x, 2), Subspace(y, 2)) == 0


def test_per_shot_distance_bound(f8):
    """d_S(<X_j>, <Y_j>) <= rankdef(A_j) + 2 rank(Z_j) on sampled draws."""
    rng = np.random.default_rng(21)
    for seed in range(200):
        word = tuple(tuple(int(v) for v in rng.integers(0, 8, 3)) for _ in range(2))
        xs = lift_multishot(f8, word)
        cfg = ChannelConfig(rho=2, tau=2, n=2, seed=seed, N=3, T=6, q=2)
        draw = sample_channel(cfg)
        ys = apply_channel(draw, xs, 2)
        for x, y, rj, tj in zip(xs, ys, draw.rho_split, draw.tau_split):
            ds = subspace_distance(Subspace(x, 2), Subspace(y, 2))
            assert ds <= rj + 2 * tj


def test_config_json_roundtrip():
    cfg = ChannelConfig(rho=1, tau=2, n=2, seed=42, N=3, T=6, q=2, split="first")
    doc = cfg.to_json()
    assert doc == {"rho": 1, "tau": 2, "n": 2, "seed": 42, "split": "first"}
    again = config_from_json(doc, N=3, T=6, q=2)
    assert again == cfg

    custom = ChannelConfig(rho=1, tau=0, n=2, seed=0, N=3, T=6, q=2,
                           split=((1, 0), (0, 0)))
    assert config_from_json(custom.to_json(), N=3, T=6, q=2) == custom
