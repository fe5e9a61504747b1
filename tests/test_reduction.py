"""Reduction of received matrices and row-space-preserving reconstruction."""

import numpy as np

from rankshot.channel import ChannelConfig, apply_channel, lift, sample_channel
from rankshot.linalg import rref
from rankshot.reduction import reduce_received, reconstruct


def spans_equal(a, b, q):
    ra, pa = rref(a, q)
    rb, pb = rref(b, q)
    return pa == pb and np.array_equal(ra[: len(pa)], rb[: len(pb)])


def test_reduce_lifted_word_is_identity(f8):
    u = (3, 2, 7)
    t = reduce_received(f8, lift(f8, u))
    assert t.r == u
    assert t.mu == 0 and t.delta == 0
    assert t.L.shape == (3, 0) and t.E.shape == (0, 3)


def test_reduce_single_row_hand_example(f8):
    # one surviving row (1,0 | 0,1,0) of an N=2 lift: header pivot at 0,
    # header position 1 erased, payload row = alpha
    y = np.array([[1, 0, 0, 1, 0]], dtype=np.int64)
    t = reduce_received(f8, y)
    assert t.r == (2, 0)
    assert t.erased == (1,)
    assert t.mu == 1 and t.delta == 0
    assert t.L.tolist() == [[0], [1]]  # column 1 of (A_hat - I)


def test_reduce_injected_row(f8):
    y = np.array([
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 0],
    ], dtype=np.int64)
    t = reduce_received(f8, y)
    assert t.delta == 1
    assert t.E.tolist() == [[1, 1, 0]]
    assert t.mu == 0
    assert t.r == (0, 0, 0)


def test_reconstruct_spans_received(f8):
    rng = np.random.default_rng(77)
    for _ in range(300):
        rows = int(rng.integers(1, 6))
        y = rng.integers(0, 2, (rows, 6))
        t = reduce_received(f8, y)
        w = reconstruct(t)
        assert spans_equal(w, y, 2)


def test_reconstruct_channel_shapes(f8):
    """Shape classes from actual channel draws: full rank, rank deficient
    (erasures), noisy (deviations), and both."""
    u = (5, 1, 6)
    x = lift(f8, u)
    cases = [(0, 0), (2, 0), (0, 2), (1, 1)]
    for rho, tau in cases:
        for seed in range(200):
            cfg = ChannelConfig(rho=rho, tau=tau, n=1, seed=seed, N=3, T=6, q=2,
                                split="first")
            (y,) = apply_channel(sample_channel(cfg), (x,), 2)
            t = reduce_received(f8, y)
            assert spans_equal(reconstruct(t), y, 2)
