"""Reduction of received matrices and row-space-preserving reconstruction."""

import itertools

import numpy as np
import pytest

from rankshot.channel import ChannelConfig, apply_channel, lift, sample_channel
from rankshot.fields import ExtensionField, PrimeField
from rankshot.linalg import packed_basis, received_basis, rref
from rankshot.reduction import rank_word, received_word, reduce_received, reconstruct


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


def rule(y, n, q):
    return rank_word(*received_basis(y, n, q), q)


def test_received_word_every_binary_3x5():
    """The packed F_2 basis is received_basis's RREF rows, packed, and the
    rank word read off it equals rank_word on the RREF basis, for every
    0/1 matrix of shape 3 x 5, at every header width N = 1..4."""
    for bits in itertools.product((0, 1), repeat=15):
        y = np.array(bits, dtype=np.int64).reshape(3, 5)
        basis = packed_basis(y)
        for n in range(1, 5):
            h, p = received_basis(y, n, 2)
            assert basis == [sum(b << c for c, b in enumerate(row))
                             for row in np.hstack([h, p]).tolist()], (bits, n)
            assert received_word(basis, n, 2) == rule(y, n, 2), (bits, n)


def exact_rule(y, n):
    """rank_word over F_2 with each payload summed bit by bit as a Python int."""
    h, p = received_basis(y, n, 2)
    pivots, _ = rank_word(h, p, 2)
    word = [0] * n
    for k, row in zip(pivots, p.tolist()):
        word[k] = sum(b << t for t, b in enumerate(row))
    return pivots, tuple(word)


@pytest.mark.parametrize("cols", range(61, 67))
def test_received_word_wide_binary_rows(cols):
    """Rows of 61 to 66 columns: bit 63 and beyond are packed exactly,
    never as a sign bit, by the packed reader and by rank_word alike."""
    rng = np.random.default_rng(cols)
    for _ in range(40):
        y = rng.integers(0, 2, (int(rng.integers(1, 6)), cols))
        y[:, 60:] |= rng.integers(0, 2, (y.shape[0], cols - 60)) | (rng.random() < 0.5)
        for n in range(1, cols):
            got = received_word(packed_basis(y), n, 2)
            assert got == exact_rule(y, n), (cols, n)
            assert got == rule(y, n, 2), (cols, n)


def test_reduce_received_reads_a_64_bit_payload_exactly():
    """A payload of 64 binary columns is read as its exact element int,
    2^64 - 1 for all ones, not wrapped into int64."""
    y = np.ones((1, 65), dtype=np.int64)
    assert rank_word(*received_basis(y, 1, 2), 2) == ([0], (2 ** 64 - 1,))
    assert reduce_received(ExtensionField(PrimeField(2), degree=64), y).r == (2 ** 64 - 1,)


def test_received_word_odd_q_takes_the_rule():
    rng = np.random.default_rng(31)
    for _ in range(200):
        y = rng.integers(0, 3, (int(rng.integers(1, 5)), 6))
        for n in range(1, 6):
            assert received_word(received_basis(y, n, 3), n, 3) == rule(y, n, 3)

