"""Lifting to the matrix channel and adversity-budgeted channel sampling.

A rank word u lifts to X = [I | underline(u)], an N x (N+M) matrix whose
row space determines u uniquely.  The channel acts per shot as
Y_j = A_j X_j + Z_j over F_q, with total budgets
sum_j rankdef(A_j) <= rho and sum_j rank(Z_j) <= tau.

sample_channel draws transfer and noise matrices with exactly the
requested per-shot ranks: A_j = B C with B uniform N x (N - rho_j) of
full column rank and C uniform full row rank (rejection sampled), and
Z_j = F H likewise with inner dimension tau_j.  Budget splits across
shots are uniform over weak compositions by default, may be forced onto
the first shot, or given explicitly as one (rho_j, tau_j) pair per shot;
ChannelConfig.validate checks all three without drawing.  Draws are a
pure function of the config, including its seed.  Every entry of B, C,
F and H, rejected attempts included, comes in order off one buffered
stream of the generator, the values one rng.integers call per attempt
reads; a full-rank test is one rank-table lookup on small shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, json_int
from .linalg import as_matrix, entries_rank


def lift(field, word) -> np.ndarray:
    """[I | underline(word)] over the base field."""
    n = len(word)
    return np.hstack([np.eye(n, dtype=np.int64), field.underline(word)])


def lift_multishot(field, words) -> tuple:
    return tuple(lift(field, w) for w in words)


@dataclass(frozen=True)
class ChannelConfig:
    rho: int
    tau: int
    n: int
    seed: int
    N: int
    T: int
    q: int
    split: object = "uniform"  # "uniform" | "first" | sequence of (rho_j, tau_j)

    def validate(self):
        if self.n < 1 or self.N < 1 or self.T <= self.N:
            raise ConfigError("bad channel dimensions")
        if self.rho < 0 or self.tau < 0:
            raise ConfigError("adversity budgets must be nonnegative")
        if self.rho > self.n * self.N:
            raise ConfigError(f"rho budget {self.rho} exceeds n*N = {self.n * self.N}")
        if self.tau > self.n * self.N:
            raise ConfigError(f"tau budget {self.tau} exceeds n*N = {self.n * self.N}")
        if isinstance(self.split, str):
            if self.split not in ("uniform", "first"):
                raise ConfigError(f"unknown split mode {self.split!r}")
            if self.split == "first" and max(self.rho, self.tau) > self.N:
                raise ConfigError("first-shot split exceeds the per-shot cap")
            return
        if len(self.split) != self.n:
            raise ConfigError("custom split needs one (rho_j, tau_j) pair per shot")
        rho_split, tau_split = zip(*self.split)
        if sum(rho_split) != self.rho or sum(tau_split) != self.tau:
            raise ConfigError("custom split does not sum to the configured budgets")
        if not all(0 <= b <= self.N for b in rho_split + tau_split):
            raise ConfigError("custom split entry outside [0, N]")

    def to_json(self) -> dict:
        split = self.split
        if not isinstance(split, str):
            split = [list(p) for p in split]
        return {"rho": self.rho, "tau": self.tau, "n": self.n, "seed": self.seed,
                "split": split}


def split_from_json(split):
    """A split mode name as is, or a per-shot list as (rho_j, tau_j) int pairs."""
    if isinstance(split, str):
        return split
    return tuple((json_int(a, "split rho_j"), json_int(b, "split tau_j")) for a, b in split)


def config_from_json(doc: dict, N: int, T: int, q: int) -> ChannelConfig:
    return ChannelConfig(
        rho=json_int(doc["rho"], "rho"), tau=json_int(doc["tau"], "tau"),
        n=json_int(doc["n"], "n"), seed=json_int(doc.get("seed", 0), "seed"),
        N=N, T=T, q=q, split=split_from_json(doc.get("split", "uniform")),
    )


@dataclass(frozen=True)
class ChannelDraw:
    As: tuple
    Zs: tuple
    rho_split: tuple
    tau_split: tuple


def _random_composition(rng: np.random.Generator, total: int, parts: int, cap: int) -> tuple:
    """Uniform weak composition of *total* into *parts* parts, each <= cap.

    The caller guarantees total <= parts * cap (ChannelConfig.validate).
    """
    if parts == 1:
        return (total,)
    while True:
        bars = np.sort(rng.choice(total + parts - 1, size=parts - 1, replace=False)).tolist()
        out = []
        prev = -1
        for b in bars + [total + parts - 1]:
            out.append(b - prev - 1)
            prev = b
        if max(out) <= cap:
            return tuple(out)


def _random_full_rank(rng, buf: list, q: int, rows: int, cols: int) -> np.ndarray:
    """Uniform full-rank rows x cols matrix: the first attempt, of the next
    n = rows*cols entries of the stream (*buf* holds those drawn, unread), of
    rank min(rows, cols).  A short *buf* draws max(n - len(buf), 128) more, so
    it never holds n + 128.  numpy draws an int64 in [0, q), q - 1 < 2^32,
    from 32-bit outputs with no per-call buffer, so chunks equal one draw."""
    target, n = min(rows, cols), rows * cols
    while True:
        if len(buf) < n:
            buf += rng.integers(0, q, size=max(n - len(buf), 128), dtype=np.int64).tolist()
        flat = buf[:n]
        del buf[:n]
        if entries_rank(flat, q, rows, cols) == target:
            return np.array(flat, dtype=np.int64).reshape(rows, cols)


def _random_product(rng, buf: list, q: int, rows: int, inner: int, cols: int) -> np.ndarray:
    """B C for uniform full-rank B (rows x inner) and C (inner x cols), so of
    rank inner; the zero matrix, with no draw, when inner is 0."""
    if inner == 0:
        return np.zeros((rows, cols), dtype=np.int64)
    b = _random_full_rank(rng, buf, q, rows, inner)
    return as_matrix(b @ _random_full_rank(rng, buf, q, inner, cols), q)


def _split_budgets(cfg: ChannelConfig, rng: np.random.Generator):
    """Per-shot (rho_j) and (tau_j) of a validated config."""
    if cfg.split == "uniform":
        return (_random_composition(rng, cfg.rho, cfg.n, cfg.N),
                _random_composition(rng, cfg.tau, cfg.n, cfg.N))
    if cfg.split == "first":
        return (cfg.rho,) + (0,) * (cfg.n - 1), (cfg.tau,) + (0,) * (cfg.n - 1)
    return tuple(int(r) for r, _ in cfg.split), tuple(int(t) for _, t in cfg.split)


def sample_channel(cfg: ChannelConfig) -> ChannelDraw:
    """Draw per-shot transfer and noise matrices with exact ranks."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    rho_split, tau_split = _split_budgets(cfg, rng)
    buf = []  # one stream of entries for every matrix of the draw
    As, Zs = [], []
    for rho_j, tau_j in zip(rho_split, tau_split):
        As.append(_random_product(rng, buf, cfg.q, cfg.N, cfg.N - rho_j, cfg.N))
        Zs.append(_random_product(rng, buf, cfg.q, cfg.N, tau_j, cfg.T))
    return ChannelDraw(As=tuple(As), Zs=tuple(Zs), rho_split=rho_split, tau_split=tau_split)


def apply_channel(draw: ChannelDraw, Xs, q: int) -> tuple:
    """Y_j = A_j X_j + Z_j over F_q, one output matrix per shot."""
    if len(Xs) != len(draw.As):
        raise ValueError("shot count mismatch")
    out = []
    for a, x, z in zip(draw.As, Xs, draw.Zs):
        out.append(as_matrix(a @ np.asarray(x, dtype=np.int64) + z, q))
    return tuple(out)
