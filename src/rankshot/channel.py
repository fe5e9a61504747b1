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
the first shot, or given explicitly.  Draws are a pure function of the
config, including its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, json_int
from .linalg import rank


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
    """Uniform weak composition of *total* into *parts* parts, each <= cap."""
    if total > parts * cap:
        raise ConfigError(f"cannot split {total} into {parts} parts of at most {cap}")
    if parts == 1:
        return (total,)
    while True:
        bars = np.sort(rng.choice(total + parts - 1, size=parts - 1, replace=False))
        out = []
        prev = -1
        for b in list(bars) + [total + parts - 1]:
            out.append(int(b) - prev - 1)
            prev = int(b)
        if max(out) <= cap:
            return tuple(out)


def _random_full_rank(rng: np.random.Generator, rows: int, cols: int, q: int) -> np.ndarray:
    target = min(rows, cols)
    if target == 0:
        return np.zeros((rows, cols), dtype=np.int64)
    while True:
        m = rng.integers(0, q, size=(rows, cols), dtype=np.int64)
        if rank(m, q) == target:
            return m


def _split_budgets(cfg: ChannelConfig, rng: np.random.Generator):
    cap = cfg.N
    if isinstance(cfg.split, str):
        if cfg.split == "uniform":
            rho_split = _random_composition(rng, cfg.rho, cfg.n, cap)
            tau_split = _random_composition(rng, cfg.tau, cfg.n, cap)
        elif cfg.split == "first":
            if cfg.rho > cap or cfg.tau > cap:
                raise ConfigError("first-shot split exceeds the per-shot cap")
            rho_split = (cfg.rho,) + (0,) * (cfg.n - 1)
            tau_split = (cfg.tau,) + (0,) * (cfg.n - 1)
        else:
            raise ConfigError(f"unknown split mode {cfg.split!r}")
    else:
        pairs = tuple(cfg.split)
        if len(pairs) != cfg.n:
            raise ConfigError("custom split needs one (rho_j, tau_j) pair per shot")
        rho_split = tuple(int(p[0]) for p in pairs)
        tau_split = tuple(int(p[1]) for p in pairs)
        if sum(rho_split) != cfg.rho or sum(tau_split) != cfg.tau:
            raise ConfigError("custom split does not sum to the configured budgets")
        if any(r < 0 or r > cap for r in rho_split) or any(
            t < 0 or t > cap for t in tau_split
        ):
            raise ConfigError("custom split entry outside [0, N]")
    return rho_split, tau_split


def sample_channel(cfg: ChannelConfig) -> ChannelDraw:
    """Draw per-shot transfer and noise matrices with exact ranks."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    rho_split, tau_split = _split_budgets(cfg, rng)
    As, Zs = [], []
    for rho_j, tau_j in zip(rho_split, tau_split):
        inner = cfg.N - rho_j
        b = _random_full_rank(rng, cfg.N, inner, cfg.q)
        c = _random_full_rank(rng, inner, cfg.N, cfg.q)
        As.append((b @ c) % cfg.q)
        f = _random_full_rank(rng, cfg.N, tau_j, cfg.q)
        h = _random_full_rank(rng, tau_j, cfg.T, cfg.q)
        Zs.append((f @ h) % cfg.q)
    return ChannelDraw(As=tuple(As), Zs=tuple(Zs), rho_split=rho_split, tau_split=tau_split)


def apply_channel(draw: ChannelDraw, Xs, q: int) -> tuple:
    """Y_j = A_j X_j + Z_j over F_q, one output matrix per shot."""
    if len(Xs) != len(draw.As):
        raise ValueError("shot count mismatch")
    out = []
    for a, x, z in zip(draw.As, Xs, draw.Zs):
        out.append((a @ np.asarray(x, dtype=np.int64) + z) % q)
    return tuple(out)
