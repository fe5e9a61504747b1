"""Seeded Monte-Carlo trials of coded transmission over the matrix channel.

A run sweeps the cartesian grid of (rho, tau) budgets; every trial draws
fresh messages and a fresh channel, transmits, and scores each requested
decoder.  Trial randomness is a pure function of (master_seed, grid
index, trial index): the message stream uses the seed sequence spawn key
(gi, ti, 0) and the channel seed comes from (gi, ti, 1), so results are
reproducible regardless of worker scheduling.  Records are emitted in
(grid, trial, decoder) order.

The wall_us column is written as 0 unless timing is enabled, keeping
output files byte-identical across repeated runs of the same config.
"""

from __future__ import annotations

import functools
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelConfig, apply_channel, lift_multishot, sample_channel, split_from_json,
)
from .decoder import multistage_decode, oracle_decode_multishot
from .errors import ConfigError, json_int
from .linalg import subspace_distance_to_lifted
from .multilevel import MultilevelCodeSpec, spec_from_json

DECODERS = ("oracle", "multistage")
CSV_COLUMNS = ("rho", "tau", "trial", "decoder", "success", "ds_observed",
               "stage_failed", "wall_us")


@dataclass(frozen=True)
class ExperimentConfig:
    spec_doc: str          # canonical JSON of the code spec
    grid: tuple            # ((rho, tau), ...)
    split: object
    trials: int
    master_seed: int
    decoders: tuple
    timing: bool = False

    def spec(self) -> MultilevelCodeSpec:
        return _build_spec(self.spec_doc)


@functools.lru_cache(maxsize=8)
def _build_spec(spec_doc: str) -> MultilevelCodeSpec:
    return spec_from_json(json.loads(spec_doc))


@dataclass(frozen=True)
class TrialRecord:
    rho: int
    tau: int
    trial: int
    decoder: str
    success: bool
    ds_observed: int
    stage_failed: int | None
    wall_us: int
    diagnostics: dict | None = None


def parse_experiment_config(doc: dict) -> ExperimentConfig:
    try:
        spec_doc = json.dumps(doc["spec"], sort_keys=True)
        _build_spec(spec_doc)  # validate eagerly
        chan = doc["channel"]
        rhos = _budgets(chan["rho"], "channel rho")
        taus = _budgets(chan["tau"], "channel tau")
        grid = tuple((r, t) for r in rhos for t in taus)
        split = split_from_json(chan.get("split", "uniform"))
        trials = json_int(doc.get("trials", 100), "trials")
        decoders = doc.get("decoders", list(DECODERS))
        if not isinstance(decoders, list):
            raise ConfigError(f"decoders must be a list of decoder names, got {decoders!r}")
        decoders = tuple(decoders)
        if not decoders:
            raise ConfigError("decoders must name at least one decoder")
        for d in decoders:
            if d not in DECODERS:
                raise ConfigError(f"unknown decoder {d!r}")
        if trials < 1:
            raise ConfigError("trials must be >= 1")
        if not grid:
            raise ConfigError("empty (rho, tau) grid")
        master_seed = json_int(doc.get("master_seed", 0), "master_seed")
        if master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        timing = doc.get("timing", False)
        if not isinstance(timing, bool):
            raise ConfigError(f"timing must be true or false, got {timing!r}")
        return ExperimentConfig(
            spec_doc=spec_doc, grid=grid, split=split, trials=trials,
            master_seed=master_seed, decoders=decoders, timing=timing,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad experiment config: {exc}") from exc


def _budgets(value, what: str) -> list:
    """One budget or a list of them, as ints."""
    values = value if isinstance(value, (list, tuple)) else [value]
    return [json_int(v, what) for v in values]


def trial_seeds(master_seed: int, grid_index: int, trial_index: int):
    """Message RNG and channel seed for one trial (documented derivation)."""
    msg_ss = np.random.SeedSequence(master_seed, spawn_key=(grid_index, trial_index, 0))
    chan_ss = np.random.SeedSequence(master_seed, spawn_key=(grid_index, trial_index, 1))
    chan_seed = int(chan_ss.generate_state(1, dtype=np.uint64)[0])
    return np.random.default_rng(msg_ss), chan_seed


def run_trial(spec: MultilevelCodeSpec, rho: int, tau: int, split, master_seed: int,
              grid_index: int, trial_index: int, decoders, timing: bool = False):
    field = spec.field
    q = field.base.size
    msg_rng, chan_seed = trial_seeds(master_seed, grid_index, trial_index)
    messages = spec.random_messages(msg_rng)
    word = spec.encode(messages)
    xs = lift_multishot(field, word)
    cfg = ChannelConfig(rho=rho, tau=tau, n=spec.n, seed=chan_seed, N=spec.shot_length,
                        T=spec.lifted_length, q=q, split=split)
    draw = sample_channel(cfg)
    ys = apply_channel(draw, xs, q)
    ds_obs = sum(
        subspace_distance_to_lifted(field.underline(w), y, q)
        for w, y in zip(word, ys)
    )
    records = []
    for dec in decoders:
        t0 = time.perf_counter() if timing else 0.0
        if dec == "oracle":
            decoded = oracle_decode_multishot(ys, spec)
            success = decoded == word
            stage_failed = None
            diagnostics = None
        else:
            res = multistage_decode(ys, spec)
            success = res.ok and list(res.messages) == [tuple(m) for m in messages]
            stage_failed = res.stage_failed
            diagnostics = res.to_json()["diagnostics"]
        wall = int((time.perf_counter() - t0) * 1e6) if timing else 0
        records.append(TrialRecord(
            rho=rho, tau=tau, trial=trial_index, decoder=dec, success=success,
            ds_observed=ds_obs, stage_failed=stage_failed, wall_us=wall,
            diagnostics=diagnostics,
        ))
    return records


def _run_batch(cfg: ExperimentConfig, grid_index: int, lo: int, hi: int):
    spec = cfg.spec()
    rho, tau = cfg.grid[grid_index]
    out = []
    for ti in range(lo, hi):
        out.extend(run_trial(spec, rho, tau, cfg.split, cfg.master_seed,
                             grid_index, ti, cfg.decoders, cfg.timing))
    return out


def run_experiment(cfg: ExperimentConfig, workers: int = 1):
    """All trial records, ordered by (grid point, trial, decoder).

    The pool gets at most one process per CPU and per task; the records
    do not depend on the worker count.
    """
    workers = min(workers, os.cpu_count() or 1)
    tasks = []
    chunk = max(1, cfg.trials // max(1, workers * 4))
    for gi in range(len(cfg.grid)):
        for lo in range(0, cfg.trials, chunk):
            tasks.append((gi, lo, min(lo + chunk, cfg.trials)))
    workers = min(workers, len(tasks))
    if workers <= 1:
        batches = [_run_batch(cfg, *t) for t in tasks]
    else:
        # imported here: the pool machinery adds about 2 MiB resident to
        # every process that imports rankshot, and serial runs never use it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_run_batch, cfg, *t) for t in tasks]
            batches = [f.result() for f in futs]
    # tasks run in (grid point, trial) order and each trial emits its
    # decoders in order, so the batches are already in record order
    return [r for batch in batches for r in batch]


def aggregate_fer(records):
    """Per (rho, tau, decoder): trial count, failures, frame error rate."""
    agg: dict = {}
    for r in records:
        key = (r.rho, r.tau, r.decoder)
        tot, bad = agg.get(key, (0, 0))
        agg[key] = (tot + 1, bad + (0 if r.success else 1))
    rows = []
    for (rho, tau, dec), (tot, bad) in sorted(agg.items()):
        rows.append({"rho": rho, "tau": tau, "decoder": dec, "trials": tot,
                     "failures": bad, "fer": bad / tot})
    return rows


def records_to_csv(records) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for r in records:
        stage = "" if r.stage_failed is None else str(r.stage_failed)
        buf.write(f"{r.rho},{r.tau},{r.trial},{r.decoder},{int(r.success)},"
                  f"{r.ds_observed},{stage},{r.wall_us}\n")
    return buf.getvalue()


def records_to_json(records) -> str:
    doc = {
        "records": [
            {
                "rho": r.rho, "tau": r.tau, "trial": r.trial, "decoder": r.decoder,
                "success": bool(r.success), "ds_observed": r.ds_observed,
                "stage_failed": r.stage_failed, "wall_us": r.wall_us,
                "diagnostics": r.diagnostics,
            }
            for r in records
        ],
        "fer": aggregate_fer(records),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def fer_table(records) -> str:
    rows = aggregate_fer(records)
    lines = [f"{'rho':>4} {'tau':>4} {'decoder':<11} {'trials':>7} {'failures':>9} {'fer':>9}"]
    for r in rows:
        lines.append(f"{r['rho']:>4} {r['tau']:>4} {r['decoder']:<11} "
                     f"{r['trials']:>7} {r['failures']:>9} {r['fer']:>9.4f}")
    return "\n".join(lines)
