"""Seeded trial runner: config parsing, determinism, aggregation."""

import concurrent.futures
import json
import os

import numpy as np
import pytest

from rankshot.errors import ConfigError
from rankshot.experiment import (
    CSV_COLUMNS,
    aggregate_fer,
    fer_table,
    parse_experiment_config,
    records_to_csv,
    records_to_json,
    run_experiment,
    run_trial,
    trial_seeds,
)

TINY_SPEC = {
    "field": {"q": 2, "M": 3, "modulus": [1, 1, 0, 1]},
    "N": 3,
    "K": 2,
    "Ks": [2, 1, 0],
    "n": 2,
    "points": [1, 2, 4],
    "outers": [{"n": 2, "k": 1}, {"n": 2, "k": 1}],
}


def make_doc(**over):
    doc = {
        "spec": TINY_SPEC,
        "channel": {"rho": [0, 1], "tau": [0]},
        "trials": 5,
        "master_seed": 7,
        "decoders": ["oracle", "multistage"],
    }
    doc.update(over)
    return doc


def test_parse_basic():
    cfg = parse_experiment_config(make_doc())
    assert cfg.grid == ((0, 0), (0, 1), (1, 0), (1, 1)) or cfg.grid == ((0, 0), (1, 0))
    # rho=[0,1] x tau=[0] -> two points
    assert cfg.grid == ((0, 0), (1, 0))
    assert cfg.trials == 5
    assert cfg.master_seed == 7
    assert cfg.decoders == ("oracle", "multistage")
    assert cfg.split == "uniform"
    assert not cfg.timing
    assert cfg.spec().n == 2


def test_parse_scalar_budgets_and_defaults():
    cfg = parse_experiment_config({"spec": TINY_SPEC, "channel": {"rho": 1, "tau": 2}})
    assert cfg.grid == ((1, 2),)
    assert cfg.trials == 100
    assert cfg.master_seed == 0
    assert cfg.decoders == ("oracle", "multistage")


def test_parse_rejects_bad_docs():
    with pytest.raises(ConfigError):
        parse_experiment_config(make_doc(decoders=["oracle", "viterbi"]))
    with pytest.raises(ConfigError):
        parse_experiment_config(make_doc(trials=0))
    with pytest.raises(ConfigError):
        parse_experiment_config(make_doc(channel={"rho": [], "tau": [0]}))
    with pytest.raises(ConfigError):
        parse_experiment_config({"channel": {"rho": 0, "tau": 0}})  # no spec
    bad_spec = dict(TINY_SPEC, Ks=[2, 1])  # chain must end at 0
    with pytest.raises(ConfigError):
        parse_experiment_config(make_doc(spec=bad_spec))
    with pytest.raises(ConfigError, match="master_seed"):
        parse_experiment_config(make_doc(master_seed=-1))
    with pytest.raises(ConfigError, match="at least one decoder"):
        parse_experiment_config(make_doc(decoders=[]))
    # timing is a JSON bool and decoders a list of names: no truthy
    # strings, no iterating a name into letters
    for bad in ("no", 1, None):
        with pytest.raises(ConfigError, match="timing must be true or false"):
            parse_experiment_config(make_doc(timing=bad))
    for bad in ("oracle", {"oracle": 1}, None):
        with pytest.raises(ConfigError, match="decoders must be a list"):
            parse_experiment_config(make_doc(decoders=bad))
    assert parse_experiment_config(make_doc(timing=True)).timing is True
    # counts are integers: no truncation, no parsing, no iterating a string
    for over, what in [
        ({"channel": {"rho": "12", "tau": 0}}, "channel rho"),
        ({"channel": {"rho": [1.9], "tau": 0}}, "channel rho"),
        ({"channel": {"rho": 0, "tau": True}}, "channel tau"),
        ({"channel": {"rho": 1, "tau": 0, "split": [[0.9, 0], [0.1, 0]]}}, "split rho_j"),
        ({"trials": 2.7}, "trials"),
        ({"trials": "5"}, "trials"),
        ({"master_seed": 1.5}, "master_seed"),
        ({"spec": dict(TINY_SPEC, N=3.0)}, "N"),
        ({"spec": dict(TINY_SPEC, Ks=[2, 1.5, 0])}, "chain dimension"),
        ({"spec": dict(TINY_SPEC, outers=[{"n": 2, "k": 1}, {"n": 2, "k": 0.5}])},
         "outer k"),
        ({"spec": dict(TINY_SPEC, points=[1, 2, 4.2])}, "evaluation point"),
        ({"spec": dict(TINY_SPEC, field={"q": 2, "M": "3"})}, "field M"),
        ({"spec": {"special": {"q": 2, "M": 4, "N": 4, "K": 2, "n": 3, "d": 4.5}}},
         "special d"),
    ]:
        with pytest.raises(ConfigError, match=f"{what} must be an integer"):
            parse_experiment_config(make_doc(**over))


def test_trial_seeds_deterministic_and_distinct():
    rng_a, chan_a = trial_seeds(7, 0, 3)
    rng_b, chan_b = trial_seeds(7, 0, 3)
    assert chan_a == chan_b
    assert rng_a.integers(0, 1 << 30, 4).tolist() == rng_b.integers(0, 1 << 30, 4).tolist()
    _, chan_c = trial_seeds(7, 1, 3)
    _, chan_d = trial_seeds(7, 0, 4)
    assert len({chan_a, chan_c, chan_d}) == 3


def test_run_trial_zero_adversity():
    cfg = parse_experiment_config(make_doc())
    recs = run_trial(cfg.spec(), 0, 0, "uniform", 7, 0, 0, ("oracle", "multistage"))
    assert [r.decoder for r in recs] == ["oracle", "multistage"]
    for r in recs:
        assert r.success
        assert r.ds_observed == 0
        assert r.wall_us == 0
        assert r.stage_failed is None
    assert recs[1].diagnostics == {"wrong_inner_counts": [0, 0],
                                   "erasure_counts": [0, 0]}


def test_run_experiment_order_and_determinism():
    # a repeated grid point keeps its own block of trials
    for doc in (make_doc(), make_doc(channel={"rho": [1, 1], "tau": [0]}, trials=3)):
        cfg = parse_experiment_config(doc)
        recs1 = run_experiment(cfg)
        recs2 = run_experiment(cfg)
        assert recs1 == recs2
        keys = [(r.rho, r.tau, r.trial, r.decoder) for r in recs1]
        expect = [(rho, tau, t, d)
                  for (rho, tau) in cfg.grid
                  for t in range(cfg.trials)
                  for d in cfg.decoders]
        assert keys == expect


def test_run_experiment_workers_match_serial():
    cfg = parse_experiment_config(make_doc(trials=6))
    assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=2)


def test_run_experiment_caps_the_pool(monkeypatch):
    """At most one pool process per CPU and per task; an inline stand-in
    for the pool records its size and starts no process."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = parse_experiment_config(make_doc(trials=4))
    serial = run_experiment(cfg, workers=1)
    assert run_experiment(cfg, workers=100000) == serial
    assert sizes == [3]
    one_task = parse_experiment_config(make_doc(channel={"rho": 0, "tau": 0}, trials=1))
    assert len(run_experiment(one_task, workers=100000)) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_experiment(cfg, workers=8) == serial
    assert sizes == [3]  # one task, or an unknown CPU count, runs serially


def test_fer_zero_at_zero_adversity():
    cfg = parse_experiment_config(make_doc(channel={"rho": 0, "tau": 0}, trials=20))
    rows = aggregate_fer(run_experiment(cfg))
    assert len(rows) == 2
    for row in rows:
        assert row["trials"] == 20
        assert row["failures"] == 0
        assert row["fer"] == 0.0


def test_csv_layout():
    cfg = parse_experiment_config(make_doc(trials=2))
    text = records_to_csv(run_experiment(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == "rho,tau,trial,decoder,success,ds_observed,stage_failed,wall_us"
    assert len(lines) == 1 + len(cfg.grid) * cfg.trials * len(cfg.decoders)
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert first[0] == "0" and first[3] == "oracle"
    # stage_failed empty when not applicable, wall_us 0 without timing
    assert first[6] == "" and first[7] == "0"


def test_csv_byte_identical_across_runs():
    cfg = parse_experiment_config(make_doc(trials=4))
    assert records_to_csv(run_experiment(cfg)) == records_to_csv(run_experiment(cfg, workers=2))


def test_json_records_include_fer():
    cfg = parse_experiment_config(make_doc(trials=2))
    doc = json.loads(records_to_json(run_experiment(cfg)))
    assert set(doc) == {"records", "fer"}
    assert len(doc["records"]) == len(cfg.grid) * cfg.trials * len(cfg.decoders)
    rec = doc["records"][0]
    assert set(rec) == {"rho", "tau", "trial", "decoder", "success",
                        "ds_observed", "stage_failed", "wall_us", "diagnostics"}
    assert doc["fer"] == aggregate_fer(run_experiment(cfg))


def test_timing_populates_wall_us():
    cfg = parse_experiment_config(make_doc(trials=1, timing=True))
    recs = run_experiment(cfg)
    assert any(r.wall_us > 0 for r in recs)


def test_fer_table_text():
    cfg = parse_experiment_config(make_doc(trials=3))
    table = fer_table(run_experiment(cfg))
    lines = table.split("\n")
    assert lines[0].split() == ["rho", "tau", "decoder", "trials", "failures", "fer"]
    assert len(lines) == 1 + len(cfg.grid) * len(cfg.decoders)
    assert "0.0000" in lines[1]
