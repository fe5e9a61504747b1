"""Seeded trial runner: config parsing, determinism, aggregation."""

import concurrent.futures
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from rankshot.channel import ChannelConfig, apply_channel, lift_multishot, sample_channel
from rankshot.decoder import multistage_decode
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
from rankshot import decoder, experiment, linalg
from rankshot.linalg import rank_batch, received_basis, subspace_distance_to_lifted

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    # a repeated decoder or budget would run and count every trial twice
    for over, message in [
        ({"decoders": ["multistage", "multistage"]}, "decoders repeat a name"),
        ({"channel": {"rho": [1, 1], "tau": 0}}, "channel rho repeats a value"),
        ({"channel": {"rho": 0, "tau": [0, 1, 0]}}, "channel tau repeats a value"),
    ]:
        with pytest.raises(ConfigError, match=message):
            parse_experiment_config(make_doc(**over))
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
    # grid points run in the config's order, not sorted
    for doc in (make_doc(), make_doc(channel={"rho": [1, 0], "tau": [1, 0]}, trials=3)):
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


def test_simulate_tiny_pinned():
    """The simulate records of configs/simulate_tiny.json are byte-identical
    to the pinned stream: one sha256 over the CSV and the JSON of a serial
    run with timing off (3,200 records)."""
    cfg = parse_experiment_config(json.loads((CONFIGS / "simulate_tiny.json").read_text()))
    assert not cfg.timing
    recs = run_experiment(cfg)
    h = hashlib.sha256()
    h.update(records_to_csv(recs).encode())
    h.update(records_to_json(recs).encode())
    assert h.hexdigest() == (
        "16272c2d1a6f704a7bf7b2b6266ec366cd5f47b5451fe00b44419d8ed1368821"
    )


# a q = 3 code: 27^3 words in R_0 and 19,683 codewords
Q3_SPEC = {"field": {"q": 3, "M": 3}, "N": 3, "K": 3, "Ks": [3, 1, 0], "n": 3,
           "outers": [{"n": 3, "k": 1}, {"n": 3, "k": 1}]}


def test_simulate_q3_pinned():
    """The default-role simulate records of the q = 3 code are byte-identical
    to the pinned stream, so the rank rules of the channel sampler and of
    the decoders over an odd prime stay fixed: one sha256 over the CSV and
    the JSON of a serial run (64 records)."""
    cfg = parse_experiment_config({"spec": Q3_SPEC, "trials": 4, "master_seed": 3,
                                   "channel": {"rho": [0, 1, 2, 3], "tau": [0, 1]}})
    assert cfg.decoders == ("oracle", "multistage")
    recs = run_experiment(cfg)
    assert len(recs) == 64
    h = hashlib.sha256()
    h.update(records_to_csv(recs).encode())
    h.update(records_to_json(recs).encode())
    assert h.hexdigest() == (
        "14e69c45816a38d0271e787cfb71c4ac2f6240e6ed1f83ee4c23af48b8ca751a"
    )


def _trial_shots(cfg, spec, r):
    """(messages, word, ys) of record r's trial, drawn as run_trial draws them."""
    msg_rng, chan_seed = trial_seeds(cfg.master_seed, cfg.grid.index((r.rho, r.tau)), r.trial)
    messages = spec.random_messages(msg_rng)
    word = spec.encode(messages)
    q = spec.field.base.size
    draw = sample_channel(ChannelConfig(
        rho=r.rho, tau=r.tau, n=spec.n, seed=chan_seed, N=spec.shot_length,
        T=spec.lifted_length, q=q, split=cfg.split))
    return messages, word, apply_channel(draw, lift_multishot(spec.field, word), q)


def test_algebraic_records_match_a_direct_decode():
    """Each algebraic record of configs/simulate_tiny.json is what
    multistage_decode(..., "algebraic", "algebraic") makes of its trial."""
    doc = json.loads((CONFIGS / "simulate_tiny.json").read_text())
    cfg = parse_experiment_config(dict(doc, decoders=["algebraic"]))
    spec = cfg.spec()
    recs = run_experiment(cfg)
    assert len(recs) == len(cfg.grid) * cfg.trials
    for r in recs:
        messages, _, ys = _trial_shots(cfg, spec, r)
        res = multistage_decode(ys, spec, "algebraic", "algebraic")
        assert r.decoder == "algebraic"
        assert r.success == (res.ok and res.messages == [tuple(m) for m in messages])
        assert r.stage_failed == res.stage_failed
        assert r.diagnostics == res.to_json()["diagnostics"]
    # the grid reaches past the budget: trials succeed, and fail at each stage
    assert 0 < sum(r.success for r in recs) < len(recs)
    assert {r.stage_failed for r in recs} == {None, 0, 1}


@pytest.mark.parametrize("doc", [
    dict(json.loads((CONFIGS / "simulate_tiny.json").read_text()), trials=12),
    {"spec": Q3_SPEC, "trials": 3, "channel": {"rho": [0, 2], "tau": [0, 1, 2]}},
    # the 2^56 code: no decoder here enumerates, and ds_observed does not either
    {"spec": {"special": {"q": 2, "M": 7, "N": 7, "K": 3, "n": 3, "d": 6}}, "trials": 3,
     "channel": {"rho": 3, "tau": 2}, "decoders": ["algebraic"]},
], ids=["tiny", "q3", "2^56"])
def test_ds_observed_is_the_summed_lifted_distance(doc):
    """Every record's ds_observed, read off the decoders' shared bases, is
    sum_j d_S(<Y_j>, lift(x_j)) computed from scratch."""
    cfg = parse_experiment_config(doc)
    spec = cfg.spec()
    q = spec.field.base.size
    recs = run_experiment(cfg)
    assert len(recs) == len(cfg.grid) * cfg.trials * len(cfg.decoders)
    for r in recs:
        _, word, ys = _trial_shots(cfg, spec, r)
        assert r.ds_observed == sum(subspace_distance_to_lifted(spec.field.underline(w), y, q)
                                    for w, y in zip(word, ys))
    assert len({r.ds_observed for r in recs}) > 1


def test_odd_q_scores_and_ds_observed_take_the_coordinate_formula(monkeypatch):
    """On the q = 3 code every shot's basis is received_basis's (H, P),
    and each trial's Received.scores and every ds_observed term equal the
    coordinate formula N + 2 rank(P - H U) - rank(Y) on it; no packed
    F_2 elimination or distance runs."""
    cfg = parse_experiment_config({"spec": Q3_SPEC, "trials": 2, "decoders": ["oracle"],
                                   "channel": {"rho": [0, 2], "tau": [0, 1]}})
    spec = cfg.spec()
    n, q = spec.shot_length, spec.field.base.size
    und = spec.code.codebook_arrays()[0]

    def formula(h, p, words):
        return n + 2 * rank_batch(p - h @ words, q) - len(h)

    def no_packed(*args):
        raise AssertionError("an F_2 route ran on the q = 3 code")

    terms, scored = [], []
    real_oracle, real_distances = decoder.ROLES["oracle"], linalg.basis_distances

    def checked_oracle(ys, spec):
        scored.append(len(ys))
        for y, (h, p), row in zip(ys, ys.bases, ys.scores):
            rh, rp = received_basis(y, n, q)
            assert np.array_equal(h, rh) and np.array_equal(p, rp)
            assert row.tolist() == formula(h, p, und).tolist()
        return real_oracle(ys, spec)

    def checked_distances(h, p, words, q):
        got = real_distances(h, p, words, q)
        assert got.tolist() == formula(h, p, words).tolist()
        terms.append(len(h))
        return got

    for module, name in ((linalg, "rref_bits"), (linalg, "_packed_distances"),
                         (decoder, "_packed_distances"), (experiment, "packed_distance")):
        monkeypatch.setattr(module, name, no_packed)
    monkeypatch.setitem(decoder.ROLES, "oracle", checked_oracle)
    monkeypatch.setattr(experiment, "basis_distances", checked_distances)
    recs = run_experiment(cfg)
    assert len(recs) == 8 and scored == [spec.n] * 8
    assert len(terms) == 8 * spec.n and len(set(terms)) > 1
    assert len({r.ds_observed for r in recs}) > 1


def test_json_records_include_fer():
    cfg = parse_experiment_config(make_doc(trials=2))
    doc = json.loads(records_to_json(run_experiment(cfg)))
    assert set(doc) == {"records", "fer"}
    assert len(doc["records"]) == len(cfg.grid) * cfg.trials * len(cfg.decoders)
    rec = doc["records"][0]
    assert set(rec) == {"rho", "tau", "trial", "decoder", "success", "ds_observed",
                        "stage_failed", "wall_us", "rho_split", "tau_split", "diagnostics"}
    for rec in doc["records"]:
        assert len(rec["rho_split"]) == len(rec["tau_split"]) == 2
        assert (sum(rec["rho_split"]), sum(rec["tau_split"])) == (rec["rho"], rec["tau"])
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
