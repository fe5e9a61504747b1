"""End-to-end runs of the command-line entry point."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankshot import errors
from rankshot.cli import main
from rankshot.linalg import extended_rank_distance, matrix_to_json
from rankshot.multilevel import MultilevelCodeSpec, spec_from_json

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


@pytest.fixture
def spec_path(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(TINY_SPEC))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params(spec_path, capsys):
    code, out, _ = run(capsys, ["params", "--config", spec_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 2 and doc["M"] == 3 and doc["N"] == 3 and doc["n"] == 2
    assert doc["T"] == 6
    assert doc["logq_cardinality"] == 6
    assert doc["rate"] == "1/6"
    assert doc["design_rank_distance"] == 4
    assert doc["design_subspace_distance"] == 8
    assert doc["correctable_budget"] == 3
    assert len(doc["levels"]) == 2
    assert doc["levels"][0] == {
        "K_i": 2, "K_next": 1, "delta_k": 1, "inner_d_R": 2,
        "children": 8, "outer_n": 2, "outer_k": 1, "outer_d_H": 2,
    }


def test_params_large_q_modulus_exits_2_without_enumerating(tmp_path, capsys):
    # x^2 + 7 over F_(2^31 - 1) factors (-7 is a square); the check must
    # not materialise the 2^31 base elements on the way to saying so
    doc = {"field": {"q": 2147483647, "M": 2, "modulus": [7, 0, 1]},
           "N": 2, "K": 1, "Ks": [1, 0], "n": 2, "outers": [{"n": 2, "k": 1}]}
    p = tmp_path / "big_q.json"
    p.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["params", "--config", str(p)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "reducible" in err and "Traceback" not in err
    assert peak < 1 << 20
    # an irreducible modulus builds the field, whose q^4 elements leave int64
    doc["field"] = {"q": 2147483647, "M": 4}
    doc.update(N=4, K=2, Ks=[2, 1, 0], outers=[{"n": 2, "k": 1}, {"n": 2, "k": 1}])
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["params", "--config", str(p)])
    assert code == 2 and out == ""
    assert "leaves int64" in err


def test_params_to_file(spec_path, tmp_path, capsys):
    out_path = tmp_path / "params.json"
    code, out, _ = run(capsys, ["params", "--config", spec_path,
                                "--out", str(out_path)])
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["correctable_budget"] == 3


def pairwise_min_distance(doc):
    """Least extended rank distance over all codeword pairs, pair by pair."""
    spec = spec_from_json(doc)
    words = [w for _, w in spec.codewords()]
    return min(
        extended_rank_distance(spec.field, u, v)
        for i, u in enumerate(words) for v in words[i + 1:]
    )


def test_mindist(tmp_path, capsys):
    # the tiny code, its width-2 single-level variant and a small q = 3 code
    cases = [
        (TINY_SPEC, 64, 4),
        (dict(TINY_SPEC, Ks=[2, 0], outers=[{"n": 2, "k": 1}]), 64, 4),
        ({"field": {"q": 3, "M": 2}, "N": 2, "K": 2, "Ks": [2, 1, 0], "n": 2,
          "outers": [{"n": 2, "k": 1}, {"n": 2, "k": 1}]}, 81, 2),
    ]
    for doc, size, design in cases:
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["mindist", "--config", str(p)])
        assert code == 0
        rep = json.loads(out)
        assert rep["codewords"] == size
        assert rep["pairs"] == size * (size - 1) // 2
        assert rep["design_distance"] == design
        assert rep["min_distance"] == pairwise_min_distance(doc) >= design
        assert rep["meets_design"] is True


def test_mindist_beyond_4096_codewords(tmp_path, capsys):
    # 3^8 = 6561 codewords: only the enumeration guard bounds the scan
    doc = {"field": {"q": 3, "M": 2}, "N": 2, "K": 2, "Ks": [2, 1, 0], "n": 4,
           "outers": [{"n": 4, "k": 2}, {"n": 4, "k": 2}]}
    p = tmp_path / "q3.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["mindist", "--config", str(p)])
    assert code == 0, err
    rep = json.loads(out)
    assert rep["codewords"] == 6561 and rep["pairs"] == 6561 * 6560 // 2
    # a weight-3 level-0 outer word times a rank-1 coset column reaches it
    assert rep["min_distance"] == rep["design_distance"] == 3
    assert rep["meets_design"] is True


def test_mindist_single_codeword(tmp_path, capsys):
    doc = dict(TINY_SPEC, outers=[{"n": 2, "k": 0}, {"n": 2, "k": 0}])
    p = tmp_path / "degenerate.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["mindist", "--config", str(p)])
    assert code == 0
    rep = json.loads(out)
    assert rep["codewords"] == 1 and rep["pairs"] == 0 and rep["note"] == "no pairs"


def test_mindist_guard(tmp_path, capsys):
    big = {"special": {"q": 2, "M": 4, "N": 4, "K": 2, "n": 3, "d": 4}}
    p = tmp_path / "big.json"
    p.write_text(json.dumps(big))
    code, out, err = run(capsys, ["mindist", "--config", str(p)])
    assert code == 3
    assert "refused" in err
    assert str(errors.STACK_GUARD_BYTES) in err


def test_pipeline_encode_channel_decode(spec_path, tmp_path, capsys):
    msg_p = tmp_path / "msg.json"
    msg_p.write_text(json.dumps({"messages": [[3], [5]]}))
    enc_p = tmp_path / "encoded.json"
    code, _, _ = run(capsys, ["encode", "--config", spec_path,
                              "--in", str(msg_p), "--out", str(enc_p)])
    assert code == 0
    enc = json.loads(enc_p.read_text())
    assert enc["messages"] == [[3], [5]]
    assert len(enc["codeword"]) == 2 and len(enc["codeword"][0]) == 3
    assert len(enc["lifted"]) == 2

    chan_cfg = tmp_path / "chan.json"
    chan_cfg.write_text(json.dumps({"rho": 1, "tau": 1, "n": 2, "seed": 99}))
    rx_p = tmp_path / "received.json"
    code, _, _ = run(capsys, ["channel", "--config", str(chan_cfg),
                              "--in", str(enc_p), "--out", str(rx_p)])
    assert code == 0
    rx = json.loads(rx_p.read_text())
    assert sum(rx["rho_split"]) == 1 and sum(rx["tau_split"]) == 1
    assert len(rx["received"]) == 2

    code, out, _ = run(capsys, ["decode", "--config", spec_path,
                                "--in", str(rx_p), "--decoder", "oracle"])
    assert code == 0
    dec = json.loads(out)
    assert dec["decoder"] == "oracle"
    assert dec["codeword"] == enc["codeword"]  # within the oracle budget

    code, out, _ = run(capsys, ["decode", "--config", spec_path,
                                "--in", str(rx_p)])
    assert code == 0
    ms = json.loads(out)
    assert set(ms) == {"ok", "stage_failed", "messages", "diagnostics"}
    assert set(ms["diagnostics"]) == {"wrong_inner_counts", "erasure_counts"}


def test_decode_clean_multistage(spec_path, tmp_path, capsys):
    msg_p = tmp_path / "msg.json"
    msg_p.write_text(json.dumps({"messages": [[2], [7]]}))
    enc_p = tmp_path / "encoded.json"
    run(capsys, ["encode", "--config", spec_path, "--in", str(msg_p),
                 "--out", str(enc_p)])
    # the encoder's lifted matrices double as a clean receive document
    rx_p = tmp_path / "rx.json"
    rx_p.write_text(json.dumps({"received": json.loads(enc_p.read_text())["lifted"]}))
    code, out, _ = run(capsys, ["decode", "--config", spec_path, "--in", str(rx_p)])
    assert code == 0
    ms = json.loads(out)
    assert ms["ok"] is True and ms["messages"] == [[2], [7]]
    assert ms["diagnostics"]["wrong_inner_counts"] == [0, 0]


def test_simulate_csv(spec_path, tmp_path, capsys):
    sim = {
        "spec": TINY_SPEC,
        "channel": {"rho": [0, 1], "tau": [0]},
        "trials": 4,
        "master_seed": 11,
        "decoders": ["oracle", "multistage"],
    }
    cfg_p = tmp_path / "sim.json"
    cfg_p.write_text(json.dumps(sim))
    out_p = tmp_path / "records.csv"
    code, out, _ = run(capsys, ["simulate", "--config", str(cfg_p),
                                "--out", str(out_p)])
    assert code == 0
    assert "decoder" in out and "fer" in out  # summary table on stdout
    text1 = out_p.read_text()
    lines = text1.strip().split("\n")
    assert lines[0] == "rho,tau,trial,decoder,success,ds_observed,stage_failed,wall_us"
    assert len(lines) == 1 + 2 * 4 * 2

    # byte-identical on repeat and under parallel workers
    code, _, _ = run(capsys, ["simulate", "--config", str(cfg_p),
                              "--out", str(out_p), "--workers", "2"])
    assert code == 0
    assert out_p.read_text() == text1


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    sim = {"spec": TINY_SPEC, "channel": {"rho": 0, "tau": 0}, "master_seed": -1}
    cfg_p = tmp_path / "sim.json"
    cfg_p.write_text(json.dumps(sim))
    code, out, err = run(capsys, ["simulate", "--config", str(cfg_p)])
    assert code == 2 and out == ""
    assert "master_seed" in err and "Traceback" not in err


def test_simulate_rejects_empty_decoder_list(tmp_path, capsys):
    sim = {"spec": TINY_SPEC, "channel": {"rho": 0, "tau": 0}, "decoders": []}
    cfg_p = tmp_path / "sim.json"
    cfg_p.write_text(json.dumps(sim))
    code, out, err = run(capsys, ["simulate", "--config", str(cfg_p)])
    assert code == 2 and out == ""
    assert "at least one decoder" in err and "Traceback" not in err


@pytest.mark.parametrize("channel, over", [
    ({"rho": "12", "tau": 0}, {}),
    ({"rho": [1.9], "tau": 0}, {}),
    ({"rho": 1, "tau": 0, "split": [[0.9, 0], [0.1, 0]]}, {}),
    ({"rho": 0, "tau": 0}, {"trials": 2.7}),
    ({"rho": 0, "tau": 0}, {"master_seed": 1.5}),
    ({"rho": 0, "tau": 0}, {"spec": {**TINY_SPEC, "n": 2.5}}),
], ids=["rho-str", "rho-float", "split-float", "trials-float", "seed-float", "spec-n-float"])
def test_simulate_rejects_non_integer_counts(channel, over, tmp_path, capsys):
    sim = {"spec": TINY_SPEC, "channel": channel, "trials": 1, **over}
    cfg_p = tmp_path / "sim.json"
    cfg_p.write_text(json.dumps(sim))
    code, out, err = run(capsys, ["simulate", "--config", str(cfg_p)])
    assert code == 2 and out == ""
    assert "must be an integer" in err and "Traceback" not in err


@pytest.mark.parametrize("over, message", [
    ({"timing": "no"}, "timing must be true or false"),
    ({"decoders": "oracle"}, "decoders must be a list"),
], ids=["timing-str", "decoders-str"])
def test_simulate_rejects_non_bool_timing_and_bare_decoder(over, message, tmp_path, capsys):
    sim = {"spec": TINY_SPEC, "channel": {"rho": 0, "tau": 0}, "trials": 1, **over}
    cfg_p = tmp_path / "sim.json"
    cfg_p.write_text(json.dumps(sim))
    code, out, err = run(capsys, ["simulate", "--config", str(cfg_p)])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_workers_below_one(workers, capsys):
    code, out, err = run(capsys, ["simulate", "--config",
                                  str(CONFIGS / "simulate_tiny.json"), "--workers", workers])
    assert code == 2 and out == ""
    assert "--workers" in err and "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    """python -m rankshot works from a checkout, with src on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "rankshot", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "simulate" in proc.stdout


def test_simulate_json_format(spec_path, tmp_path, capsys):
    sim = {"spec": TINY_SPEC, "channel": {"rho": 0, "tau": 0},
           "trials": 2, "master_seed": 1, "decoders": ["multistage"]}
    cfg_p = tmp_path / "sim.json"
    cfg_p.write_text(json.dumps(sim))
    code, out, _ = run(capsys, ["simulate", "--config", str(cfg_p),
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert {r["success"] for r in doc["records"]} == {True}
    assert doc["fer"][0]["fer"] == 0.0


def test_bad_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, ["params", "--config", str(p)])
    assert code == 2 and "error" in err

    p2 = tmp_path / "bad2.json"
    p2.write_text(json.dumps({"field": {"q": 2, "M": 3}, "N": 5, "K": 2,
                              "Ks": [2, 0], "n": 2, "outers": [{"k": 1}]}))
    code, _, err = run(capsys, ["params", "--config", str(p2)])
    assert code == 2  # N > M is invalid

    # primes beyond the q bound are refused before any primality test
    for q in (4294967311, 2**61 - 1):
        p2.write_text(json.dumps({**TINY_SPEC, "field": {"q": q, "M": 3}}))
        t0 = time.perf_counter()
        code, _, err = run(capsys, ["params", "--config", str(p2)])
        assert code == 2 and "below" in err
        assert time.perf_counter() - t0 < 1.0


def test_encode_validates_messages(spec_path, tmp_path, capsys):
    p = tmp_path / "msg.json"
    p.write_text(json.dumps({"messages": [[9], [0]]}))  # 9 not in F_8
    code, _, err = run(capsys, ["encode", "--config", spec_path, "--in", str(p)])
    assert code == 2
    p.write_text(json.dumps({"messages": [[1]]}))  # missing a level
    code, _, _ = run(capsys, ["encode", "--config", spec_path, "--in", str(p)])
    assert code == 2


@pytest.mark.parametrize("messages", [[[3.9], [0]], [[3], [True]], [[3], ["5"]]],
                         ids=["float", "bool", "str"])
def test_encode_rejects_non_integer_symbols(spec_path, tmp_path, capsys, messages):
    p = tmp_path / "msg.json"
    p.write_text(json.dumps({"messages": messages}))
    code, out, err = run(capsys, ["encode", "--config", spec_path, "--in", str(p)])
    assert code == 2 and out == ""
    assert "message symbol must be an integer" in err and "Traceback" not in err


def test_channel_rejects_mismatched_n(spec_path, tmp_path, capsys):
    msg_p = tmp_path / "msg.json"
    msg_p.write_text(json.dumps({"messages": [[0], [0]]}))
    enc_p = tmp_path / "enc.json"
    run(capsys, ["encode", "--config", spec_path, "--in", str(msg_p),
                 "--out", str(enc_p)])
    chan_cfg = tmp_path / "chan.json"
    chan_cfg.write_text(json.dumps({"rho": 0, "tau": 0, "n": 5, "seed": 0}))
    code, _, err = run(capsys, ["channel", "--config", str(chan_cfg),
                                "--in", str(enc_p)])
    assert code == 2 and "n=5" in err


def test_mindist_reports_design_violation(spec_path, capsys, monkeypatch):
    # a design bound above the true minimum is reported, not asserted
    monkeypatch.setattr(MultilevelCodeSpec, "design_distance", lambda self: 99)
    code, out, err = run(capsys, ["mindist", "--config", spec_path])
    assert code == 0 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["design_distance"] == 99 and doc["min_distance"] == 4
    assert doc["meets_design"] is False


def lifted_zero_word(N, M, n, q=2):
    """Received document holding the clean lifted zero codeword in every shot."""
    y = np.hstack([np.eye(N, dtype=np.int64), np.zeros((N, M), dtype=np.int64)])
    return {"received": [matrix_to_json(y, q) for _ in range(n)]}


def test_decode_rejects_wrong_column_count(spec_path, tmp_path, capsys):
    doc = lifted_zero_word(3, 3, 2)
    doc["received"][1] = matrix_to_json(np.eye(3, 5, dtype=np.int64), 2)
    p = tmp_path / "rx.json"
    p.write_text(json.dumps(doc))
    for decoder in ("multistage", "oracle"):
        code, _, err = run(capsys, ["decode", "--config", spec_path, "--in", str(p),
                                    "--decoder", decoder])
        assert code == 2
        assert "received matrix 1 has 5 columns" in err


def test_decode_rejects_wrong_q(spec_path, tmp_path, capsys):
    doc = lifted_zero_word(3, 3, 2)
    doc["received"][0]["q"] = 3
    p = tmp_path / "rx.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["decode", "--config", spec_path, "--in", str(p)])
    assert code == 2
    assert "received matrix 0 has q=3" in err


@pytest.mark.parametrize("key, value", [
    ("rows", 3.7), ("cols", 6.0), ("q", True), ("data", 1.9), ("data", False),
], ids=["rows-float", "cols-float", "q-bool", "entry-float", "entry-bool"])
@pytest.mark.parametrize("command", ["decode", "channel"])
def test_matrix_documents_read_integers_strictly(spec_path, tmp_path, capsys,
                                                  command, key, value):
    doc = lifted_zero_word(3, 3, 2)
    mat = doc["received"][0]
    if key == "data":
        mat["data"][1] = value
    else:
        mat[key] = value
    p = tmp_path / "rx.json"
    p.write_text(json.dumps(doc if command == "decode" else {"lifted": doc["received"]}))
    config = spec_path if command == "decode" else str(CONFIGS / "channel_example.json")
    code, out, err = run(capsys, [command, "--config", config, "--in", str(p)])
    assert code == 2 and out == ""
    assert "must be an integer" in err and "Traceback" not in err


def test_decode_oracle_refuses_special_preset(tmp_path, capsys):
    # 2^20 codewords pass the count guard, but the underline stack is 384 MiB
    rx = tmp_path / "rx.json"
    rx.write_text(json.dumps(lifted_zero_word(4, 4, 3)))
    code, _, err = run(capsys, ["decode", "--config", str(CONFIGS / "special_preset.json"),
                                "--in", str(rx), "--decoder", "oracle"])
    assert code == 3
    assert err.startswith("refused:") and "stack bytes" in err


_ENTRIES = st.one_of(
    st.integers(-3, 9), st.integers(min_value=2 ** 63),
    st.floats(), st.text(max_size=2), st.none(), st.lists(st.integers(0, 1), max_size=2),
)


@st.composite
def _broken_received_docs(draw):
    """Well-formed received documents for TINY_SPEC with a few fields broken."""
    mats = []
    for _ in range(draw(st.sampled_from([2, 2, 2, 1, 3]))):
        rows = draw(st.integers(0, 5))
        data = draw(st.lists(st.integers(0, 1), min_size=6 * rows, max_size=6 * rows))
        mats.append({"rows": rows, "cols": 6, "q": 2, "data": data})
    for _ in range(draw(st.integers(0, 2))):
        mat = draw(st.sampled_from(mats))
        key = draw(st.sampled_from(["rows", "cols", "q", "data"]))
        if draw(st.booleans()):
            mat.pop(key, None)
        elif key == "data":
            mat[key] = draw(st.lists(_ENTRIES, max_size=12))
        else:
            mat[key] = draw(_ENTRIES)
    return {"received": mats}


_RECEIVED_DOCS = st.one_of(
    _broken_received_docs(),
    st.fixed_dictionaries({"received": st.one_of(st.none(), st.integers(), st.text())}),
    st.lists(st.integers(), max_size=2),
    st.just({}),
)


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_RECEIVED_DOCS, decoder=st.sampled_from(["multistage", "oracle"]))
def test_decode_malformed_documents_exit_cleanly(spec_path, tmp_path, capsys, doc, decoder):
    p = tmp_path / "rx.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["decode", "--config", spec_path, "--in", str(p),
                                "--decoder", decoder])
    assert code in (0, 2, 3)
    assert "Traceback" not in err


_SHOT_2X5 = {"rows": 2, "cols": 5, "q": 2, "data": [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]}


_SHOT_2X5_Q4 = {"rows": 2, "cols": 5, "q": 4, "data": [1, 0, 3, 1, 0, 0, 1, 2, 1, 1]}
_SHOT_2X5_Q_HUGE = {"rows": 2, "cols": 5, "q": 2 ** 61 - 1, "data": [1] * 10}
# 2147483659 is prime and one row keeps its int64 products in range
_SHOT_1X5_Q_GUARD = {"rows": 1, "cols": 5, "q": 2147483659, "data": [1, 0, 0, 0, 0]}


@pytest.mark.parametrize("first, second, message", [
    (_SHOT_2X5, {"rows": 1, "cols": 5, "q": 2, "data": [2 ** 70, 0, 0, 0, 0]},
     "bad transmit document"),
    (_SHOT_2X5, {"rows": 3, "cols": 5, "q": 2, "data": [1] * 15},
     "transmit matrix 1 is 3x5, matrix 0 is 2x5"),
    (_SHOT_2X5, {"rows": 2, "cols": 6, "q": 2, "data": [1] * 12},
     "transmit matrix 1 is 2x6, matrix 0 is 2x5"),
    (_SHOT_2X5, {"rows": 2, "cols": 5, "q": 3, "data": [1] * 10},
     "transmit matrix 1 has q=3, matrix 0 has q=2"),
    (_SHOT_2X5_Q4, _SHOT_2X5_Q4, "transmit q=4 is not prime"),
    # 2^61 - 1 is prime, but 2 (q - 1)^2 overflows int64
    (_SHOT_2X5_Q_HUGE, _SHOT_2X5_Q_HUGE, "is too large"),
    (_SHOT_1X5_Q_GUARD, _SHOT_1X5_Q_GUARD, "transmit q=2147483659 must be below"),
], ids=["entry-beyond-int64", "row-count", "column-count", "mixed-q", "non-prime-q",
        "q-beyond-int64-products", "q-beyond-guard"])
def test_channel_rejects_inconsistent_transmit(tmp_path, capsys, first, second, message):
    p = tmp_path / "tx.json"
    p.write_text(json.dumps({"lifted": [first, second]}))
    code, out, err = run(capsys, ["channel", "--config", str(CONFIGS / "channel_example.json"),
                                  "--in", str(p)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("over", [
    {"rho": 1.9}, {"rho": "1"}, {"tau": False}, {"n": 2.5}, {"seed": 3.7},
    {"rho": 1, "split": [[0.9, 0], [0.1, 0]]},
], ids=["rho-float", "rho-str", "tau-bool", "n-float", "seed-float", "split-float"])
def test_channel_rejects_non_integer_counts(over, tmp_path, capsys):
    cfg = tmp_path / "chan.json"
    cfg.write_text(json.dumps({"rho": 0, "tau": 0, "n": 2, "seed": 0, **over}))
    p = tmp_path / "tx.json"
    p.write_text(json.dumps({"lifted": [_SHOT_2X5, _SHOT_2X5]}))
    code, out, err = run(capsys, ["channel", "--config", str(cfg), "--in", str(p)])
    assert code == 2 and out == ""
    assert "must be an integer" in err and "Traceback" not in err


def test_channel_rejects_non_object_config(tmp_path, capsys):
    cfg = tmp_path / "chan.json"
    cfg.write_text(json.dumps([1, 2]))
    p = tmp_path / "tx.json"
    p.write_text(json.dumps({"lifted": [_SHOT_2X5, _SHOT_2X5]}))
    code, _, err = run(capsys, ["channel", "--config", str(cfg), "--in", str(p)])
    assert code == 2 and "JSON object" in err


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_RECEIVED_DOCS)
def test_channel_malformed_documents_exit_cleanly(tmp_path, capsys, doc):
    p = tmp_path / "tx.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["channel", "--config", str(CONFIGS / "channel_example.json"),
                                "--in", str(p)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err
