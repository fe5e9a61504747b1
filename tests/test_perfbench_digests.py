"""The seed-7 outputs of every perfbench workload, pinned by digest.

perfbench/run.py digests each workload's canonical output texts, and a
change that keeps the package's outputs byte-identical keeps these
digests.  The module is loaded from its file, as
test_perfbench_contract.py loads spans.py; one untimed pass and the
one-off decodes of seed 7 are digested, with no timing loop, once plain
and once under the per-layer spans of a traced run (spans.Tracer), which
wrap package functions and methods such as MultilevelCodeSpec.encode.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from rankshot import linalg

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

SEED_7 = {
    "sim-tiny": "dab29b26e0754f26aab91a19e68ba3e58610316ecceca1ac8d13dbbdb9a0e570",
    "decode-12": "b1d49fe12e6cdc99c3098ec960ce53cc82d1f2bdbd4be20103f590213615f16e",
    "algebraic-20": "91c1e1b026ec7dcb9ddea46dd6cfb325c52b82daa9d50c248822e429954cc347",
}


@pytest.fixture(scope="module")
def run():
    with pytest.MonkeyPatch.context() as mp:
        # run.py imports spans.py from beside itself, and dataclasses look
        # their module up in sys.modules while the module executes
        mp.syspath_prepend(str(RUN.parent))
        spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SEED_7))
def test_seed_7_digest(run, name):
    w = run.WORKLOADS[name](7)
    w.setup()
    w.make_inputs()
    assert run.digest(w.run_pass()[0] + w.run_once()[0]) == SEED_7[name]


@pytest.fixture(scope="module")
def traced(run):
    """name -> (texts, per-layer stats) of a traced seed-7 set-up, pass and
    one-off decodes, each workload run once for the tests that read it."""
    runs = {}

    def get(name):
        if name not in runs:
            w = run.WORKLOADS[name](7)
            with run.spans.Tracer() as tracer, tracer.root():
                w.setup()
                w.make_inputs()
                texts = w.run_pass()[0] + w.run_once()[0]
            runs[name] = texts, tracer.stats
        return runs[name]

    return get


@pytest.mark.parametrize("name", sorted(SEED_7))
def test_seed_7_digest_traced(run, traced, name):
    """A traced set-up and pass decode to the same digest, and no decode
    path splits a word with PartitionChain.coset_leader."""
    texts, stats = traced(name)
    assert run.digest(texts) == SEED_7[name]
    assert stats and "cosets.coset_leader" not in stats


def test_decode_12_scores_without_rank_batch(run, traced, monkeypatch):
    """decode-12 scores each received shot over R_0 on packed F_2 rows, so
    its traced set-up and pass make no rank_batch call, while each shot
    of every decode is row-reduced once: one packed elimination
    (linalg.rref_bits) a shot, counted directly, and no rref of a
    received shot."""
    _, stats = traced("decode-12")
    assert "linalg.rank_batch" not in stats
    w = run.WORKLOADS["decode-12"](7)
    packed, received_rrefs, shots = [], [], []
    real_bits, real_rref, real_decode = linalg.rref_bits, linalg.rref, w.decode

    def counting_bits(rows):
        packed.append(1)
        return real_bits(rows)

    def counting_rref(m, q):
        if np.shape(m)[1] == w.spec.lifted_length:  # N + M columns: a received shot
            received_rrefs.append(1)
        return real_rref(m, q)

    def counting_decode(dec, received):
        shots.append(len(received))
        return real_decode(dec, received)

    monkeypatch.setattr(linalg, "rref_bits", counting_bits)
    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(w, "decode", counting_decode)
    w.setup()
    w.make_inputs()
    w.run_pass()
    w.run_once()
    assert shots and len(packed) == sum(shots) and received_rrefs == []
